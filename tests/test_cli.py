import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spherekh import cli, discrepancy
from spherekh.cli import main, parse_args
from spherekh.fileio import write_field_json, write_measure_csv, write_points_csv
from spherekh.geom import random_points
from spherekh.harmonic import random_field
from spherekh.measures import DiscreteSignedMeasure, potential_values


@pytest.fixture()
def inputs(tmp_path):
    rng = np.random.default_rng(99)
    field = tmp_path / "field.json"
    write_field_json(field, random_field(2, 3, 0.3, rng))
    sigma = tmp_path / "sigma.csv"
    write_measure_csv(
        sigma,
        DiscreteSignedMeasure(random_points(2, 20, rng), rng.uniform(-1, 1, 20)),
    )
    return tmp_path, str(field), str(sigma)


def test_parse_args_valid():
    cfg = parse_args(
        [
            "verify-identity",
            "--d", "2", "--r0", "0.3", "--r", "0.7",
            "--sigma", "atoms.csv", "--field", "field.json",
        ]
    )
    assert cfg.command == "verify-identity"
    assert cfg.r0 == 0.3 and cfg.r == 0.7
    assert cfg.sigma == "atoms.csv" and cfg.field == "field.json"


def test_parse_args_r_ordering(capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(
            ["verify-identity", "--r", "0.2", "--r0", "0.3",
             "--sigma", "s.csv", "--field", "f.json"]
        )
    assert info.value.code == 2
    assert "requires r0 < r" in capsys.readouterr().err


def test_parse_args_requires_command(capsys):
    with pytest.raises(SystemExit) as info:
        parse_args([])
    assert info.value.code != 0
    assert "command" in capsys.readouterr().err


def test_parse_args_validations(capsys):
    with pytest.raises(SystemExit):
        parse_args(["partition", "--n", "4", "--d", "1"])
    with pytest.raises(SystemExit):
        parse_args(["thm4b", "--epsilon", "1.0"])  # needs --points or --n
    with pytest.raises(SystemExit):
        parse_args(
            ["bound", "--sigma", "s.csv", "--field", "f.json", "--p", "0.5"]
        )
    cfg = parse_args(["bound", "--sigma", "s", "--field", "f", "--p", "inf"])
    assert cfg.p == math.inf
    capsys.readouterr()


def test_identity_run_and_exit_codes(inputs):
    tmp, field, sigma = inputs
    out = tmp / "report.json"
    code = main(
        ["verify-identity", "--field", field, "--sigma", sigma,
         "--degree", "100", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 3
    assert doc["result"]["report"] == "identity"
    assert doc["result"]["relative"] <= 1e-10
    assert set(doc["inputs"]) == {"field", "sigma"}
    # a degree-4 quadrature cannot integrate the pairing: the identity fails
    code = main(
        ["verify-identity", "--field", field, "--sigma", sigma,
         "--degree", "4", "--out", str(out)]
    )
    assert code == 1


def test_reports_are_byte_identical(inputs):
    tmp, field, sigma = inputs
    a, b = tmp / "a.json", tmp / "b.json"
    argv = ["verify-identity", "--field", field, "--sigma", sigma, "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bound_and_corollary3(inputs):
    tmp, field, sigma = inputs
    out = tmp / "bound.json"
    code = main(
        ["bound", "--field", field, "--sigma", sigma, "--p", "inf",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["slack"] >= 0
    assert doc["result"]["p_conjugate"] == 1.0

    rule = tmp / "rule.csv"
    pts = random_points(2, 12, 5)
    write_measure_csv(
        rule, DiscreteSignedMeasure(pts, np.full(12, 4 * math.pi / 12))
    )
    out2 = tmp / "c3.json"
    code = main(
        ["corollary3", "--field", field, "--rule", str(rule), "--p", "2",
         "--mu-degree", "40", "--out", str(out2)]
    )
    assert code == 0
    assert json.loads(out2.read_text())["result"]["slack"] >= 0


def test_broken_measure_exits_2(inputs, capsys):
    tmp, field, sigma = inputs
    broken = tmp / "broken.csv"
    lines = (tmp / "sigma.csv").read_text().splitlines()
    row = lines[2].split(",")
    row[0] = str(float(row[0]) + 0.1)
    broken.write_text("\n".join([lines[0], lines[1], ",".join(row)] + lines[3:]))
    code = main(["verify-identity", "--field", field, "--sigma", str(broken)])
    assert code == 2
    assert "point 1" in capsys.readouterr().err
    for i, text in enumerate(('{"charges": 5}', "[1, 2]")):
        bad = tmp / f"bad_field_{i}.json"
        bad.write_text(text)
        code = main(["verify-identity", "--field", str(bad), "--sigma", sigma])
        assert code == 2
        assert str(bad) in capsys.readouterr().err
    bad = tmp / "bad_points.json"
    bad.write_text("[1, 2]")
    for argv in (
        ["meshnorm", "--points", str(bad)],
        ["verify-identity", "--field", field, "--sigma", str(bad)],
    ):
        assert main(argv) == 2
        assert str(bad) in capsys.readouterr().err


_MALFORMED = [
    # (flag the file is given to, JSON text); the other inputs are valid
    pytest.param("points", '{"d": [2], "points": [[1, 0, 0]]}', id="points-d-list"),
    pytest.param("points", '{"d": null, "points": [[1, 0, 0]]}', id="points-d-null"),
    pytest.param("points", '{"points": {"a": 1}}', id="points-object"),
    pytest.param(
        "sigma", '{"points": [[1, 0, 0]], "weights": {"a": 1}}', id="sigma-weights-object"
    ),
    pytest.param("sigma", '{"points": {"a": 1}, "weights": [1]}', id="sigma-points-object"),
    pytest.param(
        "field",
        '{"d": [2], "charges": [{"location": [0.1, 0, 0], "strength": 1}]}',
        id="field-d-list",
    ),
    pytest.param(
        "field", '{"charges": [{"location": {"a": 1}, "strength": 1}]}', id="field-location"
    ),
    pytest.param(
        "field", '{"charges": [{"location": 0.1, "strength": 1}]}', id="field-location-scalar"
    ),
    pytest.param(
        "field", '{"charges": [{"location": [], "strength": 1}]}', id="field-location-empty"
    ),
    pytest.param(
        "field",
        '{"charges": [{"location": [0.1, 0, 0], "strength": 1}, '
        '{"location": [0.1, 0], "strength": 1}]}',
        id="field-location-mixed",
    ),
    pytest.param("field", '{"d": 2.7, "charges": []}', id="field-d-fraction"),
    # well-formed JSON that the measure or field constructor rejects
    pytest.param("sigma", '{"points": [0.1], "weights": [1]}', id="sigma-points-flat"),
    pytest.param("sigma", '{"points": [], "weights": []}', id="sigma-empty"),
    pytest.param(
        "sigma", '{"points": [[1, 0, 0]], "weights": [[1]]}', id="sigma-weights-nested"
    ),
    pytest.param(
        "field",
        '{"d": 3, "charges": [{"location": [0.1, 0, 0], "strength": 1}]}',
        id="field-d-disagrees",
    ),
    pytest.param(
        "sigma", '{"d": 3, "points": [[1, 0, 0]], "weights": [1]}', id="sigma-d-disagrees"
    ),
    pytest.param(
        "field", '{"charges": [{"location": [1.5, 0, 0], "strength": 1}]}', id="field-outside"
    ),
    pytest.param("points", '{"points": [[1, 0, 0], [0, 1.1, 0]]}', id="points-off-sphere"),
    pytest.param(
        "points",
        '{"points": [[0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 0, 0]]}',
        id="points-duplicate-1-3",
    ),
    pytest.param(
        "points", '{"points": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}', id="points-duplicate-0-1"
    ),
    pytest.param(
        "points",
        '{"points": [[0, 0, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0]]}',
        id="points-duplicate-three",
    ),
    pytest.param(
        "points", '{"points": [[1, 0, 0], [0, 1, 0], [1, 5e-10, 0]]}', id="points-apart-5e-10"
    ),
    # files that are well-formed alone but do not fit the flags or parse at all
    pytest.param(
        "field", '{"charges": [{"location": [0.5, 0, 0], "strength": 1}]}', id="field-beyond-r0"
    ),
    pytest.param("sigma", '{"points": [[1, 0, 0, 0]], "weights": [1]}', id="sigma-on-s3"),
    pytest.param("sigma", '{"points": [[1, 0, 0]]}', id="sigma-no-weights"),
    pytest.param("sigma", '{"points": [[1, 0, 0]], "weights": [1]', id="sigma-cut-short"),
]


@pytest.mark.parametrize("flag, text", _MALFORMED)
def test_malformed_json_exits_2(inputs, capsys, flag, text):
    tmp, field, sigma = inputs
    bad = tmp / "malformed.json"
    bad.write_text(text)
    argv = {
        "points": ["meshnorm", "--points", str(bad)],
        "sigma": ["verify-identity", "--field", field, "--sigma", str(bad)],
        "field": ["verify-identity", "--field", str(bad), "--sigma", sigma],
    }[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


def test_truncation_not_converging_exits_2(inputs, capsys):
    tmp, _, sigma = inputs
    field = tmp / "near.json"
    field.write_text('{"charges": [{"location": [0.69994, 0, 0], "strength": 1}]}')
    argv = ["verify-identity", "--field", str(field), "--sigma", sigma,
            "--r0", "0.69995", "--r", "0.69996"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err and "tolerance" in err
    assert "Traceback" not in err


# (command and its other arguments, the flag, a value it must refuse)
_NON_FINITE = [
    (["verify-identity", "--field", "f.json", "--sigma", "s.csv"], "--trunc-tol", "nan"),
    (["verify-identity", "--field", "f.json", "--sigma", "s.csv"], "--tol", "nan"),
    (["verify-identity", "--field", "f.json", "--sigma", "s.csv"], "--r0", "nan"),
    (["bound", "--field", "f.json", "--sigma", "s.csv"], "--r", "inf"),
    (["bound", "--field", "f.json", "--sigma", "s.csv"], "--p", "nan"),
    (["thm4b", "--n", "8"], "--epsilon", "nan"),
    (["thm4b", "--n", "8"], "--epsilon", "inf"),
]


@pytest.mark.parametrize(
    "argv, flag, value", _NON_FINITE, ids=[f"{a[0]}{f}={v}" for a, f, v in _NON_FINITE]
)
def test_non_finite_flags_exit_2(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as info:
        main(argv + [flag, value])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and value in err
    assert "Traceback" not in err


# (command, its other arguments, a flag the command does not take)
_DROPPED_FLAGS = [
    (cmd, argv, flag)
    for cmd, argv, flags in (
        ("verify-identity", ["--field", "f.json", "--sigma", "s.csv"], ("--seed",)),
        (
            "bound",
            ["--field", "f.json", "--sigma", "s.csv"],
            ("--seed", "--tol", "--trunc-tol"),
        ),
        (
            "corollary3",
            ["--field", "f.json", "--rule", "r.csv"],
            ("--seed", "--tol", "--trunc-tol"),
        ),
        ("thm4a", ["--n", "8"], ("--degree", "--trunc-tol", "--seed", "--tol", "--r0")),
        (
            "thm4b",
            ["--n", "8", "--epsilon", "1"],
            ("--tol", "--degree", "--trunc-tol", "--seed"),
        ),
        ("partition", ["--n", "8"], ("--tol", "--seed", "--degree", "--trunc-tol")),
        (
            "meshnorm",
            ["--points", "p.csv"],
            ("--tol", "--degree", "--trunc-tol", "--seed"),
        ),
        ("scaling", [], ("--trunc-tol", "--seed", "--tol", "--r0")),
    )
    for flag in flags
]


@pytest.mark.parametrize(
    "cmd, argv, flag", _DROPPED_FLAGS, ids=[f"{c}{f}" for c, _, f in _DROPPED_FLAGS]
)
def test_unread_flags_are_rejected(capsys, cmd, argv, flag):
    parse_args([cmd] + argv)
    with pytest.raises(SystemExit) as info:
        parse_args([cmd] + argv + [flag, "1"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["thm4a", "--n", "64", "--r", "0.2", "--mu-degree", "20"],
        ["scaling", "--r", "0.25", "--n-values", "16,64", "--degree", "20"],
    ],
    ids=["thm4a", "scaling"],
)
def test_radius_below_the_old_inner_default_is_accepted(tmp_path, argv):
    # neither command reads an inner radius, so --r may lie below 0.3
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["radius"] == float(argv[argv.index("--r") + 1])
    assert "seed" not in doc and "tolerances" not in doc


@pytest.mark.parametrize(
    "argv, message",
    [
        (["thm4a", "--n", "8", "--r", "1"], "--r: expected a number in (0, 1)"),
        (["scaling", "--r", "0"], "--r: expected a number in (0, 1)"),
        (["thm4b", "--n", "8", "--epsilon", "1", "--r0", "1.5"], "--r0: expected a number"),
    ],
)
def test_each_radius_flag_is_checked(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        parse_args(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["meshnorm", "thm4b"])
def test_d_must_match_points_file(tmp_path, capsys, cmd):
    path = tmp_path / "s2.csv"
    write_points_csv(path, random_points(2, 40, 3), dim=2)
    argv = [cmd, "--points", str(path), "--out", str(tmp_path / "r.json")]
    if cmd == "thm4b":
        argv += ["--epsilon", "1e-3", "--mu-degree", "10"]
    assert main(argv + ["--d", "3"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "S^2" in err
    # the file's own dimension, given or not, is accepted
    assert main(argv + ["--d", "2"]) != 2
    assert main(argv) != 2


def test_thm4b_reads_d_from_points(tmp_path):
    path = tmp_path / "s3.csv"
    write_points_csv(path, random_points(3, 30, 4), dim=3)
    out = tmp_path / "t4b.json"
    argv = ["thm4b", "--points", str(path), "--mu-degree", "10",
            "--epsilon", "1e-3", "--out", str(out)]
    assert main(argv) == 1
    assert json.loads(out.read_text())["failure"] == "GateConditionError"


def test_missing_file_exits_2(inputs, capsys):
    _, field, _ = inputs
    code = main(["verify-identity", "--field", field, "--sigma", "nope.csv"])
    assert code == 2
    capsys.readouterr()


def test_thm4a_run(tmp_path):
    out = tmp_path / "t4a.json"
    code = main(
        ["thm4a", "--n", "64", "--r", "0.5", "--mu-degree", "40", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    res = doc["result"]
    assert res["measured_sup"] <= res["bound"]
    assert doc["rule_mass"] == pytest.approx(4 * math.pi, rel=1e-12)


def test_thm4a_sums_the_mu_term_once_per_azimuth_orbit(tmp_path, monkeypatch):
    pairs = []

    def counted(measure, targets):
        values = potential_values(measure, targets)
        pairs.append(len(measure.points) * len(values))
        return values

    monkeypatch.setattr(discrepancy, "potential_values", counted)
    argv = ["thm4a", "--d", "3", "--n", "4096", "--mu-degree", "30"]
    assert main(argv + ["--out", str(tmp_path / "t4a.json")]) == 0
    # the plain sums take 7936 x 7936 pairs for mu alone
    assert len(pairs) == 2 and sum(pairs) <= 32_000_000


def test_thm4b_success_and_gate_failure(tmp_path, capsys):
    out = tmp_path / "t4b.json"
    code = main(
        ["thm4b", "--n", "256", "--epsilon", "200", "--r0", "0.3",
         "--mu-degree", "40", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["within_epsilon"] is True
    assert 0.3 < doc["result"]["radius"] < doc["result"]["r_admissible_upper"]
    assert doc["tolerances"] == {"epsilon": 200.0}

    fail = tmp_path / "fail.json"
    code = main(
        ["thm4b", "--n", "1", "--epsilon", "0.5", "--r0", "0.3",
         "--out", str(fail)]
    )
    assert code == 1
    doc = json.loads(fail.read_text())
    assert doc["failure"] == "GateConditionError"
    assert "mesh norm too large" in doc["detail"]
    capsys.readouterr()


def test_thm4b_exits_1_when_not_within_epsilon(tmp_path, monkeypatch):
    report = SimpleNamespace(within_epsilon=False, to_dict=lambda: {"within_epsilon": False})
    monkeypatch.setattr(cli, "reduction_pipeline", lambda *args, **kwargs: report)
    out = tmp_path / "t4b.json"
    code = main(["thm4b", "--n", "8", "--epsilon", "1", "--mu-degree", "4", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["result"] == {"within_epsilon": False}


def test_partition_stdout(capsys):
    assert main(["partition", "--n", "6", "--d", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 6
    assert sum(r["area"] for r in doc["regions"]) == pytest.approx(4 * math.pi)


def test_meshnorm_octahedron(tmp_path, capsys):
    pts = np.vstack([np.eye(3), -np.eye(3)])
    path = tmp_path / "oct.csv"
    write_points_csv(path, pts, dim=2)
    assert main(["meshnorm", "--points", str(path), "--resolution", "400"]) == 0
    doc = json.loads(capsys.readouterr().out)
    true_value = math.sqrt(2 - 2 / math.sqrt(3))
    assert doc["result"]["lower"] <= true_value <= doc["result"]["upper"]


def test_scaling_csv(tmp_path):
    out = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    code = main(
        ["scaling", "--n-values", "16,64", "--r", "0.5",
         "--degree", "30", "--out", str(out), "--csv", str(csv)]
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,mesh_norm,partition_norm,measured_sup,bound"
    assert len(lines) == 3
    doc = json.loads(out.read_text())
    assert doc["result"]["fit_exponent"] < 0
    with pytest.raises(SystemExit):
        parse_args(["scaling", "--n-values", "16,abc"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spherekh.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("verify-identity", "thm4b", "scaling"):
        assert name in proc.stdout


# what the exit-code fuzz swaps into flag values and file cells
_FUZZ_TEXT = ("nan", "inf", "-inf", "", "abc", "-1", "0", "1", "2.5", "1e309", "[1]", "3")
_FUZZ_JSON = (math.nan, math.inf, "", "abc", None, [], {}, True, [1, 2])
_FUZZ_SCALE = (1.1, 3.0, -1.0, 0.0, 1e9)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _fuzz_argv(rng, argv):
    """argv with one token dropped or duplicated or one flag value swapped,
    and the tokens of which an input error must name one."""
    kind = int(rng.integers(3))
    if kind == 2:
        i = _pick(rng, [i for i in range(2, len(argv)) if argv[i - 1].startswith("--")])
        text = _pick(rng, _FUZZ_TEXT)
        return argv[:i] + [text] + argv[i + 1:], [argv[i - 1], repr(text)]
    # the token itself, or the flag or value next to it
    i = int(rng.integers(1, len(argv)))
    named = argv[max(1, i - 1):i + 2]
    return argv[:i] + argv[i:i + 1] * kind + argv[i + 1:], named


def _fuzz_json(rng, doc):
    """Drop, duplicate, scale or retype one entry somewhere inside ``doc``."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = _pick(rng, keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
            node = child
            continue
        kind = int(rng.integers(3))
        if kind == 0:
            del node[key]
        elif kind == 1 and isinstance(node, list):
            node.insert(key, child)
        elif isinstance(child, float):
            node[key] = child * _pick(rng, _FUZZ_SCALE)
        else:
            node[key] = _pick(rng, _FUZZ_JSON)
        return doc


def _fuzz_text(rng, path):
    """The file's text with one row or cell dropped, duplicated or changed;
    a JSON file may instead be cut short."""
    text = path.read_text()
    if path.suffix == ".json":
        if rng.random() < 0.2:
            return text[: int(rng.integers(len(text)))]
        return json.dumps(_fuzz_json(rng, json.loads(text)))
    lines = text.splitlines()
    k = int(rng.integers(len(lines)))
    kind = int(rng.integers(4))
    if kind < 2:
        lines[k:k + 1] = lines[k:k + 1] * (2 * kind)
    else:
        cells = lines[k].split(",")
        c = int(rng.integers(len(cells)))
        if kind == 2:
            del cells[c]
        elif rng.random() < 0.5:
            cells[c] = _pick(rng, _FUZZ_TEXT)
        else:
            try:
                cells[c] = repr(float(cells[c]) * _pick(rng, _FUZZ_SCALE))
            except ValueError:
                cells[c] = "x"
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_exit_code_contract_under_fuzzing(tmp_path, capsys):
    # every run of a mutated valid command ends in 0, 1 or 2 without a
    # traceback, and an exit 2 names the changed flag or file
    rng = np.random.default_rng(2027)
    field, sigma = tmp_path / "field.json", tmp_path / "sigma.csv"
    rule, cloud, cloud_json = (tmp_path / n for n in ("rule.json", "cloud.csv", "cloud.json"))
    write_field_json(field, random_field(2, 3, 0.3, rng))
    write_measure_csv(
        sigma, DiscreteSignedMeasure(random_points(2, 20, rng), rng.uniform(-1, 1, 20))
    )
    rule.write_text(json.dumps(
        {"d": 2, "points": random_points(2, 12, rng).tolist(), "weights": [math.pi / 3] * 12}
    ))
    write_points_csv(cloud, random_points(2, 60, rng), dim=2)
    cloud_json.write_text(json.dumps({"d": 2, "points": random_points(2, 40, rng).tolist()}))
    files = {str(p) for p in (field, sigma, rule, cloud, cloud_json)}
    shell = ["--d", "2", "--r0", "0.3", "--r", "0.7"]
    valid = [
        ["verify-identity", *shell, "--field", str(field), "--sigma", str(sigma),
         "--degree", "20", "--tol", "1e-6", "--trunc-tol", "1e-12"],
        ["bound", *shell, "--field", str(field), "--sigma", str(sigma), "--p", "2",
         "--degree", "20"],
        ["corollary3", *shell, "--field", str(field), "--rule", str(rule), "--p", "inf",
         "--degree", "16", "--mu-degree", "10"],
        ["thm4a", "--n", "16", "--mu-degree", "10", "--r", "0.5"],
        ["thm4b", "--points", str(cloud), "--epsilon", "100", "--mu-degree", "10",
         "--resolution", "40"],
        ["thm4b", "--n", "32", "--epsilon", "200", "--mu-degree", "10", "--r0", "0.3"],
        ["partition", "--n", "8", "--d", "3"],
        ["meshnorm", "--points", str(cloud_json), "--resolution", "40"],
        ["scaling", "--n-values", "4,16", "--degree", "10", "--r", "0.6"],
    ]
    codes = []
    for case in range(300):
        argv = list(_pick(rng, valid))
        inputs = [i for i, a in enumerate(argv) if a in files]
        if inputs and rng.random() < 0.5:
            i = _pick(rng, inputs)
            bad = tmp_path / f"fuzz_{case}{Path(argv[i]).suffix}"
            bad.write_text(_fuzz_text(rng, Path(argv[i])))
            argv[i], named = str(bad), [str(bad)]
        else:
            argv, named = _fuzz_argv(rng, argv)
        argv += ["--out", str(tmp_path / "report.json")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            pytest.fail(f"{argv} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            # the message is the last line, after argparse's usage lines
            message = err.strip().splitlines()[-1]
            assert any(token in message for token in named), (argv, message)
        codes.append(code)
    assert set(codes) == {0, 1, 2}
