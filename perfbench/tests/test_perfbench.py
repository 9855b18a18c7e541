"""Tests of the benchmark itself: inputs, checks, spans and statistics.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, gen, run, spans  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    ops_a, digests_a = gen.generate(workload, 7, tmp_path / "a")
    ops_b, digests_b = gen.generate(workload, 7, tmp_path / "b")
    _, digests_c = gen.generate(workload, 8, tmp_path / "c")
    assert digests_a and digests_a == digests_b
    assert digests_a != digests_c
    for a, b in zip(ops_a, ops_b):
        assert [x.replace("/a/", "/") for x in a.argv] == [x.replace("/b/", "/") for x in b.argv]
        assert a.params == b.params and a.expect_exit == b.expect_exit


def test_generated_field_pins_the_largest_charge_radius(tmp_path):
    ops, _ = gen.generate("identity", 3, tmp_path)
    doc = json.loads(Path(ops[0].argv[ops[0].argv.index("--field") + 1]).read_text())
    radii = [math.hypot(*c["location"]) for c in doc["charges"]]
    assert max(radii) == pytest.approx(gen.CHARGE_RADIUS_CAP, rel=1e-12)
    assert sum(abs(c["strength"]) for c in doc["charges"]) == pytest.approx(1.0)


def test_one_reduction_op_per_cycle_is_a_gate_reject(tmp_path):
    ops, _ = gen.generate("reduction", 0, tmp_path)
    assert sum(op.expect_exit == 1 for op in ops) == 1
    n = 4000
    assert gen.rejected_epsilon(n) < gen.passing_epsilon(n)


def _report(command, result, **extra):
    return json.dumps({"command": command, "result": result, **extra}).encode()


def test_checker_accepts_and_flags_thm4b():
    params = {"command": "thm4b", "n": 1000, "gate_reject": False}
    result = {"within_epsilon": True, "measured_sup": 0.5, "bound": 2.0,
              "mesh_norm_interval": [0.1, 0.12]}
    assert checks.check_cli(params, 0, 0, _report("thm4b", result)) is None
    flipped = dict(result, within_epsilon=False)
    assert "within_epsilon" in checks.check_cli(params, 0, 0, _report("thm4b", flipped))
    over = dict(result, measured_sup=3.0)
    assert "above bound" in checks.check_cli(params, 0, 0, _report("thm4b", over))
    empty = dict(result, mesh_norm_interval=[0.2, 0.1])
    assert "interval" in checks.check_cli(params, 0, 0, _report("thm4b", empty))
    assert "exit code 2" in checks.check_cli(params, 0, 2, _report("thm4b", result))


def test_checker_flags_an_inflated_identity_residual():
    params = {"command": "verify-identity", "tol": 1e-8}
    good = {"relative": 3e-14}
    assert checks.check_cli(params, 0, 0, _report("verify-identity", good)) is None
    bad = {"relative": 2e-8}
    assert "residual" in checks.check_cli(params, 0, 0, _report("verify-identity", bad))


def test_checker_flags_negative_slack_and_gate_mismatch():
    params = {"command": "bound"}
    result = {"slack": 1.0, "slack_sharp": 0.5}
    assert checks.check_cli(params, 0, 0, _report("bound", result)) is None
    bad = dict(result, slack_sharp=-1e-3)
    assert "slack_sharp" in checks.check_cli(params, 0, 0, _report("bound", bad))
    gate = {"command": "thm4b", "n": 4000, "gate_reject": True}
    ok = json.dumps({"command": "thm4b", "failure": "GateConditionError"}).encode()
    assert checks.check_cli(gate, 1, 1, ok) is None
    assert checks.check_cli(gate, 1, 0, ok) is not None


def _export(d, n, areas):
    regions = ",".join(
        f'{{"area":{a!r},"diameter":0.1,"representative":[1.0,0.0,0.0]}}' for a in areas
    )
    return f'{{"d":{d},"n":{n},"regions":[{regions}]}}\n'.encode()


def test_checker_verifies_partition_export_areas():
    params = {"command": "partition", "d": 2, "n": 4}
    areas = [math.pi] * 4
    assert checks.check_cli(params, 0, 0, _export(2, 4, areas)) is None
    skewed = [math.pi * (1 + 1e-6)] + [math.pi] * 3
    assert "sum" in checks.check_cli(params, 0, 0, _export(2, 4, skewed))
    assert "regions" in checks.check_cli(params, 0, 0, _export(2, 4, areas[:3]))


def test_checker_verifies_recovery_constants():
    good = {"sobolev_norm": 1.0, "c_star": 2.0, "c_star_star": 3.0,
            "lipschitz": {"max_ratio": 0.5, "bound": 4.0, "constant": 4.0}}
    assert checks.check_recovery(good) is None
    assert "c_star" in checks.check_recovery(dict(good, c_star=math.inf))
    over = dict(good, lipschitz=dict(good["lipschitz"], max_ratio=5.0))
    assert "max_ratio" in checks.check_recovery(over)
    assert checks.is_series_refusal(ValueError("series converges too slowly to ..."))
    assert not checks.is_series_refusal(ValueError("smoothness must exceed"))


def test_self_times_on_a_hand_built_span_tree():
    tree = [
        spans.Span(0, "op", 0.0, 10.0, None, 1),
        spans.Span(1, "a", 1.0, 5.0, 0, 1),
        spans.Span(2, "b", 2.0, 3.0, 1, 1),
        spans.Span(3, "b", 2.5, 4.0, 1, 1),  # overlaps its sibling
        spans.Span(4, "c", 6.0, 9.0, 0, 1),
        spans.Span(5, "c", 8.0, 12.0, 4, 1),  # runs past its parent
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[1] == pytest.approx(4.0 - 2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.5)
    assert selfs[4] == pytest.approx(3.0 - 1.0)
    assert selfs[5] == pytest.approx(4.0)


def test_latency_tail_keeps_ten_samples_beyond():
    value, pct, n = run.latency_tail(range(1, 31))
    assert (value, n) == (20, 30)
    assert pct == pytest.approx(100 * 20 / 30)
    value, pct, n = run.latency_tail([3.0, 1.0, 2.0])
    assert (value, pct, n) == (2.0, 50.0, 3)
    assert run.upper_median([1.0, 2.0, 10.0, 20.0]) == 10.0


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import numpy as np
    import spherekh
    import spherekh.cli  # noqa: F401

    originals = (spherekh.discrepancy.apply_D_values, spherekh.harmonic.apply_D_values)
    tracer = spans.Tracer(spherekh)
    rng = np.random.default_rng(0)
    field = spherekh.random_field(2, 3, 0.3, rng)
    sigma = spherekh.DiscreteSignedMeasure(
        spherekh.random_points(2, 20, rng), rng.uniform(-1, 1, 20)
    )
    quad = spherekh.sphere_surface_quadrature(2, 20)
    with tracer.installed():
        assert spherekh.discrepancy.apply_D_values is not originals[0]
        assert spherekh.discrepancy.apply_D_values is spherekh.harmonic.apply_D_values
        with tracer.span(spans.OP):
            spherekh.discrepancy.kh_identity(field, sigma, spherekh.ShellConfig(0.3, 0.7), quad)
        spherekh.equal_area_partition(3, 200)
    assert (spherekh.discrepancy.apply_D_values, spherekh.harmonic.apply_D_values) == originals
    names = {s.name for s in tracer.spans}
    assert {"op", "discrepancy.kh_identity", "harmonic.apply_D_values",
            "specfun.legendre_table", "measures.potential_values"} <= names
    # the recursive partition build counts once, at its outermost call
    assert tracer.counts["geom.equal_area_partition.calls"] == 1
    assert tracer.counts["geom.equal_area_partition.cells"] == 200
    table = tracer.layer_table(1, 1.0, 1.0)
    assert {m for m in table} >= {f"{n}.self_s" for n in spans.span_names()}
    assert table["unattributed_s"][0] >= 0.0
