import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherekh import fileio
from spherekh.fileio import (
    file_digest,
    format_float,
    json_dumps,
    read_field,
    read_measure,
    read_points,
    write_expansion_csv,
    write_field_json,
    write_measure_csv,
    write_partition_json,
    write_points_csv,
    write_points_json,
    write_profile_csv,
    write_report_json,
    write_scaling_csv,
)
from spherekh.discrepancy import ScalingRow
from spherekh.geom import Scattering, equal_area_partition, random_points
from spherekh.harmonic import expand_field, make_field, random_field
from spherekh.measures import DiscreteSignedMeasure, sphere_surface_quadrature


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200):
        assert float(format_float(float(x))) == float(x)
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    with pytest.raises(ValueError):
        format_float(math.nan)


def test_json_dumps_deterministic_and_parsable():
    payload = {"b": [1.5, 2, None, True], "a": {"y": math.inf, "x": "s"}}
    text = json_dumps(payload)
    assert text == json_dumps(dict(reversed(payload.items())))
    doc = json.loads(text)
    assert doc["a"]["y"] == "inf"
    assert doc["b"] == [1.5, 2, None, True]
    with pytest.raises(TypeError):
        json_dumps({"x": object()})
    with pytest.raises(TypeError):
        json_dumps({1: "non-string key"})


def test_points_csv_round_trip_bitwise(tmp_path):
    pts = random_points(2, 40, 7)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts, dim=2)
    back = read_points(path)
    assert np.array_equal(back, pts)
    # and the validated constructor accepts them unchanged
    sc = Scattering(back)
    assert np.array_equal(sc.points, pts)


def test_points_json_round_trip(tmp_path):
    pts = random_points(3, 11, 1)
    path = tmp_path / "pts.json"
    write_points_json(path, pts, dim=3)
    back = read_points(path)
    assert np.array_equal(back, pts)


def test_points_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.1,0.2,0.97\n0.5,oops,0.3\n")
    with pytest.raises(ValueError, match="line 2"):
        read_points(bad)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.1,0.2,0.97\n0.5,0.3\n")
    with pytest.raises(ValueError, match="line 2.*expected 3 columns"):
        read_points(ragged)
    empty = tmp_path / "empty.csv"
    empty.write_text("# d=2\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_points(empty)
    mismatch = tmp_path / "mismatch.csv"
    mismatch.write_text("# d=3\n1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="header says d=3"):
        read_points(mismatch)


def test_points_json_errors(tmp_path):
    path = tmp_path / "pts.json"
    for text, message in (
        ('{"d": 3, "points": [[1.0, 0.0, 0.0]]}', "declared d=3"),
        ("[1, 2]", "JSON object"),
        ('"points"', "JSON object"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_points(path)
        assert str(path) in str(info.value)


def test_measure_json_errors(tmp_path):
    path = tmp_path / "measure.json"
    for text in ("[1, 2]", "3.5"):
        path.write_text(text)
        with pytest.raises(ValueError, match="JSON object") as info:
            read_measure(path)
        assert str(path) in str(info.value)


def test_measure_round_trip(tmp_path):
    m = DiscreteSignedMeasure(random_points(2, 9, 3), np.linspace(-1, 1, 9))
    path = tmp_path / "measure.csv"
    write_measure_csv(path, m)
    back = read_measure(path)
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)


def test_quadrature_measure_writes_as_csv(tmp_path):
    rule = sphere_surface_quadrature(2, 12)
    path = tmp_path / "rule.csv"
    write_measure_csv(path, rule)
    back = read_measure(path)
    assert np.array_equal(back.points, rule.nodes)
    assert np.array_equal(back.weights, rule.weights)
    assert back.mass == rule.mass


def test_measure_json(tmp_path):
    path = tmp_path / "measure.json"
    pts = random_points(2, 4, 5)
    payload = {"d": 2, "points": pts, "weights": [1.0, -2.0, 0.5, 0.25]}
    write_report_json(path, payload)
    m = read_measure(path)
    assert_allclose(m.weights, [1.0, -2.0, 0.5, 0.25], rtol=0)


def test_measure_off_sphere_names_atom(tmp_path):
    path = tmp_path / "off.csv"
    path.write_text("1.0,0.0,0.0,1.0\n0.9,0.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="point 1"):
        read_measure(path)


def test_measure_needs_weight_column(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="at least 4 columns"):
        read_measure(path)


def test_field_round_trip(tmp_path):
    f = random_field(2, 4, 0.3, 13)
    path = tmp_path / "field.json"
    write_field_json(path, f)
    back = read_field(path)
    assert np.array_equal(back.locations, f.locations)
    assert np.array_equal(back.strengths, f.strengths)


def test_field_errors(tmp_path):
    path = tmp_path / "f.json"
    for text, message in (
        ('{"notcharges": []}', "charges"),
        ('{"charges": 5}', "'charges' list"),
        ("[1, 2]", "JSON object"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_field(path)
        assert str(path) in str(info.value)
    path.write_text('{"charges": [{"location": [0, 0, 0]}]}')
    with pytest.raises(ValueError, match="charge 0"):
        read_field(path)
    for text, message in (
        ('{"charges": [{"location": 0.1, "strength": 1}]}', "charge 0 'location'"),
        ('{"charges": [{"location": [], "strength": 1}]}', "charge 0 'location'"),
        ('{"charges": [{"location": [0.1, 0], "strength": 1}]}', "charge 0 'location'"),
        ('{"charges": [{"location": [[0.1, 0, 0]], "strength": 1}]}', "charge 0 'location'"),
        (
            '{"charges": [{"location": [0.1, 0, 0], "strength": 1}, '
            '{"location": [0.1, 0, 0, 0], "strength": 1}]}',
            "charge 1 has 4 coordinates, charge 0 has 3",
        ),
        ('{"d": 2.7, "charges": []}', "'d' must be an integer"),
        ('{"d": true, "charges": []}', "'d' must be an integer"),
        ('{"d": "2", "charges": []}', "'d' must be an integer"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as info:
            read_field(path)
        assert str(path) in str(info.value)
    path.write_text('{"charges": []}')
    with pytest.raises(ValueError, match="explicit 'd'"):
        read_field(path)
    path.write_text('{"charges": [], "d": 2}')
    assert len(read_field(path)) == 0
    path.write_text('{"charges": [], "d": 3.0}')
    assert read_field(path).dim == 3


def test_partition_export(tmp_path):
    part = equal_area_partition(2, 12)
    path = tmp_path / "part.json"
    write_partition_json(path, part)
    doc = json.loads(path.read_text())
    assert doc["n"] == 12 and doc["d"] == 2
    areas = [r["area"] for r in doc["regions"]]
    assert_allclose(areas, 4 * math.pi / 12, rtol=1e-9)
    assert all(len(r["representative"]) == 3 for r in doc["regions"])


def test_profile_and_expansion_csv(tmp_path):
    prof = tmp_path / "profile.csv"
    write_profile_csv(prof, [1.0, -2.5, 3.25])
    lines = prof.read_text().strip().splitlines()
    assert lines[0] == "node_index,value"
    assert lines[2] == "1,-2.5"

    f = make_field([(np.array([0.2, 0.0, 0.0]), 1.0)])
    exp = expand_field(f, 0.5)
    path = tmp_path / "exp.csv"
    write_expansion_csv(path, exp)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "charge_index,l,coefficient"
    assert len(rows) == 2 + exp.truncation
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == exp.coeffs[0][0]


def test_csv_writers_exact_bytes(tmp_path):
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    six, eight = "0.59999999999999998", "0.80000000000000004"
    path = tmp_path / "out.csv"
    cases = [
        (write_points_csv, (pts, 2), f"# d=2\n1,0,0\n0,{six},{eight}\n"),
        (write_points_csv, (pts,), f"1,0,0\n0,{six},{eight}\n"),
        (
            write_measure_csv,
            (DiscreteSignedMeasure(pts, [0.5, -1 / 3]),),
            f"# d=2\n1,0,0,0.5\n0,{six},{eight},-0.33333333333333331\n",
        ),
        (write_profile_csv, ([0.1, -2],), "node_index,value\n0,0.10000000000000001\n1,-2\n"),
        (
            write_scaling_csv,
            ([ScalingRow(16, 0.5, 0.25, 0.1, 2.0), ScalingRow(64, 0.2, 0.1, 0.01, 1.0)],),
            "n,mesh_norm,partition_norm,measured_sup,bound\n"
            "16,0.5,0.25,0.10000000000000001,2\n64,0.20000000000000001,"
            "0.10000000000000001,0.01,1\n",
        ),
    ]
    for writer, args, expected in cases:
        writer(path, *args)
        assert path.read_text() == expected, writer.__name__


def test_file_digest_stable(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("hello\n")
    b = tmp_path / "b.txt"
    b.write_text("hello\n")
    assert file_digest(a) == file_digest(b)
    b.write_text("bye\n")
    assert file_digest(a) != file_digest(b)


def _per_value_json(obj) -> str:
    """JSON as the value-by-value writer wrote it: one format_float per float."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format_float(x)
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(key) + ":" + _per_value_json(obj[key]) for key in sorted(obj)
        ) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(map(_per_value_json, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _per_value_csv(header, rows) -> str:
    lines = [] if header is None else [header]
    lines.extend(",".join(map(format_float, row)) for row in rows)
    return "\n".join(lines) + "\n"


_SPECIAL = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 12.0, -3.0, 2.0**53 + 2, 1e16, 1e17, 0.1, -1 / 3,
    math.inf, -math.inf,
]


def _oracle_arrays():
    rng = np.random.default_rng(28)
    special = np.array(_SPECIAL)
    finite = special[np.isfinite(special)]
    spread = rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60)
    return [
        special, finite, finite.reshape(2, 7), special.reshape(4, 4), special.reshape(2, 2, 4),
        np.empty(0), np.empty((0, 3)), np.empty((3, 0)), spread, spread.reshape(20, 3),
        rng.standard_normal(30).astype(np.float32), np.repeat(finite, 3)[rng.permutation(42)],
        np.arange(-3, 9), np.arange(12).reshape(3, 4), np.array([2**62, -(2**62)]),
    ]


def test_bulk_json_matches_per_value_writer():
    for values in _oracle_arrays():
        assert json_dumps(values) == _per_value_json(values), values
        payload = {"v": values, "rows": [values, {"k": values}]}
        assert json_dumps(payload) == _per_value_json(payload)
    records = np.zeros(5, dtype=[("b", float), ("a", float, 3), ("%c", float)])
    records["a"] = np.array(_SPECIAL[:15]).reshape(5, 3)
    records["b"] = [-0.0, 5e-324, 1.0, 12.0, 0.1]
    as_dicts = [{"b": r[0], "a": r[1].tolist(), "%c": r[2]} for r in records.tolist()]
    assert json_dumps(records) == _per_value_json(as_dicts)
    records["b"][2] = -math.inf
    as_dicts[2]["b"] = -math.inf
    assert json_dumps(records) == _per_value_json(as_dicts)


def test_bulk_csv_matches_per_value_writer(tmp_path):
    path = tmp_path / "t.csv"
    for values in _oracle_arrays():
        if values.ndim != 2:
            continue
        for dim in (None, 2):
            write_points_csv(path, values, dim=dim)
            header = None if dim is None else f"# d={dim}"
            assert path.read_text() == _per_value_csv(header, values.astype(float))
    write_profile_csv(path, _SPECIAL)
    assert path.read_text() == _per_value_csv("node_index,value", enumerate(_SPECIAL))


@pytest.mark.parametrize("shape, at", [((5,), 0), ((5,), 4), ((3, 4), 7), ((3, 4), 11)])
def test_bulk_writers_refuse_nan_anywhere(tmp_path, shape, at):
    values = np.arange(np.prod(shape), dtype=float)
    values[at] = math.nan
    values = values.reshape(shape)
    with pytest.raises(ValueError, match="cannot serialize NaN"):
        json_dumps({"v": values})
    if len(shape) == 2:
        with pytest.raises(ValueError, match="cannot serialize NaN"):
            write_points_csv(tmp_path / "nan.csv", values)


def test_bool_arrays_are_not_json():
    for values in (np.array([True, False]), np.ones((2, 2), dtype=bool)):
        with pytest.raises(TypeError):
            json_dumps(values)


def test_report_json_ends_in_one_newline(tmp_path):
    path = tmp_path / "r.json"
    payload = {"x": np.array([0.1, -0.0]), "n": 3}
    write_report_json(path, payload)
    assert path.read_text() == _per_value_json(payload) + "\n"


def _line_reader(path):
    """Points as the line-by-line CSV reader gave them, or its error message."""
    width, rows = None, []
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
            try:
                row = [float(p) for p in parts]
            except ValueError:
                return f"{path}, line {line_no}: non-numeric entry in {text!r}"
            width = len(row) if width is None else width
            if len(row) != width:
                return f"{path}, line {line_no}: expected {width} columns, found {len(row)}"
            rows.append(row)
    if not rows:
        return f"{path}: no data rows"
    points = np.asarray(rows, dtype=float)
    with open(path) as handle:
        first = handle.readline().strip()
    if first.startswith("#") and "d=" in first:
        try:
            d = int(first.split("d=")[1].split()[0])
        except ValueError:
            return f"{path}, line 1: malformed dimension header {first!r}"
        if points.shape[1] != d + 1:
            return f"{path}: header says d={d} but rows have {points.shape[1]} columns"
    return points


@pytest.mark.parametrize(
    "text",
    [
        "1,0,0\n0,0.6,0.8\n",
        "1;0;0\n0;0.6;0.8\n",
        "1;0,0\n0,0.6;0.8",
        "1,0,0,\n0,0.6,0.8;\n",
        "1,,0,0\n, 0 ,0.6, ,0.8\n",
        "1,0,0\r\n0,0.6,0.8\r\n",
        "1,0,0\r0,0.6,0.8\r",
        "# d=2\n\n1,0,0\n   \n# note, 1\n\t0 , 0.6 ,0.8 \n",
        "1_0,-0,inf\nnan,-INF,１\n",
        "-0.0,5e-324,1e999\n",
        ",\n;\n",
        "# only a comment\n\n",
        "# d=3\n1,0,0\n",
        "# d=x\n1,0,0\n",
        "1,0,0\n# c\n0,x,1\n",
        "1,0,0\n0,0.6\n0,x,1\n",
        "1,0,0\n0,0.6,y\n0,1\n",
        "1,0,0\n\n0,0.6,0.8,1\n",
        "1 0 0\n",
        "0x10,0,0\n",
    ],
)
@pytest.mark.parametrize("block", [1, 2, 1 << 16])
def test_csv_reader_matches_line_reader(tmp_path, monkeypatch, text, block):
    monkeypatch.setattr(fileio, "_CSV_BLOCK", block)
    path = tmp_path / "cloud.csv"
    path.write_bytes(text.encode())
    expected = _line_reader(path)
    try:
        got = read_points(path)
    except ValueError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_csv_measure_reader_matches_line_reader(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("# d=2\n1;0;0;0.5\n\n0, 0.6 ,0.8,,-0.25\r\n")
    m = read_measure(path)
    assert m.points.tobytes() == np.array([[1, 0, 0], [0, 0.6, 0.8]]).tobytes()
    assert m.weights.tobytes() == np.array([0.5, -0.25]).tobytes()
    path.write_text("1,0,0,0.5\n0,0.6,0.8,w\n")
    message = r"m\.csv, line 2: non-numeric entry in '0,0\.6,0\.8,w'"
    with pytest.raises(ValueError, match=message):
        read_measure(path)
    path.write_text("# d=3\n1,0,0,0.5\n")
    with pytest.raises(ValueError, match=r"m\.csv: header says d=3 but rows have 4 columns"):
        read_measure(path)
