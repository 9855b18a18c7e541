"""File formats: point sets, measures, fields, partitions, reports.

Readers dispatch on the file extension (.csv / .json) and report parse
problems with the offending line or atom index.  Writers emit floats with
17 significant digits so every value round-trips to the identical double,
and the JSON writer is fully deterministic: keys are sorted and the float
format is fixed, so equal payloads produce byte-identical files.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .geom import Partition
from .harmonic import FieldExpansion, HarmonicField, make_field
from .measures import DiscreteSignedMeasure

__all__ = [
    "format_float",
    "json_dumps",
    "write_report_json",
    "file_digest",
    "read_points",
    "write_points_csv",
    "write_points_json",
    "read_measure",
    "write_measure_csv",
    "read_field",
    "write_field_json",
    "partition_payload",
    "write_partition_json",
    "write_profile_csv",
    "write_expansion_csv",
    "write_scaling_csv",
]


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any finite double."""
    if math.isnan(x):
        raise ValueError("cannot serialize NaN")
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def json_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, no whitespace drift."""
    pieces = []
    _append_json(obj, pieces)
    return "".join(pieces)


def _append_json(obj, out: list):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(format_float(x))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _append_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _append_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def write_report_json(path, payload: dict) -> None:
    Path(path).write_text(json_dumps(payload) + "\n")


def _write_csv(path, header, rows) -> None:
    """``header`` (if not None), then each row's cells through format_float.

    Integer cells (indices, sizes) come out unchanged, as "12" not "12.0".
    """
    lines = [] if header is None else [header]
    lines.extend(",".join(map(format_float, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def file_digest(path) -> str:
    """Hex SHA-256 of the file contents."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_error(path, line_no: int, message: str) -> ValueError:
    return ValueError(f"{path}, line {line_no}: {message}")


def _csv_rows(path, expected_columns=None):
    """Numeric rows of a CSV file, skipping blank and '#' comment lines.

    Yields (line_number, list-of-floats); enforces a consistent column
    count (the first data row fixes it unless ``expected_columns`` does).
    """
    width = expected_columns
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise _parse_error(path, line_no, f"non-numeric entry in {text!r}")
            if width is None:
                width = len(row)
            if len(row) != width:
                raise _parse_error(
                    path, line_no, f"expected {width} columns, found {len(row)}"
                )
            yield line_no, row


def _csv_header_dim(path) -> int | None:
    with open(path) as handle:
        first = handle.readline().strip()
    if first.startswith("#") and "d=" in first:
        try:
            return int(first.split("d=")[1].split()[0])
        except ValueError:
            raise _parse_error(path, 1, f"malformed dimension header {first!r}")
    return None


def _named(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``, naming ``path`` in any ValueError it raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _json_object(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return doc


def _json_floats(path: Path, doc: dict, key: str) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"{path}: missing '{key}'")
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: '{key}' must hold numbers") from None


def _json_dim(path: Path, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{path}: 'd' must be an integer, got {value!r}")
    return value


def read_points(path) -> np.ndarray:
    """Point rows from a CSV (d+1 columns) or JSON {"d":…, "points":…} file."""
    path = Path(path)
    if path.suffix == ".json":
        doc = _json_object(path)
        points = _json_floats(path, doc, "points")
        if points.ndim != 2:
            raise ValueError(f"{path}: points must be a list of coordinate rows")
        d = _json_dim(path, doc.get("d", points.shape[1] - 1))
        if points.shape[1] != d + 1:
            raise ValueError(
                f"{path}: declared d={d} but rows have {points.shape[1]} "
                f"coordinates"
            )
        return points
    rows = [row for _, row in _csv_rows(path)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    points = np.asarray(rows, dtype=float)
    d = _csv_header_dim(path)
    if d is not None and points.shape[1] != d + 1:
        raise ValueError(
            f"{path}: header says d={d} but rows have {points.shape[1]} columns"
        )
    return points


def write_points_csv(path, points, dim: int | None = None) -> None:
    points = np.asarray(points, dtype=float)
    _write_csv(path, None if dim is None else f"# d={dim}", points)


def write_points_json(path, points, dim: int) -> None:
    points = np.asarray(points, dtype=float)
    write_report_json(path, {"d": dim, "points": points})


def read_measure(path) -> DiscreteSignedMeasure:
    """Signed atomic measure from CSV rows x_0,…,x_d,weight or JSON."""
    path = Path(path)
    if path.suffix == ".json":
        doc = _json_object(path)
        points = _json_floats(path, doc, "points")
        weights = _json_floats(path, doc, "weights")
        return _named(path, DiscreteSignedMeasure, points, weights, label=str(path))
    rows = [row for _, row in _csv_rows(path)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    if table.shape[1] < 4:
        raise ValueError(
            f"{path}: measure rows need at least 4 columns "
            f"(x_0,…,x_d,weight), found {table.shape[1]}"
        )
    points, weights = table[:, :-1], table[:, -1]
    return _named(path, DiscreteSignedMeasure, points, weights, label=str(path))


def write_measure_csv(path, measure) -> None:
    """Write a signed or quadrature measure as CSV rows x_0,…,x_d,weight."""
    support = measure.points if hasattr(measure, "points") else measure.nodes
    _write_csv(path, f"# d={measure.dim}", np.column_stack([support, measure.weights]))


def read_field(path) -> HarmonicField:
    """Charge list from JSON {"charges": [{"location": […], "strength": w}]}."""
    path = Path(path)
    doc = _json_object(path)
    if not isinstance(doc.get("charges"), list):
        raise ValueError(f"{path}: expected a JSON object with a 'charges' list")
    charges = []
    for i, entry in enumerate(doc["charges"]):
        try:
            location = np.asarray(entry["location"], dtype=float)
            strength = float(entry["strength"])
        except (KeyError, TypeError, ValueError):
            raise ValueError(
                f"{path}: charge {i} needs a numeric 'location' list and a "
                f"'strength'"
            )
        if location.ndim != 1 or len(location) < 3:
            raise ValueError(
                f"{path}: charge {i} 'location' must be a flat list of at least "
                f"3 coordinates"
            )
        if charges and len(location) != len(charges[0][0]):
            raise ValueError(
                f"{path}: charge {i} has {len(location)} coordinates, charge 0 "
                f"has {len(charges[0][0])}"
            )
        charges.append((location, strength))
    dim = doc.get("d")
    if not charges and dim is None:
        raise ValueError(f"{path}: empty charge list requires an explicit 'd'")
    dim = _json_dim(path, dim) if dim is not None else None
    return _named(path, make_field, charges, dim=dim)


def write_field_json(path, field: HarmonicField) -> None:
    payload = {
        "d": field.dim,
        "charges": [
            {"location": loc, "strength": s}
            for loc, s in zip(field.locations, field.strengths)
        ],
    }
    write_report_json(path, payload)


def partition_payload(partition: Partition) -> dict:
    return {
        "d": partition.dim,
        "n": partition.size,
        "regions": [
            {"area": a, "diameter": dm, "representative": rep}
            for a, dm, rep in zip(
                partition.areas.tolist(),
                partition.diameters.tolist(),
                partition.reps.tolist(),
            )
        ],
    }


def write_partition_json(path, partition: Partition) -> None:
    write_report_json(path, partition_payload(partition))


def write_profile_csv(path, values) -> None:
    _write_csv(path, "node_index,value", enumerate(np.asarray(values, dtype=float)))


def write_expansion_csv(path, expansion: FieldExpansion) -> None:
    coeffs = expansion.coeffs
    rows = ((k, l, c) for k, row in enumerate(coeffs) for l, c in enumerate(row))
    _write_csv(path, "charge_index,l,coefficient", rows)


def write_scaling_csv(path, rows) -> None:
    """Scaling-study rows (``ScalingRow``) as CSV, one line per size n."""
    columns = ("n", "mesh_norm", "partition_norm", "measured_sup", "bound")
    table = ([getattr(row, c) for c in columns] for row in rows)
    _write_csv(path, ",".join(columns), table)
