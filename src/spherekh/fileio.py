"""File formats: point sets, measures, fields, partitions, reports.

Readers dispatch on the file extension (.csv / .json) and report parse
problems with the offending line or atom index; a CSV file is parsed whole
in one conversion, and its lines are walked one by one only to name a
fault.  Writers emit floats with 17 significant digits so every value
round-trips to the identical double, and the JSON writer is fully
deterministic: keys are sorted and the float format is fixed, so equal
payloads produce byte-identical files.  Float arrays, CSV tables and
partition regions are written whole, through one row template per array
filled in a single ``%``, with the same bytes a value-by-value writer gives.
"""

import hashlib
import json
import math
from itertools import compress
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


def _fill(row: str, sep: str, table: np.ndarray) -> str:
    """``row`` once per row of ``table``, joined by ``sep``, in one ``%``.

    The ``%s`` slots of the copies take the table's values in order, each
    as ``format_float`` writes it (``table`` holds no NaN).  Each distinct
    bit pattern is formatted once, so ``-0.0`` and ``0.0`` stay apart.
    """
    values = np.ascontiguousarray(table, dtype=float).ravel()
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(["%.17g" % x for x in bits.view(float).tolist()], dtype=object)
    return sep.join([row] * len(table)) % tuple(texts[where].tolist())


def _slots(count: int) -> str:
    return ",".join(["%s"] * count)


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
    elif isinstance(obj, np.ndarray) and obj.dtype.names is not None:
        _append_records(obj, out)
    elif (
        isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2)
        and np.isfinite(obj).all()
    ):
        row = "%s" if obj.ndim == 1 else "[" + _slots(obj.shape[1]) + "]"
        out.append("[" + _fill(row, ",", obj) + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _append_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _append_records(records: np.ndarray, out: list):
    """A structured array as a list of objects, one per record, keys sorted.

    Finite float fields, each a scalar or a flat subarray, go through one
    row template; any other record array is written value by value.
    """
    names = sorted(records.dtype.names)
    fields = [records.dtype[name] for name in names]
    if names and all(f.base.kind == "f" and f.ndim <= 1 for f in fields):
        table = np.column_stack([
            records[name].reshape(len(records), math.prod(f.shape))
            for name, f in zip(names, fields)
        ])
        if np.isfinite(table).all():
            row = ",".join(
                json.dumps(name).replace("%", "%%") + ":"
                + ("%s" if f.ndim == 0 else "[" + _slots(f.shape[0]) + "]")
                for name, f in zip(names, fields)
            )
            out.append("[" + _fill("{" + row + "}", ",", table) + "]")
            return
    _append_json([dict(zip(records.dtype.names, r)) for r in records.tolist()], out)


def write_report_json(path, payload: dict) -> None:
    text = json_dumps(payload)
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")


def _write_csv(path, header, table) -> None:
    """``header`` (if not None), then one line per row of the 2-D ``table``.

    Cells are written as format_float writes them: integer cells (indices,
    sizes) come out as "12" not "12.0", and infinities as "inf".
    """
    table = np.asarray(table, dtype=float)
    if np.isnan(table).any():
        raise ValueError("cannot serialize NaN")
    lines = [] if header is None else [header]
    if len(table):
        lines.append(_fill(_slots(table.shape[1]), "\n", table))
    Path(path).write_text("\n".join(lines) + "\n")


def file_digest(path) -> str:
    """Hex SHA-256 of the file contents."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _parse_error(path, line_no: int, message: str) -> ValueError:
    return ValueError(f"{path}, line {line_no}: {message}")


def _csv_table(path) -> tuple[np.ndarray, int | None]:
    """The numeric rows of a CSV file as one (rows, columns) float array,
    and the d of a '# d=' first line, or None without one.

    Blank and '#' comment lines are skipped, ';' separates cells as ','
    does, and empty cells are dropped.  Every row must have as many cells
    as the first.  The rows are converted with ``float`` in blocks of
    ``_CSV_BLOCK`` lines, which bounds the cell strings held at once; if
    that fails, ``_name_csv_fault`` walks the lines to name the fault.  A
    file without rows has no d.
    """
    try:
        with open(path) as handle:
            first = handle.readline().strip()
            handle.seek(0)
            lines = handle.read().replace(";", ",").split("\n")
        lines = [t for t in map(str.strip, lines) if t and t[0] != "#"]
        if not lines:
            return np.empty((0, 0)), None
        blocks = [
            _csv_block(lines[i:i + _CSV_BLOCK]) for i in range(0, len(lines), _CSV_BLOCK)
        ]
        widths = np.concatenate([w for _, w in blocks])
        if (widths != widths[0]).any():
            raise ValueError("ragged rows")
        table = np.concatenate([v for v, _ in blocks]).reshape(len(lines), widths[0])
    except ValueError:
        _name_csv_fault(path)
        raise
    if not (first.startswith("#") and "d=" in first):
        return table, None
    try:
        return table, int(first.split("d=")[1].split()[0])
    except ValueError:
        raise _parse_error(path, 1, f"malformed dimension header {first!r}") from None


_CSV_BLOCK = 1 << 16


def _csv_block(lines: list) -> tuple[np.ndarray, np.ndarray]:
    """(cell values, cells per line) of stripped ','-separated data lines."""
    cells = ",".join(lines).split(",")
    widths = np.array([t.count(",") + 1 for t in lines])
    filled = np.fromiter(map(bool, map(str.strip, cells)), bool, len(cells))
    if not filled.all():
        widths = np.add.reduceat(filled.astype(int), np.cumsum(widths) - widths)
        cells = list(compress(cells, filled))
    return np.fromiter(map(float, cells), float, len(cells)), widths


def _name_csv_fault(path) -> None:
    """Raise the first fault of a CSV file, naming its line, if it has one."""
    width = None
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


def _read_atoms(path, weighted: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Coordinate rows, and the weights if ``weighted``, of a point or measure file.

    JSON holds "points" (and "weights") and may declare "d"; CSV rows are
    x_0,…,x_d (then the weight) and may follow a '# d=' header.  A declared
    d must match the coordinates of the rows.
    """
    path = Path(path)
    if path.suffix == ".json":
        doc = _json_object(path)
        points = _json_floats(path, doc, "points")
        weights = _json_floats(path, doc, "weights") if weighted else None
        if points.ndim != 2:
            raise ValueError(f"{path}: points must be a list of coordinate rows")
        d = _json_dim(path, doc.get("d", points.shape[1] - 1))
        if points.shape[1] != d + 1:
            raise ValueError(
                f"{path}: declared d={d} but rows have {points.shape[1]} "
                f"coordinates"
            )
        return points, weights
    table, d = _csv_table(path)
    if not len(table):
        raise ValueError(f"{path}: no data rows")
    if weighted and table.shape[1] < 4:
        raise ValueError(
            f"{path}: measure rows need at least 4 columns "
            f"(x_0,…,x_d,weight), found {table.shape[1]}"
        )
    points, weights = (table[:, :-1], table[:, -1]) if weighted else (table, None)
    if d is not None and points.shape[1] != d + 1:
        raise ValueError(
            f"{path}: header says d={d} but rows have {table.shape[1]} columns"
        )
    return points, weights


def read_points(path) -> np.ndarray:
    """Point rows from a CSV (d+1 columns) or JSON {"d":…, "points":…} file."""
    return _read_atoms(path, weighted=False)[0]


def write_points_csv(path, points, dim: int | None = None) -> None:
    points = np.asarray(points, dtype=float)
    _write_csv(path, None if dim is None else f"# d={dim}", points)


def write_points_json(path, points, dim: int) -> None:
    points = np.asarray(points, dtype=float)
    write_report_json(path, {"d": dim, "points": points})


def read_measure(path) -> DiscreteSignedMeasure:
    """Signed atomic measure from CSV rows x_0,…,x_d,weight or JSON."""
    points, weights = _read_atoms(path, weighted=True)
    return _named(Path(path), DiscreteSignedMeasure, points, weights)


def write_measure_csv(path, measure: DiscreteSignedMeasure) -> None:
    """Write a measure as CSV rows x_0,…,x_d,weight."""
    table = np.column_stack([measure.points, measure.weights])
    _write_csv(path, f"# d={measure.dim}", table)


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
    """The partition as a report: ``regions`` holds one record per cell."""
    regions = np.empty(partition.size, dtype=[
        ("area", float), ("diameter", float), ("representative", float, partition.dim + 1),
    ])
    regions["area"] = partition.areas
    regions["diameter"] = partition.diameters
    regions["representative"] = partition.reps
    return {"d": partition.dim, "n": partition.size, "regions": regions}


def write_partition_json(path, partition: Partition) -> None:
    write_report_json(path, partition_payload(partition))


def write_profile_csv(path, values) -> None:
    values = np.asarray(values, dtype=float)
    _write_csv(path, "node_index,value", np.column_stack([np.arange(len(values)), values]))


def write_expansion_csv(path, expansion: FieldExpansion) -> None:
    coeffs = expansion.coeffs
    k, l = np.indices(coeffs.shape)
    table = np.column_stack([k.ravel(), l.ravel(), coeffs.ravel()])
    _write_csv(path, "charge_index,l,coefficient", table)


def write_scaling_csv(path, rows) -> None:
    """Scaling-study rows (``ScalingRow``) as CSV, one line per size n."""
    columns = ("n", "mesh_norm", "partition_norm", "measured_sup", "bound")
    table = [[getattr(row, c) for c in columns] for row in rows]
    _write_csv(path, ",".join(columns), np.reshape(table, (-1, len(columns))))
