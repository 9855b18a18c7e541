"""Correctness checks for every benchmark operation.

Each check returns ``None`` when the operation's output is right and a
short reason otherwise.  CLI reports are checked from the bytes the
command wrote; recovery results from the dictionary the call set built.
"""

import json
import math
import re

from perfbench.gen import sphere_area

_SERIES_REFUSAL = "series converges too slowly"
_PARTITION_HEAD = re.compile(rb'^\{"d":(\d+),"n":(\d+),"regions":\[')
_AREA = re.compile(rb'"area":([^,}]+)')


def is_series_refusal(exc: BaseException) -> bool:
    """The recovery constants' documented refusal to certify a slow series."""
    return isinstance(exc, ValueError) and str(exc).startswith(_SERIES_REFUSAL)


def check_cli(params: dict, expect_exit: int, code, data: bytes) -> str | None:
    """Check one CLI operation from its exit code and written report."""
    if code != expect_exit:
        return f"exit code {code}, expected {expect_exit}"
    command = params["command"]
    if command == "partition":
        return check_partition_export(params, data)
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if doc.get("command") != command:
        return f"report is for {doc.get('command')!r}, expected {command!r}"
    if command == "thm4b" and params.get("gate_reject"):
        if doc.get("failure") != "GateConditionError":
            return f"expected a GateConditionError report, got {doc.get('failure')!r}"
        return None
    result = doc.get("result")
    if not isinstance(result, dict):
        return "report has no result"
    return _RESULT_CHECKS[command](params, result)


def _check_identity(params, result):
    if not result["relative"] <= params["tol"]:
        return f"relative residual {result['relative']!r} above tol {params['tol']!r}"
    return None


def _check_bound(params, result):
    for key in ("slack", "slack_sharp"):
        if not result[key] >= 0.0:
            return f"{key} {result[key]!r} is negative"
    return None


def _check_thm4b(params, result):
    if result.get("within_epsilon") is not True:
        return "within_epsilon is not true"
    if not result["measured_sup"] <= result["bound"]:
        return f"measured_sup {result['measured_sup']!r} above bound {result['bound']!r}"
    lower, upper = result["mesh_norm_interval"]
    if not lower <= upper:
        return f"mesh-norm interval [{lower!r}, {upper!r}] is empty"
    return None


def _check_thm4a(params, result):
    if not result["measured_sup"] <= result["bound"]:
        return f"measured_sup {result['measured_sup']!r} above bound {result['bound']!r}"
    return None


def _check_meshnorm(params, result):
    if result["count"] != params["n"]:
        return f"count {result['count']} differs from the {params['n']} input points"
    if not 0.0 < result["lower"] <= result["upper"]:
        return f"mesh-norm interval [{result['lower']!r}, {result['upper']!r}] is invalid"
    return None


def _check_scaling(params, result):
    rows = result.get("rows", [])
    if len(rows) != 3:
        return f"scaling study has {len(rows)} rows, expected 3"
    for row in rows:
        if not row["measured_sup"] <= row["bound"]:
            return f"n={row['n']}: measured_sup above bound"
    return None


_RESULT_CHECKS = {
    "verify-identity": _check_identity,
    "bound": _check_bound,
    "corollary3": _check_bound,
    "thm4b": _check_thm4b,
    "thm4a": _check_thm4a,
    "meshnorm": _check_meshnorm,
    "scaling": _check_scaling,
}


def check_partition_export(params: dict, data: bytes) -> str | None:
    """n regions whose areas sum to |S^d| within 1e-9 relative.

    Reads the export with two regular expressions instead of a JSON parse,
    so checking a 10^5-region file adds little to the process's peak memory.
    """
    head = _PARTITION_HEAD.match(data)
    if head is None:
        return "partition export does not start with d, n and regions"
    d, n = int(head.group(1)), int(head.group(2))
    if d != params["d"] or n != params["n"]:
        return f"export is for d={d}, n={n}; expected d={params['d']}, n={params['n']}"
    areas = [float(a) for a in _AREA.findall(data)]
    if len(areas) != n:
        return f"export has {len(areas)} regions, expected {n}"
    total, expected = math.fsum(areas), sphere_area(d)
    if not abs(total - expected) <= 1e-9 * expected:
        return f"region areas sum to {total!r}, expected {expected!r}"
    return None


def check_recovery(result: dict) -> str | None:
    """Finite positive constants, and the Lipschitz quotient under its bound."""
    for key in ("sobolev_norm", "c_star", "c_star_star"):
        value = result[key]
        if not (math.isfinite(value) and value > 0.0):
            return f"{key} = {value!r} is not finite and positive"
    lip = result.get("lipschitz")
    if lip is not None:
        for key in ("constant", "bound"):
            if not (math.isfinite(lip[key]) and lip[key] > 0.0):
                return f"lipschitz {key} = {lip[key]!r} is not finite and positive"
        if not lip["max_ratio"] <= lip["bound"]:
            return f"max_ratio {lip['max_ratio']!r} above bound {lip['bound']!r}"
    return None
