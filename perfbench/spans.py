"""Outside-in span tracing of the spherekh modules.

The tracer wraps public functions of the package from the benchmark's own
code: every module binding of a listed function (and the ``region_index``
methods of the partition classes) is replaced by a wrapper that records a
span with a name, start, end, parent span and operation id.  Spans stay in
memory; ``self_times`` turns them into per-name self time, which is a
span's duration minus the part of it that its child spans cover.  Work
counts are taken only at the outermost call of a name, so recursive
functions (``equal_area_partition``, ``region_index``) count once.

Wrappers are installed only inside ``Tracer.installed()``; outside it the
package runs unmodified, which is how the end-to-end numbers are taken.
"""

import functools
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, defining module, function names); the span name is also the
# metric prefix of the per-layer table
GROUPS = (
    ("cli.main", "cli", ("main",)),
    ("fileio.read", "fileio", ("read_points", "read_measure", "read_field", "file_digest")),
    ("fileio.write", "fileio", (
        "json_dumps", "write_report_json", "write_partition_json", "partition_payload",
    )),
    ("discrepancy.kh_identity", "discrepancy", ("kh_identity",)),
    ("discrepancy.duality_bound", "discrepancy", ("duality_bound",)),
    ("discrepancy.partition_rule_bound", "discrepancy", ("partition_rule_bound",)),
    ("discrepancy.reduction_pipeline", "discrepancy", ("reduction_pipeline",)),
    ("discrepancy.scaling_study", "discrepancy", ("scaling_study",)),
    ("discrepancy.difference_measure", "discrepancy", ("difference_measure",)),
    ("harmonic.field_values", "harmonic", ("field_values",)),
    ("harmonic.expand_field", "harmonic", ("expand_field",)),
    ("harmonic.apply_D_values", "harmonic", ("apply_D_values",)),
    ("harmonic.sobolev_norm", "harmonic", ("sobolev_norm",)),
    ("harmonic.embedding_constants", "harmonic", ("embedding_constants",)),
    ("harmonic.lipschitz_constant", "harmonic", ("lipschitz_constant",)),
    ("harmonic.lipschitz_check", "harmonic", ("lipschitz_check",)),
    ("specfun.legendre_table", "specfun", ("legendre_table",)),
    ("specfun.latitude_quadrature", "specfun", ("latitude_quadrature",)),
    ("specfun.truncation_degree", "specfun", ("truncation_degree",)),
    ("measures.potential_values", "measures", ("potential_values",)),
    ("measures.sphere_surface_quadrature", "measures", ("sphere_surface_quadrature",)),
    ("measures.shell_norm", "measures", ("shell_norm",)),
    ("geom.equal_area_partition", "geom", ("equal_area_partition",)),
    ("geom.partition_accessors", "geom", ("representatives", "partition_norm")),
    ("geom.mesh_norm", "geom", ("mesh_norm",)),
    ("geom.reduce_scattering", "geom", ("reduce_scattering",)),
    ("geom.match_partition_to_scattering", "geom", ("match_partition_to_scattering",)),
)
REGION_INDEX = "geom.region_index"
SCATTERING = "geom.Scattering"
OP = "op"

# per-layer count metrics, in the order they are reported
COUNT_METRICS = (
    ("fileio.read.bytes", "bytes"),
    ("fileio.write.bytes", "bytes"),
    ("discrepancy.difference_measure.atoms", "count"),
    ("harmonic.expand_field.truncation_max", "count"),
    ("harmonic.apply_D_values.terms", "count"),
    ("harmonic.constants.raised", "count"),
    ("specfun.legendre_table.values", "count"),
    ("measures.potential_values.pairs", "count"),
    ("measures.sphere_surface_quadrature.nodes", "count"),
    ("geom.equal_area_partition.calls", "count"),
    ("geom.equal_area_partition.cells", "count"),
    ("geom.region_index.points", "count"),
    ("geom.mesh_norm.sample_pairs", "count"),
    ("geom.reduce_scattering.partitions_built", "count"),
    ("geom.reduce_scattering.kept_share", "ratio"),
)
# counts that are maxima or ratios rather than per-cycle sums
_NOT_SUMMED = {"harmonic.expand_field.truncation_max", "geom.reduce_scattering.kept_share"}


def span_names() -> list:
    return [name for name, _, _ in GROUPS] + [REGION_INDEX, SCATTERING]


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.span_id] = (s.end - s.start) - covered
    return out


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self.pkg = package
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack: list[int] = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self._counters = {
            "fileio.read": self._count_read,
            "fileio.write": self._count_write,
            "discrepancy.difference_measure": self._count_difference,
            "harmonic.expand_field": self._count_expand,
            "harmonic.apply_D_values": self._count_apply_d,
            "harmonic.embedding_constants": self._count_raised,
            "harmonic.lipschitz_constant": self._count_raised,
            "specfun.legendre_table": self._count_legendre,
            "measures.potential_values": self._count_potential,
            "measures.sphere_surface_quadrature": self._count_quadrature,
            "geom.equal_area_partition": self._count_partition,
            REGION_INDEX: self._count_region_index,
            "geom.mesh_norm": self._count_mesh_norm,
            "geom.reduce_scattering": self._count_reduce,
        }

    # ---------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (used for whole operations)."""
        sid, parent, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(sid, name, parent, start)

    def _enter(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._depth[name] += 1
        return sid, parent, time.perf_counter()

    def _exit(self, sid, name, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self._depth[name] -= 1
        self.spans.append(Span(sid, name, start, end, parent, self.op_id))

    def _call(self, name, func, args, kwargs):
        outermost = self._depth[name] == 0
        sid, parent, start = self._enter(name)
        result = exc = None
        try:
            result = func(*args, **kwargs)
            return result
        except Exception as error:
            exc = error
            raise
        finally:
            self._exit(sid, name, parent, start)
            counter = self._counters.get(name)
            if counter is not None and outermost:
                counter(args, kwargs, result, exc)

    def _wrapper(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self._call(name, func, args, kwargs)

        return wrapper

    # ---------------------------------------------------------- counters

    def _count_read(self, args, kwargs, result, exc):
        self.counts["fileio.read.bytes"] += _size(_arg(args, kwargs, 0, "path"))

    def _count_write(self, args, kwargs, result, exc):
        if isinstance(result, str):
            self.counts["fileio.write.bytes"] += len(result.encode())
        elif result is None and exc is None:
            self.counts["fileio.write.bytes"] += _size(_arg(args, kwargs, 0, "path"))

    def _count_difference(self, args, kwargs, result, exc):
        mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
        self.counts["discrepancy.difference_measure.atoms"] += len(mu.nodes) + len(nu.points)

    def _count_expand(self, args, kwargs, result, exc):
        if result is not None:
            key = "harmonic.expand_field.truncation_max"
            self.counts[key] = max(self.counts[key], result.truncation)

    def _count_apply_d(self, args, kwargs, result, exc):
        expansion = _arg(args, kwargs, 0, "expansion")
        if result is not None:
            self.counts["harmonic.apply_D_values.terms"] += (
                expansion.charge_count * (expansion.truncation + 1) * len(result)
            )

    def _count_raised(self, args, kwargs, result, exc):
        if isinstance(exc, ValueError):
            self.counts["harmonic.constants.raised"] += 1

    def _count_legendre(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["specfun.legendre_table.values"] += result.size

    def _count_potential(self, args, kwargs, result, exc):
        measure = _arg(args, kwargs, 0, "measure")
        atoms = getattr(measure, "points", None)
        if atoms is None:
            atoms = measure.nodes
        if result is not None:
            self.counts["measures.potential_values.pairs"] += len(atoms) * len(result)

    def _count_quadrature(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["measures.sphere_surface_quadrature.nodes"] += len(result.nodes)

    def _count_partition(self, args, kwargs, result, exc):
        self.counts["geom.equal_area_partition.calls"] += 1
        self.counts["geom.equal_area_partition.cells"] += int(_arg(args, kwargs, 1, "n"))
        if self._depth["geom.reduce_scattering"] > 0:
            self.counts["geom.reduce_scattering.partitions_built"] += 1

    def _count_region_index(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["geom.region_index.points"] += len(result)

    def _count_mesh_norm(self, args, kwargs, result, exc):
        scattering = _arg(args, kwargs, 0, "scattering")
        resolution = _arg(args, kwargs, 1, "resolution")
        res = int(resolution) if resolution is not None else 16 * len(scattering)
        self.counts["geom.mesh_norm.sample_pairs"] += res * len(scattering)

    def _count_reduce(self, args, kwargs, result, exc):
        if result is not None:
            self.counts["geom.reduce_scattering.kept"] += len(result.scattering)
            self.counts["geom.reduce_scattering.input"] += len(_arg(args, kwargs, 0, "scattering"))

    # ---------------------------------------------------------- installing

    def _bindings(self):
        """(owner, attribute, span name, original) for every binding to wrap."""
        modules = [self.pkg] + [getattr(self.pkg, m) for m in (
            "specfun", "geom", "measures", "harmonic", "discrepancy", "fileio", "cli",
        )]
        out = []
        for name, home, funcs in GROUPS:
            for fname in funcs:
                original = getattr(getattr(self.pkg, home), fname)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        out.append((mod, fname, name, original))
        geom = self.pkg.geom
        for cls in vars(geom).values():
            if (isinstance(cls, type) and issubclass(cls, geom.Partition)
                    and cls is not geom.Partition and "region_index" in vars(cls)):
                out.append((cls, "region_index", REGION_INDEX, vars(cls)["region_index"]))
        out.append((geom.Scattering, "__post_init__", SCATTERING,
                    vars(geom.Scattering)["__post_init__"]))
        return out

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block, then restore."""
        bindings = self._bindings()
        wrappers = {}
        try:
            for owner, attr, name, original in bindings:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrapper(name, original)
                setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, _, original in bindings:
                setattr(owner, attr, original)

    # ---------------------------------------------------------- summary

    def layer_table(self, cycles: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per workload cycle, plus the trace overhead."""
        selfs = self_times(self.spans)
        per_name = defaultdict(float)
        for s in self.spans:
            per_name[s.name] += selfs[s.span_id]
        table = {f"{name}.self_s": (per_name[name] / cycles, "s") for name in span_names()}
        for key, unit in COUNT_METRICS:
            value = self.counts[key]
            table[key] = (value if key in _NOT_SUMMED else value / cycles, unit)
        kept, given = (self.counts["geom.reduce_scattering.kept"],
                       self.counts["geom.reduce_scattering.input"])
        table["geom.reduce_scattering.kept_share"] = (kept / given if given else 0.0, "ratio")
        table["unattributed_s"] = (per_name[OP] / cycles, "s")
        overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else math.nan
        table["trace_overhead_share"] = (overhead, "ratio")
        return table


# which end-to-end metric, on which workload, each layer metric should move
LAYER_MAP = {
    "cli.main": "op_latency_p50_s on identity",
    "fileio.read": "op_latency_p50_s on reduction; not identity",
    "fileio.write": "op_latency_p50_s and peak_rss_mb on partition; not identity",
    "discrepancy.kh_identity": "op_latency_p50_s on identity",
    "discrepancy.duality_bound": "op_latency_p50_s on identity",
    "discrepancy.partition_rule_bound": "op_latency_p50_s on partition (thm4a) and reduction",
    "discrepancy.reduction_pipeline": "op_latency_p50_s on reduction",
    "discrepancy.scaling_study": "op_latency_p50_s on reduction",
    "discrepancy.difference_measure": "op_latency_tail_s on identity (corollary3)",
    "harmonic.field_values": "op_latency_p50_s on identity",
    "harmonic.expand_field": "op_latency_p50_s on identity",
    "harmonic.apply_D_values": "op_latency_p50_s on identity",
    "harmonic.sobolev_norm": "op_latency_p50_s, op_latency_tail_s, answered_share on recovery",
    "harmonic.embedding_constants": "op_latency_p50_s, op_latency_tail_s, answered_share on recovery",
    "harmonic.lipschitz_constant": "op_latency_p50_s, op_latency_tail_s, answered_share on recovery",
    "harmonic.lipschitz_check": "op_latency_p50_s, op_latency_tail_s, answered_share on recovery",
    "harmonic.constants": "answered_share on recovery",
    "specfun.legendre_table": "op_latency_p50_s on identity",
    "specfun.latitude_quadrature": "op_latency_p50_s on identity",
    "specfun.truncation_degree": "op_latency_p50_s on identity",
    "measures.potential_values": (
        "op_latency_p50_s on identity, op_latency_tail_s on partition (d=3 thm4a), "
        "probe phase of reduction"
    ),
    "measures.sphere_surface_quadrature": "op_latency_p50_s on identity",
    "measures.shell_norm": "op_latency_p50_s on identity",
    "geom.equal_area_partition": (
        "op_latency_p50_s on partition and reduction, peak_rss_mb on partition"
    ),
    "geom.partition_accessors": "op_latency_p50_s on partition and reduction",
    "geom.region_index": "op_latency_p50_s on partition (thm4a) and reduction",
    "geom.mesh_norm": "op_latency_p50_s on reduction only",
    "geom.reduce_scattering": "op_latency_p50_s on reduction only",
    "geom.Scattering": "op_latency_p50_s on reduction and partition",
    "geom.match_partition_to_scattering": "op_latency_p50_s on reduction and partition",
}
