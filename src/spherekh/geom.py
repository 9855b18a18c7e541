"""Point scatterings and equal-area partitions on the unit d-sphere.

The partition construction is the recursive zonal one: two polar caps plus
collars split into equal-area sub-regions of a lower-dimensional sphere.
Band boundaries come from inverting the cap-area function exactly, so all
regions have area ``surface_area(d) / n`` up to inverse-function roundoff.
Cell diameters are exact: the chord maximum over a band times a sub-region
is attained at a band corner, at the equator crossing, or at an interior
critical latitude, and all three candidate families are enumerated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import betainc, betaincinv

from .specfun import surface_area

__all__ = [
    "Scattering",
    "Partition",
    "MeshNormEstimate",
    "ReductionResult",
    "PartitionMatchError",
    "random_points",
    "equal_area_partition",
    "partition_norm",
    "representatives",
    "match_partition_to_scattering",
    "mesh_norm",
    "reduce_scattering",
]

# points further than this from the sphere are treated as data errors,
# anything closer is renormalized silently
_UNIT_TOL = 1e-6
_MIN_SEPARATION = 1e-9


class PartitionMatchError(ValueError):
    """A partition and a scattering fail the one-point-per-region pairing."""


def random_points(dim: int, count: int, rng) -> np.ndarray:
    """Draw ``count`` independent uniform points on S^dim.

    ``rng`` is a numpy Generator or a seed for one.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    pts = rng.normal(size=(count, dim + 1))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms < 1e-8):
        bad = norms < 1e-8
        pts[bad] = rng.normal(size=(int(bad.sum()), dim + 1))
        norms = np.linalg.norm(pts, axis=1)
    return pts / norms[:, None]


def _validated_sphere_points(points, what: str) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 3:
        raise ValueError(f"{what} must be a 2-D array of points in R^(d+1) with d >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite coordinates")
    norms = np.linalg.norm(arr, axis=1)
    off = np.abs(norms - 1.0)
    worst = int(np.argmax(off))
    if off[worst] > _UNIT_TOL:
        raise ValueError(
            f"{what}: point {worst} lies off the unit sphere "
            f"(|x| = {norms[worst]:.9g})"
        )
    # dividing by a norm that is already 1 to machine precision would
    # still flip low bits; skipping it makes re-validation idempotent
    scale = np.where(off <= 64 * np.finfo(float).eps, 1.0, norms)
    return arr / scale[:, None]


def _thread_count() -> int:
    """Worker count of kernel sums and KD-tree queries: the usable CPUs.

    ``taskset`` or a cgroup CPU set narrows the count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class Scattering:
    """A finite set of pairwise distinct points on S^dim.

    Points within 1e-6 of unit length are renormalized on construction;
    anything further off the sphere, and any coincident pair, is rejected.
    """

    points: np.ndarray

    def __post_init__(self):
        self.points = _validated_sphere_points(self.points, "scattering")
        if len(self.points) == 0:
            raise ValueError("scattering must contain at least one point")
        pairs = self.tree.query_pairs(_MIN_SEPARATION, output_type="ndarray")
        if len(pairs):
            # name the closest pair, the lowest one on a tie
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
            diff = self.points[pairs[:, 0]] - self.points[pairs[:, 1]]
            gaps = np.linalg.norm(diff, axis=1)
            c = int(np.argmin(gaps))
            raise ValueError(
                f"scattering points {pairs[c, 0]} and {pairs[c, 1]} coincide "
                f"(separation {gaps[c]:.3g})"
            )

    @classmethod
    def _subset(cls, scattering: Scattering, index) -> Scattering:
        """The points ``scattering.points[index]``, wrapped without re-validation.

        A subset of a validated scattering is on the sphere and pairwise
        distinct already.
        """
        subset = cls.__new__(cls)
        subset.points = scattering.points[index]
        return subset

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the points, built on first use and kept."""
        return cKDTree(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1] - 1

    def __len__(self) -> int:
        return len(self.points)


@dataclass(eq=False)
class Partition:
    """A partition of S^dim: per-cell arrays plus the zonal layout they index.

    Per-cell ``areas`` and ``diameters`` of shape (n,); ``reps`` of shape
    (n, dim + 1) holds a point inside each cell.  The layout is recursive:
    ``bounds`` holds the lower latitude of each band, north to south and
    ending at -1, and ``counts`` the number of cells in each band.  On S^2
    a band splits into equal arcs; on S^dim for dim >= 3 into the cells of
    ``subs[count]``, the equal-area partition of S^(dim-1) shared by every
    band of that count.  Shared latitude boundaries belong to the northern
    band, so every point of the sphere has exactly one zonal cell.
    ``groups`` maps each zonal cell to the merged cell holding it, or is
    None when no cells were merged.
    """

    dim: int
    areas: np.ndarray
    diameters: np.ndarray
    reps: np.ndarray
    bounds: np.ndarray
    counts: np.ndarray
    subs: dict[int, Partition]
    groups: np.ndarray | None = None

    @property
    def size(self) -> int:
        return len(self.areas)

    def region_index(self, points) -> np.ndarray:
        """Index of the cell holding each point; every point has exactly one."""
        arr = np.atleast_2d(np.asarray(points, dtype=float))
        if arr.shape[1] != self.dim + 1:
            raise ValueError(
                f"points have {arr.shape[1]} coordinates, expected {self.dim + 1}"
            )
        t = np.clip(arr[:, -1], -1.0, 1.0)
        band = np.searchsorted(-self.bounds, -t, side="left")
        np.clip(band, 0, len(self.counts) - 1, out=band)
        counts = self.counts[band]
        out = (np.cumsum(self.counts) - self.counts)[band]
        xi = arr[:, :-1]
        nrm = np.linalg.norm(xi, axis=1)
        safe = nrm > 1e-15
        xi = np.where(safe[:, None], xi / np.where(safe, nrm, 1.0)[:, None], 0.0)
        xi[~safe, 0] = 1.0
        if self.dim == 2:
            # a one-cell band is one arc, so it adds nothing
            out += _arc_index(xi, counts)
        for count, sub in self.subs.items():
            rows = counts == count
            if np.any(rows):
                out[rows] += sub.region_index(xi[rows])
        return out if self.groups is None else self.groups[out]


def partition_norm(partition: Partition) -> float:
    """Largest region diameter."""
    return float(partition.diameters.max())


def representatives(partition: Partition) -> np.ndarray:
    """A fresh (n, dim + 1) array of the region representatives."""
    return partition.reps.copy()


def _arc_cells(count: int) -> tuple[float, np.ndarray]:
    """The diameter shared by S^1's ``count`` equal arcs, and their midpoints."""
    width = 2.0 * math.pi / count
    angles = (np.arange(count) + 0.5) * width
    # math.cos/sin rather than their numpy ufuncs, which may round
    # differently and would change exported representatives
    mids = np.empty((count, 2))
    mids[:, 0] = np.fromiter(map(math.cos, memoryview(angles)), float, count)
    mids[:, 1] = np.fromiter(map(math.sin, memoryview(angles)), float, count)
    return 2.0 * math.sin(min(width, math.pi) / 2.0), mids


def _arc_index(xy: np.ndarray, counts) -> np.ndarray:
    """Arc of each row of ``xy`` when S^1 is split into that row's count of arcs.

    The seam is at angle zero, and a shared arc endpoint belongs to the
    lower-index arc.
    """
    phi = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2.0 * math.pi)
    q = phi / (2.0 * math.pi / counts)
    k = np.floor(q).astype(np.int64)
    k[(q == k) & (k > 0)] -= 1
    return np.clip(k, 0, counts - 1)


def _band_diameter_sq(t_lo: float, t_hi: float, sub_diameter: float) -> float:
    """Exact squared diameter of {(s*xi, t): t in [t_lo, t_hi], xi in cell}.

    With u the cosine of the angle between the xi factors, the squared chord
    is 2 - 2 t_a t_b - 2 s_a s_b u, maximal at u = c = 1 - sub_diameter^2/2.
    The minimum of g = t_a t_b + s_a s_b c over the latitude rectangle sits
    at a corner, at the interior stationary point (0, 0), or (for c < 0) at
    an edge-critical latitude; all are enumerated.
    """
    c = 1.0 - sub_diameter * sub_diameter / 2.0
    s_lo = math.sqrt(max(1.0 - t_lo * t_lo, 0.0))
    s_hi = math.sqrt(max(1.0 - t_hi * t_hi, 0.0))
    corners = [(t_lo, s_lo), (t_hi, s_hi)]
    best = 0.0
    for ta, sa in corners:
        for tb, sb in corners:
            best = max(best, 2.0 - 2.0 * ta * tb - 2.0 * sa * sb * c)
    if t_lo <= 0.0 <= t_hi:
        best = max(best, 2.0 - 2.0 * c)
    if c < 0.0:
        for tt, ss in corners:
            radius = math.hypot(tt, c * ss)
            if radius > 0.0 and t_lo <= -tt / radius <= t_hi:
                best = max(best, 2.0 + 2.0 * radius)
    return min(best, 4.0)


def _zonal_partition(dim: int, bounds: list[float], counts: list[int]) -> Partition:
    """S^dim cut at the latitudes ``bounds`` into bands of ``counts`` cells.

    Every cell carries its exact area and diameter; a cell's representative
    sits at its band's mid-latitude, and a polar cap is represented by its
    pole.
    """
    subs = {}
    if dim >= 3:
        subs = {c: equal_area_partition(dim - 1, c) for c in sorted(set(counts)) if c > 1}
    n = sum(counts)
    areas, diameters, reps = np.empty(n), np.empty(n), np.empty((n, dim + 1))
    area = surface_area(dim)

    def frac(t: float) -> float:
        return float(betainc(dim / 2.0, dim / 2.0, (1.0 - t) / 2.0))

    offset, t_hi = 0, 1.0
    for t_lo, count in zip(bounds, counts):
        cells = slice(offset, offset + count)
        band_area = area * (frac(t_lo) - frac(t_hi))
        areas[cells] = band_area / count
        if count == 1:
            # one cell spanning the band: its sub-cell is all of S^(dim-1)
            sub_diams, which, sub_reps = np.array([2.0]), 0, np.eye(1, dim)
        elif dim == 2:
            # all arcs of a band share one diameter
            arc_diam, sub_reps = _arc_cells(count)
            sub_diams, which = np.array([arc_diam]), 0
        else:
            # the band diameter depends on a sub-cell only through its
            # diameter, and sub-cells share a handful of distinct ones
            sub_diams, which = np.unique(subs[count].diameters, return_inverse=True)
            sub_reps = subs[count].reps
        band_diams = [
            math.sqrt(_band_diameter_sq(t_lo, t_hi, sub_d)) for sub_d in sub_diams.tolist()
        ]
        diameters[cells] = np.asarray(band_diams)[which]
        t_mid = math.cos((math.acos(t_hi) + math.acos(t_lo)) / 2.0)
        reps[cells, :dim] = math.sqrt(max(1.0 - t_mid * t_mid, 0.0)) * sub_reps
        reps[cells, dim] = t_mid
        if t_hi >= 1.0 or t_lo <= -1.0:
            reps[cells] = 0.0
            reps[cells, dim] = 1.0 if t_hi >= 1.0 else -1.0
        offset, t_hi = offset + count, t_lo
    return Partition(dim, areas, diameters, reps, np.array(bounds), np.array(counts), subs)


def _cap_height(dim: int, fraction: float) -> float:
    # latitude t whose northern cap covers the given area fraction
    return 1.0 - 2.0 * float(betaincinv(dim / 2.0, dim / 2.0, fraction))


def _collar_counts(dim: int, n: int) -> list[int]:
    """Region counts for the collars between the two unit caps."""
    theta_c = math.acos(_cap_height(dim, 1.0 / n))
    ideal_angle = (surface_area(dim) / n) ** (1.0 / dim)
    n_collars = max(1, round((math.pi - 2.0 * theta_c) / ideal_angle))
    fitting = (math.pi - 2.0 * theta_c) / n_collars

    def cap_fraction(theta: float) -> float:
        return float(betainc(dim / 2.0, dim / 2.0, (1.0 - math.cos(theta)) / 2.0))

    edges = [cap_fraction(theta_c + i * fitting) for i in range(n_collars + 1)]
    ideal = [n * (edges[i + 1] - edges[i]) for i in range(n_collars)]
    counts: list[int] = []
    carry = 0.0
    for y in ideal:
        k = max(1, round(y + carry))
        carry += y - k
        counts.append(k)
    diff = (n - 2) - sum(counts)
    while diff != 0:
        if diff > 0:
            counts[counts.index(max(counts))] += 1
            diff -= 1
        else:
            big = max(c for c in counts if c > 1)
            counts[counts.index(big)] -= 1
            diff += 1
    return counts


def equal_area_partition(dim: int, n: int) -> Partition:
    """Partition S^dim into n regions of equal area and small diameter.

    Diameters scale as n^(-1/dim); every region carries its exact area,
    exact diameter, and an interior representative point.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if n < 1:
        raise ValueError(f"need at least one region, got {n}")
    if n == 1:
        return _zonal_partition(dim, [-1.0], [1])
    if n == 2:
        return _zonal_partition(dim, [0.0, -1.0], [1, 1])
    counts = [1] + _collar_counts(dim, n) + [1]
    cum = np.cumsum(counts)
    bounds = [_cap_height(dim, cum[j] / n) for j in range(len(counts) - 1)]
    return _zonal_partition(dim, bounds + [-1.0], counts)


def match_partition_to_scattering(partition: Partition, scattering: Scattering):
    """Pair each region with the unique scattering point it contains.

    Returns a copy of the partition whose representatives are the scattering
    points.  Raises PartitionMatchError naming the first region holding zero
    or several points.
    """
    if partition.size != len(scattering):
        raise PartitionMatchError(
            f"partition has {partition.size} regions but scattering has "
            f"{len(scattering)} points"
        )
    idx = partition.region_index(scattering.points)
    counts = np.bincount(idx, minlength=partition.size)
    bad = np.nonzero(counts != 1)[0]
    if len(bad):
        k = int(bad[0])
        raise PartitionMatchError(
            f"region {k} contains {int(counts[k])} scattering points, expected 1"
        )
    reps = np.empty_like(scattering.points)
    reps[idx] = scattering.points
    return replace(partition, reps=reps)


def _max_min_distance(samples: np.ndarray, scattering: Scattering) -> float:
    """max over samples of the distance to the nearest scattering point."""
    dist, _ = scattering.tree.query(samples, workers=_thread_count())
    return float(dist.max())


def _nearest_points(scattering: Scattering, targets: np.ndarray) -> np.ndarray:
    """Index of the scattering point nearest each target.

    An exact distance tie goes to the point of largest dot product with the
    target, the lowest index among equals, as ``argmax`` would pick.
    """
    dist, near = scattering.tree.query(targets, k=2, workers=_thread_count())
    for row in np.flatnonzero(dist[:, 1] == dist[:, 0]).tolist():
        near[row, 0] = np.argmax(scattering.points @ targets[row])
    return near[:, 0]


@dataclass
class MeshNormEstimate:
    """Sampled covering radius with a rigorous two-sided enclosure.

    The true mesh norm lies in [value, value + resolution_error]: the sample
    maximum is a lower bound, and moving from any sphere point to its nearest
    sample cell center changes the distance-to-scattering by at most that
    cell's diameter.
    """

    value: float
    resolution_error: float

    @property
    def lower(self) -> float:
        return self.value

    @property
    def upper(self) -> float:
        return self.value + self.resolution_error


def _sampled_mesh_norm(
    scattering: Scattering, resolution: int | None
) -> tuple[tuple, MeshNormEstimate]:
    """The sample grid of ``mesh_norm`` and the estimate taken on it.

    The grid comes back as (samples, distance, nearest): each sample with
    its distance to the scattering and the index of the point attaining it.
    """
    res = int(resolution) if resolution is not None else 16 * len(scattering)
    if res < 1:
        raise ValueError("resolution must be positive")
    grid = equal_area_partition(scattering.dim, res)
    dist, nearest = scattering.tree.query(grid.reps, workers=_thread_count())
    estimate = MeshNormEstimate(float(dist.max()), partition_norm(grid))
    return (grid.reps, dist, nearest), estimate


def mesh_norm(scattering: Scattering, resolution: int | None = None) -> MeshNormEstimate:
    """Estimate the covering radius of a scattering.

    Samples the distance-to-nearest-point at the centers of an equal-area
    partition with ``resolution`` cells (default 16 per scattering point).
    """
    return _sampled_mesh_norm(scattering, resolution)[1]


@dataclass
class ReductionResult:
    """Output of reduce_scattering; unpacks as (scattering, partition)."""

    scattering: Scattering
    partition: Partition
    mesh_norm_original: MeshNormEstimate
    mesh_norm_reduced: MeshNormEstimate
    partition_norm: float
    constant_ratio: float
    reference_ratio: float

    def __iter__(self):
        return iter((self.scattering, self.partition))


def _merged_partition(
    base: Partition, groups: np.ndarray, heads: np.ndarray, reps: np.ndarray
) -> Partition:
    """``base`` with cell c merged into group ``groups[c]``, one kept point each.

    Group g holds the kept point ``reps[g]`` in its head cell ``heads[g]``.
    Region areas are exact sums, head cell first and then the others in
    index order; diameters are certified upper bounds via the triangle
    inequality through cell representatives, capped at 2.
    """
    rest = np.ones(base.size, dtype=bool)
    rest[heads] = False
    order = np.concatenate([heads, np.flatnonzero(rest)])
    areas = np.zeros(len(heads))
    # ufunc.at adds in index order, so each group's sum runs as a loop would
    np.add.at(areas, groups[order], base.areas[order])
    sizes = np.bincount(groups, minlength=len(heads))
    members = np.argsort(groups, kind="stable")  # by group, then by cell index
    starts = np.cumsum(sizes) - sizes
    diams = base.diameters[heads]
    for size in np.unique(sizes[sizes > 1]).tolist():
        owners = np.flatnonzero(sizes == size)
        cells = members[starts[owners][:, None] + np.arange(size)]
        i, j = np.triu_indices(size, 1)
        a, b = cells[:, i], cells[:, j]
        diff = base.reps[a] - base.reps[b]
        # rounds as np.linalg.norm of each difference does
        gap = np.sqrt(np.vecdot(diff, diff))
        # a pair bound is at least either cell's diameter, so the pairs' max
        # is the group's bound
        diams[owners] = ((base.diameters[a] + gap) + base.diameters[b]).max(axis=1)
    return replace(
        base, areas=areas, diameters=np.minimum(diams, 2.0), reps=reps, groups=groups
    )


def reduce_scattering(
    scattering: Scattering, resolution: int | None = None
) -> ReductionResult:
    """Thin a scattering to one point per cell of an equal-area partition.

    The cell count starts at the scattering size and is refined only until
    the partition norm is at most twice the (upper) mesh norm, so a
    well-separated scattering survives unreduced.  Empty cells are merged
    into the cell whose scattering point is nearest their center, keeping a
    partition matched to the kept points with certified diameters.
    """
    return _reduce_on_grid(scattering, *_sampled_mesh_norm(scattering, resolution))


def _reduce_on_grid(
    scattering: Scattering, samples: tuple, est_orig: MeshNormEstimate
) -> ReductionResult:
    """``reduce_scattering`` on the grid and estimate of ``_sampled_mesh_norm``."""
    dim = scattering.dim
    pts = scattering.points
    target = 2.0 * est_orig.upper

    n_cells = len(scattering)
    base = equal_area_partition(dim, n_cells)
    for _ in range(64):
        norm = partition_norm(base)
        if norm <= target:
            break
        factor = max((norm / target) ** dim, 1.3)
        n_cells = int(math.ceil(n_cells * factor)) + 1
        base = equal_area_partition(dim, n_cells)
    else:
        raise RuntimeError("partition refinement did not reach the target diameter")

    idx = base.region_index(pts)
    # unique returns cells in increasing order with the first (lowest-index)
    # point of each, which is the kept representative
    occupied, first = np.unique(idx, return_index=True)
    reduced = Scattering._subset(scattering, first)
    groups = np.full(base.size, -1, dtype=np.int64)
    groups[occupied] = np.arange(len(occupied))
    # an empty cell joins the group of the cell holding its nearest point
    empty = np.flatnonzero(groups < 0)
    groups[empty] = groups[idx[_nearest_points(scattering, base.reps[empty])]]
    merged = _merged_partition(base, groups, occupied, reduced.points)
    # the reduced set is a subset, so a sample whose nearest point was kept
    # keeps its distance; only the orphaned ones need the reduced tree
    sample_points, dist, nearest = samples
    kept = np.zeros(len(pts), dtype=bool)
    kept[first] = True
    orphaned = ~kept[nearest]
    value = float(np.max(dist, where=~orphaned, initial=0.0))
    if np.any(orphaned):
        value = max(value, _max_min_distance(sample_points[orphaned], reduced))
    est_red = MeshNormEstimate(value, est_orig.resolution_error)
    pnorm = partition_norm(merged)
    ratio = pnorm / max(est_orig.value, 1e-300)
    reference = 8.0 * dim * math.sqrt(2.0 * dim * (dim + 1))
    return ReductionResult(
        scattering=reduced,
        partition=merged,
        mesh_norm_original=est_orig,
        mesh_norm_reduced=est_red,
        partition_norm=pnorm,
        constant_ratio=ratio,
        reference_ratio=reference,
    )
