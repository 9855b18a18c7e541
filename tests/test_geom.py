import math
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from scipy.spatial import ConvexHull
from scipy.special import betainc

from spherekh import geom, measures
from spherekh.fileio import json_dumps, partition_payload, write_partition_json
from spherekh.geom import (
    PartitionMatchError,
    Scattering,
    _arc_index,
    _band_diameter_sq,
    _max_min_distance,
    _nearest_points,
    _thread_count,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    partition_norm,
    random_points,
    reduce_scattering,
    representatives,
)
from spherekh.specfun import surface_area


def test_random_points_seeded_and_unit():
    a = random_points(2, 50, 123)
    b = random_points(2, 50, 123)
    assert np.array_equal(a, b)
    assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-14)
    c = random_points(3, 10, np.random.default_rng(5))
    assert c.shape == (10, 4)


def test_scattering_rejects_off_sphere_naming_index():
    pts = np.eye(3)
    pts[1] *= 1.1
    with pytest.raises(ValueError, match="point 1"):
        Scattering(pts)


def test_scattering_renormalizes_small_deviation():
    pts = np.eye(3) * (1 + 1e-8)
    s = Scattering(pts)
    assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-15)


def test_scattering_rejects_coincident_points():
    pts = np.array([[1.0, 0, 0], [0, 1, 0], [1.0, 1e-12, 0]])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    with pytest.raises(ValueError, match="coincide"):
        Scattering(pts)


def test_whole_sphere_and_hemispheres():
    whole = equal_area_partition(2, 1)
    assert whole.size == 1
    assert partition_norm(whole) == 2.0
    assert_allclose(whole.areas[0], surface_area(2), rtol=1e-15)
    halves = equal_area_partition(2, 2)
    assert halves.diameters.tolist() == [2.0, 2.0]
    assert_allclose(halves.areas, surface_area(2) / 2, rtol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 97, 300])
def test_equal_area_partition_areas_exact(dim, n):
    part = equal_area_partition(dim, n)
    assert part.size == n
    assert_allclose(part.areas, surface_area(dim) / n, rtol=1e-12)


def test_known_cap_and_band_diameters():
    # n=4 on S^2: caps cover t in [1/2, 1] with diameter sqrt(3); the two
    # half-collar cells reach antipodal-like pairs of length 2
    part = equal_area_partition(2, 4)
    diams = part.diameters
    assert_allclose(diams[0], math.sqrt(3.0), rtol=1e-12)
    assert_allclose(diams[-1], math.sqrt(3.0), rtol=1e-12)
    assert_allclose(diams[1], 2.0, rtol=1e-12)
    # n=3: middle band spans t in [-1/3, 1/3] around the full equator
    part3 = equal_area_partition(2, 3)
    assert_allclose(part3.diameters[1], 2.0, rtol=1e-12)


def test_diameter_dominates_sampled_pairs():
    rng = np.random.default_rng(11)
    for dim, n in ((2, 7), (2, 33), (3, 20)):
        part = equal_area_partition(dim, n)
        pts = random_points(dim, 40000, rng)
        idx = part.region_index(pts)
        for k in range(n):
            cell = pts[idx == k]
            if len(cell) < 2:
                continue
            dots = cell @ cell.T
            sampled = math.sqrt(max(float(np.max(2.0 - 2.0 * dots)), 0.0))
            assert sampled <= part.diameters[k] + 1e-12


def test_diameter_scaling_constant():
    vals = []
    for n in (64, 256, 1024, 4096):
        vals.append(partition_norm(equal_area_partition(2, n)) * math.sqrt(n))
    assert max(vals) / min(vals) < 1.5


def test_membership_total_and_consistent():
    rng = np.random.default_rng(2)
    for dim, n in ((2, 100), (3, 64), (4, 25)):
        part = equal_area_partition(dim, n)
        pts = random_points(dim, 100000 if dim == 2 else 30000, rng)
        idx = part.region_index(pts)
        assert idx.min() >= 0 and idx.max() < n
        freq = np.bincount(idx, minlength=n) / len(pts)
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / len(pts))
        assert np.max(np.abs(freq - 1 / n)) < 6 * sigma


def test_representatives_sit_in_their_own_region():
    for dim, n in ((2, 1), (2, 2), (2, 57), (2, 1024), (3, 111), (4, 40)):
        part = equal_area_partition(dim, n)
        reps = representatives(part)
        assert np.array_equal(part.region_index(reps), np.arange(n))


def test_boundary_points_claimed_once_northern_and_lowest():
    part = equal_area_partition(2, 4)
    t = part.bounds[0]  # cap boundary, exactly representable
    s = math.sqrt(1 - t * t)
    assert part.region_index(np.array([[s, 0.0, t]]))[0] == 0
    # collar/south-cap boundary goes to the collar (northern band)
    t2 = part.bounds[1]
    s2 = math.sqrt(1 - t2 * t2)
    assert part.region_index(np.array([[s2, 0.0, t2]]))[0] in (1, 2)
    # azimuth seam at phi = pi belongs to the lower-index arc
    assert _arc_index(np.array([[-1.0, 0.0]]), 2)[0] == 0
    assert _arc_index(np.array([[1.0, 0.0]]), 2)[0] == 0


def test_poles_belong_to_caps():
    part = equal_area_partition(2, 16)
    north = np.array([[0.0, 0.0, 1.0]])
    south = np.array([[0.0, 0.0, -1.0]])
    assert part.region_index(north)[0] == 0
    assert part.region_index(south)[0] == 15


def test_mesh_norm_single_point():
    est = mesh_norm(Scattering(np.array([[0.0, 0.0, 1.0]])), resolution=512)
    assert est.value <= 2.0 <= est.upper + 1e-12
    assert est.value > 2.0 - est.resolution_error


def test_mesh_norm_octahedron_enclosure():
    octa = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    true = math.sqrt(2.0 - 2.0 / math.sqrt(3.0))
    est = mesh_norm(Scattering(octa), resolution=4096)
    assert est.lower <= true <= est.upper
    assert_allclose(_exact_mesh_norm(octa), true, rtol=1e-14)
    assert abs(est.value - true) <= est.resolution_error


def test_mesh_norm_interval_shrinks_with_resolution():
    rng = np.random.default_rng(8)
    sc = Scattering(random_points(2, 30, rng))
    coarse = mesh_norm(sc, resolution=256)
    fine = mesh_norm(sc, resolution=4096)
    assert fine.resolution_error < coarse.resolution_error
    # both enclose the truth, so the intervals overlap
    assert fine.lower <= coarse.upper and coarse.lower <= fine.upper


def test_mesh_norm_of_partition_centers_below_norm():
    part = equal_area_partition(2, 128)
    sc = Scattering(representatives(part))
    est = mesh_norm(sc)
    assert est.value <= partition_norm(part)


def _use_workers(monkeypatch, workers):
    """Run kernel sums and KD-tree queries on ``workers`` threads."""
    for module in (geom, measures):
        monkeypatch.setattr(module, "_thread_count", lambda: workers)


def test_mesh_norm_threads_agree(monkeypatch):
    rng = np.random.default_rng(21)
    sc = Scattering(random_points(2, 200, rng))
    _use_workers(monkeypatch, 1)
    plain = mesh_norm(sc, resolution=1024)
    for workers in (2, 4):
        _use_workers(monkeypatch, workers)
        assert mesh_norm(sc, resolution=1024) == plain


def test_reduction_does_not_depend_on_workers(monkeypatch):
    # 6000 points query a 96 000-sample grid, large enough for the tree to
    # split it among its workers
    sc = Scattering(random_points(2, 6000, np.random.default_rng(22)))
    results = []
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        results.append((mesh_norm(sc), reduce_scattering(sc)))
    (norm_1, one), (norm_2, two) = results
    assert norm_1 == norm_2
    assert np.array_equal(one.scattering.points, two.scattering.points)
    for field in ("areas", "diameters", "reps", "groups"):
        assert np.array_equal(getattr(one.partition, field), getattr(two.partition, field))
    assert one.mesh_norm_original == two.mesh_norm_original
    assert one.mesh_norm_reduced == two.mesh_norm_reduced
    assert one.partition_norm == two.partition_norm


def test_thread_count_defaults_to_usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    assert _thread_count() == cpus


def _reference_max_min_distance(samples, points):
    """The dot-product block search that the KD-tree query replaced."""
    best = 0.0
    rows = max(1, int(4_000_000 / len(points)))
    for i in range(0, len(samples), rows):
        dots = samples[i : i + rows] @ points.T
        dist = np.sqrt(np.maximum(2.0 - 2.0 * dots.max(axis=1), 0.0))
        best = max(best, float(dist.max()))
    return best


@pytest.mark.parametrize("dim, n", [(2, 1), (2, 3000), (3, 1500), (4, 800)])
def test_max_min_distance_matches_dot_product_search(dim, n):
    sc = Scattering(random_points(dim, n, np.random.default_rng(31 + dim)))
    samples = equal_area_partition(dim, 8 * n).reps
    # sqrt(2 - 2 dot) loses ~eps/h^2 to cancellation, so the two agree to
    # rounding, not bit for bit
    assert_allclose(
        _max_min_distance(samples, sc),
        _reference_max_min_distance(samples, sc.points),
        rtol=1e-12,
    )


def test_reduce_hosts_match_argmax_rule():
    sc = Scattering(random_points(2, 2000, np.random.default_rng(37)))
    merged = reduce_scattering(sc).partition
    base = equal_area_partition(2, len(merged.groups))
    idx = base.region_index(sc.points)
    empty = np.setdiff1d(np.arange(base.size), idx)
    assert len(empty) > 100
    # every base representative lies in its own cell, so this is the
    # cell -> group map
    group_of = merged.region_index(base.reps)
    for c in empty.tolist():
        host = idx[int(np.argmax(sc.points @ base.reps[c]))]
        assert group_of[c] == group_of[host]


def test_nearest_point_exact_tie_goes_to_lowest_index():
    # four points at exactly equal distance from the north pole, among
    # enough others that the KD-tree splits them across leaves
    ring = np.array([[0.6, 0, 0.8], [-0.6, 0, 0.8], [0, 0.6, 0.8], [0, -0.6, 0.8]])
    rng = np.random.default_rng(41)
    rest = random_points(2, 3000, rng)
    pts = np.vstack([ring, rest[rest[:, 2] < 0.5]])
    pole = np.array([[0.0, 0.0, 1.0]])
    for _ in range(20):
        order = rng.permutation(len(pts))
        got = _nearest_points(Scattering(pts[order]), pole)
        assert got[0] == np.flatnonzero(order < 4)[0]


def _exact_mesh_norm(points):
    """Covering radius from the convex hull, the spherical Delaunay complex.

    Each facet's outward unit normal is a Voronoi vertex, equidistant from
    the facet's vertices; the covering radius is the largest such chord.
    """
    hull = ConvexHull(points)
    normals = hull.equations[:, :-1]
    chords = np.linalg.norm(normals[:, None, :] - points[hull.simplices], axis=2)
    return float(chords.max())


@pytest.mark.parametrize("dim, n", [(2, 20000), (3, 4000), (4, 2000)])
def test_mesh_norm_encloses_exact_covering_radius(dim, n):
    sc = Scattering(random_points(dim, n, np.random.default_rng(43 + dim)))
    exact = _exact_mesh_norm(sc.points)
    est = mesh_norm(sc)
    assert est.lower <= exact <= est.upper


def test_match_partition_to_scattering():
    part = equal_area_partition(2, 40)
    reps = representatives(part)
    rng = np.random.default_rng(4)
    order = rng.permutation(40)
    matched = match_partition_to_scattering(part, Scattering(reps[order]))
    got = representatives(matched)
    assert_allclose(got, reps, atol=0)
    assert np.array_equal(matched.region_index(got), np.arange(40))


def test_match_partition_errors_name_region():
    part = equal_area_partition(2, 6)
    reps = representatives(part)
    reps[3] = reps[2] * 0.9 + reps[3] * 0.1
    reps[3] /= np.linalg.norm(reps[3])
    with pytest.raises(PartitionMatchError, match="region"):
        match_partition_to_scattering(part, Scattering(reps))
    with pytest.raises(PartitionMatchError, match="regions"):
        match_partition_to_scattering(part, Scattering(reps[:4]))


def test_reduce_keeps_separated_scattering():
    part = equal_area_partition(2, 256)
    sc = Scattering(representatives(part))
    result = reduce_scattering(sc)
    kept, merged = result
    assert len(kept) == 256
    assert merged.size == 256
    assert result.constant_ratio < result.reference_ratio


def test_reduce_single_point():
    result = reduce_scattering(Scattering(np.array([[0.0, 0.0, 1.0]])))
    assert len(result.scattering) == 1
    assert result.partition.size == 1
    assert result.partition_norm == 2.0


def test_reduce_merges_clusters():
    rng = np.random.default_rng(3)
    base = random_points(2, 40, rng)
    jitter = base + rng.normal(scale=1e-5, size=base.shape)
    pts = np.concatenate([base, jitter / np.linalg.norm(jitter, axis=1)[:, None]])
    result = reduce_scattering(Scattering(pts))
    assert len(result.scattering) < 80


def test_reduce_chain_and_matching_properties():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 120))
        sc = Scattering(random_points(2, n, rng))
        result = reduce_scattering(sc)
        kept, part = result
        # same sample grid, so the sampled values are directly comparable
        assert result.mesh_norm_original.value <= result.mesh_norm_reduced.value + 1e-12
        # a partition matched to the kept points covers the sphere within its norm
        assert result.mesh_norm_reduced.value <= result.partition_norm + 1e-12
        idx = part.region_index(kept.points)
        assert np.array_equal(np.sort(idx), np.arange(len(kept)))
        areas = part.areas.sum()
        assert_allclose(areas, surface_area(2), rtol=1e-9)


def test_equal_area_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        equal_area_partition(1, 5)
    with pytest.raises(ValueError):
        equal_area_partition(2, 0)


def _reference_arcs(count):
    width = 2.0 * math.pi / count
    diam = 2.0 * math.sin(min(width, math.pi) / 2.0)
    mids = (np.arange(count) + 0.5) * width
    return [(width, diam, np.array([math.cos(a), math.sin(a)])) for a in mids]


def _bands(part):
    """(upper latitude, lower latitude, cell count) of each band of ``part``."""
    lows = part.bounds.tolist()
    return list(zip([1.0] + lows[:-1], lows, part.counts.tolist()))


def _reference_cells(part):
    """(area, diameter, representative) of every cell, built one at a time.

    This is the per-cell construction that the array build replaced, kept
    as its oracle: it takes only the band layout from ``part`` and the
    scalar band-diameter formula from the library.
    """
    dim = part.dim
    area = surface_area(dim)

    def frac(t):
        return float(betainc(dim / 2.0, dim / 2.0, (1.0 - t) / 2.0))

    def embed(xi, t):
        s = math.sqrt(max(1.0 - t * t, 0.0))
        return np.concatenate([s * xi, [t]])

    cells = []
    for t_hi, t_lo, count in _bands(part):
        band_area = area * (frac(t_lo) - frac(t_hi))
        cell_area = band_area / count
        t_mid = math.cos((math.acos(t_hi) + math.acos(t_lo)) / 2.0)
        if count == 1:
            diam = math.sqrt(_band_diameter_sq(t_lo, t_hi, 2.0))
            rep = np.zeros(dim + 1)
            if t_hi >= 1.0:
                rep[dim] = 1.0
            elif t_lo <= -1.0:
                rep[dim] = -1.0
            else:
                xi = np.zeros(dim)
                xi[0] = 1.0
                rep = embed(xi, t_mid)
            cells.append((cell_area, diam, rep))
        else:
            if dim == 2:
                sub_cells = _reference_arcs(count)
            else:
                sub_cells = _reference_cells(equal_area_partition(dim - 1, count))
            for _, sub_diam, sub_rep in sub_cells:
                diam = math.sqrt(_band_diameter_sq(t_lo, t_hi, sub_diam))
                cells.append((cell_area, diam, embed(sub_rep, t_mid)))
    return cells


@pytest.mark.parametrize(
    "dim, n",
    [
        (2, 1), (2, 2), (2, 3), (2, 50), (2, 44800), (2, 100_500), (3, 500), (3, 10000),
        (4, 1), (4, 2), (4, 3), (4, 2000), (5, 1), (5, 2), (5, 3), (5, 700),
    ],
)
def test_partition_arrays_match_per_cell_reference(dim, n, tmp_path):
    part = equal_area_partition(dim, n)
    cells = _reference_cells(part)
    assert np.array_equal(part.areas, np.array([c[0] for c in cells]))
    assert np.array_equal(part.diameters, np.array([c[1] for c in cells]))
    assert np.array_equal(part.reps, np.array([c[2] for c in cells]))
    # plain floats and lists, so the reference is written value by value
    reference = json_dumps({
        "d": dim,
        "n": n,
        "regions": [
            {"area": float(a), "diameter": float(dm), "representative": r.tolist()}
            for a, dm, r in cells
        ],
    })
    assert json_dumps(partition_payload(part)) == reference
    path = tmp_path / "part.json"
    write_partition_json(path, part)
    assert path.read_text() == reference + "\n"


def _check_merged_against_pairwise(sc):
    """Check the merged cells of ``reduce_scattering(sc)`` pair by pair.

    Returns the largest number of base cells in one merged cell.
    """
    merged = reduce_scattering(sc).partition
    base = equal_area_partition(sc.dim, len(merged.groups))
    # every base representative lies in its own cell, so this is the
    # cell -> group map; a group's kept point lies in its first cell
    group_of = merged.region_index(base.reps)
    heads = base.region_index(merged.reps)
    areas = base.areas.tolist()
    diams = base.diameters.tolist()
    largest = 0
    for g in range(merged.size):
        head = int(heads[g])
        cells = [head] + [int(c) for c in np.nonzero(group_of == g)[0] if c != head]
        largest = max(largest, len(cells))
        area = sum(areas[c] for c in cells)
        diam = 0.0
        for a in cells:
            diam = max(diam, diams[a])
            for b in cells:
                if b <= a:
                    continue
                gap = float(np.linalg.norm(base.reps[a] - base.reps[b]))
                diam = max(diam, diams[a] + gap + diams[b])
        assert merged.areas[g] == area
        assert merged.diameters[g] == min(diam, 2.0)
    return largest


def test_merged_partition_matches_pairwise_reference():
    sc = Scattering(random_points(2, 1000, np.random.default_rng(29)))
    assert _check_merged_against_pairwise(sc) > 1


@pytest.mark.parametrize("case", ["s3", "clustered"])
def test_merged_partition_matches_pairwise_reference_beyond_s2(case):
    rng = np.random.default_rng(31)
    if case == "s3":
        sc = Scattering(random_points(3, 800, rng))
        assert _check_merged_against_pairwise(sc) > 1
    else:
        # 600 points in 12 tight clusters leave most cells empty
        centers = random_points(2, 12, rng)
        pts = centers[rng.integers(0, 12, 600)] + 0.05 * rng.normal(size=(600, 3))
        sc = Scattering(pts / np.linalg.norm(pts, axis=1)[:, None])
        assert _check_merged_against_pairwise(sc) >= 3


@pytest.mark.parametrize(
    "dim, n, seed", [(2, 3000, 1), (2, 1, 0), (3, 1500, 2), (4, 600, 3), (2, 0, 0)]
)
def test_reduced_mesh_norm_matches_full_search(dim, n, seed):
    if n:
        sc = Scattering(random_points(dim, n, np.random.default_rng(seed)))
    else:
        # a separated scattering: every point is kept
        sc = Scattering(representatives(equal_area_partition(dim, 256)))
    result = reduce_scattering(sc)
    samples = equal_area_partition(dim, 16 * len(sc)).reps
    assert result.mesh_norm_reduced.value == _max_min_distance(samples, result.scattering)
    assert result.mesh_norm_original.value == _max_min_distance(samples, sc)
    if n > 1:
        assert len(result.scattering) < len(sc)
    else:
        assert len(result.scattering) == len(sc)


def _reference_region_index(part, points):
    """Zonal cell of each point, looked up band by band and recursively.

    This is the per-band lookup that the array-held layout replaced, kept
    as its oracle.  A point belongs to the first band, north to south,
    whose lower latitude it reaches; its direction within the band picks
    the arc (S^2) or the cell of the band's own partition of S^(dim-1).
    A shared arc endpoint belongs to the lower-index arc.
    """
    arr = np.atleast_2d(points)
    t = np.clip(arr[:, -1], -1.0, 1.0)
    band_of = np.argmax(t[:, None] >= part.bounds[None, :], axis=1)
    out = np.empty(len(arr), dtype=np.int64)
    offset = 0
    for j, (_, _, count) in enumerate(_bands(part)):
        mask = band_of == j
        if count == 1:
            out[mask] = offset
        elif np.any(mask):
            xi = arr[mask, :-1]
            nrm = np.linalg.norm(xi, axis=1)
            safe = nrm > 1e-15
            xi = np.where(safe[:, None], xi / np.where(safe, nrm, 1.0)[:, None], 0.0)
            xi[~safe, 0] = 1.0
            if part.dim == 2:
                width = 2.0 * math.pi / count
                q = np.mod(np.arctan2(xi[:, 1], xi[:, 0]), 2.0 * math.pi) / width
                k = np.floor(q).astype(np.int64)
                k[(q == k) & (k > 0)] -= 1
                cell = np.clip(k, 0, count - 1)
            else:
                sub = equal_area_partition(part.dim - 1, count)
                cell = _reference_region_index(sub, xi)
            out[mask] = offset + cell
        offset += count
    return out


def _edge_points(part):
    """Points on every band boundary and cell seam of ``part``.

    Each band contributes its two boundary latitudes and its mid-latitude,
    crossed with the directions on the seams of its cells: the arc
    endpoints (angle 0 and pi among them) on S^2, the edge points of the
    band's own partition for dim >= 3.  The poles are the latitudes +-1.
    """
    rows = []
    for t_hi, t_lo, count in _bands(part):
        if count == 1:
            xis = np.eye(part.dim)[:1] * np.array([[1.0], [-1.0]])
        elif part.dim == 2:
            angles = np.concatenate([2.0 * math.pi * np.arange(count) / count, [math.pi]])
            xis = np.column_stack([np.cos(angles), np.sin(angles)])
        else:
            xis = _edge_points(equal_area_partition(part.dim - 1, count))
        t_mid = math.cos((math.acos(t_hi) + math.acos(t_lo)) / 2.0)
        for t in (t_hi, t_lo, t_mid):
            s = math.sqrt(max(1.0 - t * t, 0.0))
            rows.append(np.column_stack([s * xis, np.full(len(xis), t)]))
    return np.vstack(rows)


@pytest.mark.parametrize(
    "dim, n",
    [(2, 1), (2, 2), (2, 7), (2, 4000), (3, 3), (3, 600), (4, 2), (4, 200), (5, 100)],
)
def test_region_index_matches_per_band_reference(dim, n):
    part = equal_area_partition(dim, n)
    poles = np.zeros((2, dim + 1))
    poles[:, dim] = [1.0, -1.0]
    points = np.vstack(
        [random_points(dim, 5000, np.random.default_rng(dim * n)),
         _edge_points(part), poles, part.reps]
    )
    assert np.array_equal(part.region_index(points), _reference_region_index(part, points))


def test_merged_region_index_matches_per_band_reference():
    sc = Scattering(random_points(2, 1500, np.random.default_rng(47)))
    merged = reduce_scattering(sc).partition
    assert merged.groups is not None and merged.size < len(merged.groups)
    points = np.vstack([random_points(2, 5000, 48), _edge_points(merged), merged.reps])
    reference = merged.groups[_reference_region_index(merged, points)]
    assert np.array_equal(merged.region_index(points), reference)
    assert np.array_equal(merged.region_index(merged.reps), np.arange(merged.size))


@pytest.mark.parametrize("first, second", [(1, 3), (0, 1)])
def test_coincident_points_name_the_pair(first, second):
    pts = np.array([[0.0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]])
    pts[[first, second]] = [1.0, 0, 0]
    with pytest.raises(ValueError, match=f"points {first} and {second} coincide"):
        Scattering(pts)


_CROSS = [[0.0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1], [-1, 0, 0]]


@pytest.mark.parametrize(
    "extra, error",
    [
        # three coincident points: the lowest of the three tied pairs
        ([[0, 0, 1], [0, 0, 1]], "points 1 and 5 coincide"),
        # the closest pair is named, not the lowest
        ([[1, 0, 0], [1, 5e-10, 0], [1, 6e-10, 0]], r"points 6 and 7 .*\(separation 1e-10\)"),
        ([[1, 0, 0], [1, 5e-10, 0]], r"points 5 and 6 coincide \(separation 5e-10\)"),
        ([[1, 0, 0], [1, 2e-9, 0]], None),
    ],
    ids=["three-coincident", "closest-pair", "apart-5e-10", "apart-2e-9"],
)
def test_separation_check_names_the_closest_pair(extra, error):
    pts = np.array(_CROSS + extra, dtype=float)
    if error is None:
        assert len(Scattering(pts)) == len(pts)
    else:
        with pytest.raises(ValueError, match=error):
            Scattering(pts)


def test_reduction_validates_the_input_once(monkeypatch):
    calls = []
    validate = Scattering.__post_init__
    monkeypatch.setattr(
        Scattering, "__post_init__", lambda self: calls.append(1) or validate(self)
    )
    sc = Scattering(random_points(2, 3000, np.random.default_rng(49)))
    result = reduce_scattering(sc)
    assert len(calls) == 1 and len(result.scattering) < len(sc)
    # the wrapped subset is what validation would have returned
    again = Scattering(result.scattering.points)
    assert np.array_equal(again.points, result.scattering.points)
