import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherekh import geom, measures
from spherekh.discrepancy import (
    _rule_error_profile,
    difference_measure,
    partition_weights,
)
from spherekh.geom import (
    equal_area_partition,
    match_partition_to_scattering,
    random_points,
    representatives,
    Scattering,
)
from spherekh.measures import (
    DiscreteSignedMeasure,
    QuadratureMeasure,
    ShellConfig,
    SingularityError,
    ZonalCoefficients,
    balayage_transform,
    conjugate_exponent,
    potential_values,
    shell_norm,
    shell_zonal_potential_profile,
    sphere_surface_quadrature,
    zonal_coefficients_of_atom,
    zonal_potential_profile,
)
from spherekh.specfun import (
    harmonic_dim,
    kernel_coefficient,
    legendre,
    legendre_table,
    surface_area,
    truncation_degree,
)


def atom(*coords, weight=1.0):
    return DiscreteSignedMeasure(np.array([coords], dtype=float), np.array([weight]))


def potential_at(measure, x) -> float:
    return float(potential_values(measure, [x])[0])


def test_shell_config_validation():
    ShellConfig(0.3, 0.7)
    for r0, r in ((0.7, 0.3), (0.0, 0.5), (0.3, 1.0), (-0.1, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError):
            ShellConfig(r0, r)


def test_measure_parts_and_variation():
    pts = random_points(2, 4, 0)
    m = DiscreteSignedMeasure(pts, np.array([1.0, -2.0, 0.5, -0.5]))
    assert m.total_variation == 4.0
    assert m.mass == -1.0
    assert m.positive_part().total_variation == 1.5
    assert m.negative_part().total_variation == 2.5
    assert np.all(m.negative_part().weights > 0)


def test_measure_validation_errors():
    with pytest.raises(ValueError, match="point 0"):
        DiscreteSignedMeasure(np.array([[1.1, 0, 0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        DiscreteSignedMeasure(np.eye(3), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        QuadratureMeasure(np.eye(3), np.array([1.0, -1.0, 1.0]))
    assert QuadratureMeasure(np.eye(3), np.ones(3), 30).degree == 30


@pytest.mark.parametrize("dim,degree", [(2, 0), (2, 17), (2, 50), (3, 24), (4, 12)])
def test_quadrature_mass(dim, degree):
    q = sphere_surface_quadrature(dim, degree)
    assert_allclose(q.mass, surface_area(dim), rtol=1e-13)
    assert_allclose(q.normalized().mass, 1.0, rtol=1e-13)
    # a quadrature is a positive signed measure, and its nodes are its atoms
    assert isinstance(q, DiscreteSignedMeasure) and q.nodes is q.points
    targets = 0.5 * random_points(dim, 7, degree)
    plain = DiscreteSignedMeasure(q.points, q.weights)
    assert potential_values(q, targets).tobytes() == potential_values(plain, targets).tobytes()


def test_quadrature_kills_low_degree_zonal_harmonics():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        degree = 30
        q = sphere_surface_quadrature(dim, degree)
        pole = random_points(dim, 1, rng)[0]
        u = np.clip(q.nodes @ pole, -1, 1)
        for l in (1, 2, 7, 15, 30):
            integral = float(q.weights @ legendre(dim, l, u))
            assert abs(integral) < 1e-10


def test_potential_trivial_values():
    assert_allclose(potential_at(atom(0, 0, 1), [0, 0, 0]), 1.0, rtol=0)
    dipole = DiscreteSignedMeasure(
        np.array([[0.0, 0, 1], [0, 0, -1.0]]), np.array([1.0, -1.0])
    )
    assert potential_at(dipole, [0, 0, 0]) == 0.0
    # d=2 kernel is 1/distance
    assert_allclose(potential_at(atom(0, 0, 1), [0, 0, 0.2]), 1.25, rtol=1e-14)


def test_uniform_surrogate_potential_constant_inside():
    rng = np.random.default_rng(1)
    q = sphere_surface_quadrature(2, 200).normalized()
    radii = rng.uniform(0.05, 0.9, 20)
    pts = random_points(2, 20, rng) * radii[:, None]
    vals = potential_values(q, pts)
    assert np.max(np.abs(vals - 1.0)) < 1e-7


def test_singularity_guard():
    m = atom(0, 0, 1)
    with pytest.raises(SingularityError, match="atom 0"):
        potential_at(m, [0, 0, 1])


def _pairwise_potential(points, weights, targets):
    """Reference potential: one |x - y|^(1-d) term at a time."""
    d = points.shape[1] - 1
    out = []
    for x in targets:
        total = 0.0
        for y, w in zip(points, weights):
            total += w * math.dist(x, y) ** (1 - d)
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_potential_matches_pairwise_loop(dim):
    rng = np.random.default_rng(40 + dim)
    pts = random_points(dim, 30, rng)
    weights = rng.normal(size=30)
    # targets inside, on and outside the unit ball, none near an atom
    targets = random_points(dim, 24, rng) * np.repeat([0.3, 0.95, 1.0, 1.7], 6)[:, None]
    got = potential_values(DiscreteSignedMeasure(pts, weights), targets)
    # the weights are signed, so scale the error by the sum of absolute terms
    want = _pairwise_potential(pts, weights, targets)
    scale = _pairwise_potential(pts, np.abs(weights), targets)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    positive = potential_values(DiscreteSignedMeasure(pts, np.abs(weights)), targets)
    assert_allclose(positive, scale, rtol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
def test_singularity_guard_names_target_and_atom(dim):
    rng = np.random.default_rng(dim)
    pts = random_points(dim, 9, rng)
    # an atom at the pole and a target 1e-13 off it: the squared distance
    # rounds to exactly 0, whatever the summation order
    pts[6] = np.eye(dim + 1)[dim]
    m = DiscreteSignedMeasure(pts, rng.normal(size=9))
    targets = 0.5 * random_points(dim, 7, rng)
    targets[4] = pts[6]
    targets[4, 0] = 1e-13
    with pytest.raises(SingularityError, match="evaluation point 4 coincides with atom 6"):
        potential_values(m, targets)


def test_singularity_guard_tests_the_true_distance():
    # 200 targets each 1e-13 from its own atom: the expanded squared distance
    # |x|^2 + 1 - 2 x.p rounds to ~1e-16, far above the guard's 1e-24
    rng = np.random.default_rng(31)
    pts = random_points(2, 200, rng)
    m = DiscreteSignedMeasure(pts, rng.normal(size=200))
    offsets = random_points(2, 200, rng)
    targets = 0.5 * random_points(2, 5, rng)
    for k in range(200):
        probe = targets.copy()
        probe[k % 5] = pts[k] + 1e-13 * offsets[k]
        with pytest.raises(
            SingularityError, match=f"evaluation point {k % 5} coincides with atom {k}$"
        ):
            potential_values(m, probe)


def test_potential_near_atoms_matches_pairwise_loop():
    # 1e-6 from an atom the nearest term dominates; the expanded squared
    # distance alone would be off by ~1e-4 relative there
    rng = np.random.default_rng(32)
    pts = random_points(2, 200, rng)
    weights = rng.uniform(0.5, 1.5, 200)
    targets = pts[:50] + 1e-6 * random_points(2, 50, rng)
    got = potential_values(DiscreteSignedMeasure(pts, weights), targets)
    assert_allclose(got, _pairwise_potential(pts, weights, targets), rtol=1e-12)


def test_wide_measure_sums_in_source_tiles():
    # 9000 atoms span several source tiles of one block
    rng = np.random.default_rng(33)
    pts = random_points(3, 9000, rng)
    weights = rng.uniform(0.5, 1.5, 9000)
    targets = random_points(3, 40, rng) * np.repeat([0.5, 1.0, 1.5, 3.0], 10)[:, None]
    want = [weights @ np.linalg.norm(x - pts, axis=1) ** -2.0 for x in targets]
    got = potential_values(DiscreteSignedMeasure(pts, weights), targets)
    assert_allclose(got, want, rtol=1e-13)
    targets[17] = pts[8000]
    with pytest.raises(SingularityError, match="point 17 coincides with atom 8000$"):
        potential_values(DiscreteSignedMeasure(pts, weights), targets)


def test_rule_error_measure_drops_only_zero_weight_atoms():
    # 4096 regions against 1891 quadrature nodes: most regions get weight 0
    mu = sphere_surface_quadrature(2, 60)
    part = equal_area_partition(2, 4096)
    matched = match_partition_to_scattering(part, Scattering(representatives(part)))
    weights = partition_weights(mu, matched)
    unpruned = difference_measure(
        mu, DiscreteSignedMeasure(representatives(matched), weights)
    )
    assert np.sum(weights == 0) > 2000
    probe = sphere_surface_quadrature(2, 20)
    for r in (0.3, 0.6, 0.9):
        sups = [
            np.max(np.abs(_rule_error_profile(mu, matched, weights, r, probe))),
            np.max(np.abs(potential_values(unpruned, r * probe.nodes))),
        ]
        assert_allclose(sups[0], sups[1], rtol=1e-12)


@pytest.mark.parametrize("dim, degree", [(2, 0), (2, 1), (2, 60), (3, 30), (4, 11), (5, 6)])
def test_azimuth_period_of_product_rules(dim, degree):
    q = sphere_surface_quadrature(dim, degree)
    assert measures._azimuth_period(q) == degree + 1


def test_azimuth_period_is_one_without_the_symmetry():
    q = sphere_surface_quadrature(3, 20)
    nudged = q.points.copy()
    nudged[30, 0] += 1e-10
    permuted = q.points.copy()
    permuted[[22, 23]] = permuted[[23, 22]]
    weights = q.weights.copy()
    weights[45] *= 1.0 + 1e-15
    for measure in (
        QuadratureMeasure(nudged, q.weights, 20),
        QuadratureMeasure(permuted, q.weights, 20),
        QuadratureMeasure(q.points, weights, 20),
        QuadratureMeasure(q.points, q.weights),
        DiscreteSignedMeasure(q.points, q.weights),
        QuadratureMeasure(np.eye(3), np.ones(3), 30),
    ):
        assert measures._azimuth_period(measure) == 1


def test_potential_linearity():
    rng = np.random.default_rng(5)
    pts = random_points(2, 6, rng)
    w1 = rng.normal(size=6)
    w2 = rng.normal(size=6)
    targets = 0.5 * random_points(2, 40, rng)
    a, b = 2.5, -1.25
    combo = DiscreteSignedMeasure(pts, a * w1 + b * w2)
    v1 = potential_values(DiscreteSignedMeasure(pts, w1), targets)
    v2 = potential_values(DiscreteSignedMeasure(pts, w2), targets)
    assert_allclose(potential_values(combo, targets), a * v1 + b * v2, rtol=1e-13)


def test_potential_positive_part_positive():
    rng = np.random.default_rng(6)
    m = DiscreteSignedMeasure(random_points(2, 5, rng), rng.uniform(0.1, 1, 5))
    targets = 0.8 * random_points(2, 50, rng)
    assert np.all(potential_values(m, targets) > 0)


def test_mean_value_property():
    # U is harmonic off the support: its average over a small sphere about an
    # interior point equals the center value
    rng = np.random.default_rng(12)
    sigma = DiscreteSignedMeasure(random_points(2, 8, rng), rng.normal(size=8))
    center = np.array([0.1, -0.2, 0.25])
    sub = sphere_surface_quadrature(2, 40)
    for rho in (0.1, 0.3):
        shell_pts = center + rho * sub.nodes
        avg = float(sub.weights @ potential_values(sigma, shell_pts)) / sub.mass
        assert_allclose(avg, potential_at(sigma, center), rtol=1e-10)


def test_shell_profile_bounds_for_single_atom():
    cfg = ShellConfig(0.2, 0.55)
    quad = sphere_surface_quadrature(2, 30)
    prof = potential_values(atom(0, 0, 1), cfg.r * quad.nodes)
    assert np.all(prof >= (1 + cfg.r) ** (1 - 2) - 1e-15)
    assert np.all(prof <= (1 - cfg.r) ** (1 - 2) + 1e-15)


def test_shell_profile_antisymmetry():
    # odd measure, symmetric node set: negating the nodes negates the profile
    cfg = ShellConfig(0.2, 0.6)
    quad = sphere_surface_quadrature(2, 39)
    pole = np.array([0.6, -0.64, 0.48])
    pole /= np.linalg.norm(pole)
    sigma = DiscreteSignedMeasure(
        np.array([pole, -pole]), np.array([1.0, -1.0])
    )
    prof = potential_values(sigma, cfg.r * quad.nodes)
    mirrored = potential_values(sigma, -cfg.r * quad.nodes)
    assert_allclose(mirrored, -prof, atol=1e-12)


def test_shell_norm_constant_profiles():
    cfg = ShellConfig(0.3, 0.6)
    quad = sphere_surface_quadrature(2, 20)
    prof = np.full(len(quad.nodes), -3.0)
    assert shell_norm(prof, quad, cfg, math.inf) == 3.0
    assert_allclose(
        shell_norm(prof, quad, cfg, 1.0), 3.0 * 0.6**2 * 4 * math.pi, rtol=1e-13
    )
    assert_allclose(
        shell_norm(prof, quad, cfg, 2.0),
        shell_norm(-prof, quad, cfg, 2.0),
        rtol=0,
    )


def test_shell_norm_rejects_bad_exponent_and_misalignment():
    cfg = ShellConfig(0.3, 0.6)
    quad = sphere_surface_quadrature(2, 10)
    prof = np.ones(len(quad.nodes))
    with pytest.raises(ValueError):
        shell_norm(prof, quad, cfg, 0.5)
    with pytest.raises(ValueError):
        shell_norm(prof[:-1], quad, cfg, 2.0)


def test_normalized_shell_norm_monotone_in_p():
    # against the unit-mass shell measure, p-norms are nondecreasing in p
    cfg = ShellConfig(0.3, 0.6)
    quad = sphere_surface_quadrature(2, 25)
    rng = np.random.default_rng(3)
    prof = rng.normal(size=len(quad.nodes))
    area_r = quad.mass * cfg.r**2
    norms = [
        shell_norm(prof, quad, cfg, p) / area_r ** (1.0 / p) for p in (1.0, 2.0, 4.0)
    ]
    norms.append(shell_norm(prof, quad, cfg, math.inf))
    assert norms[0] <= norms[1] + 1e-12
    assert norms[1] <= norms[2] + 1e-12
    assert norms[2] <= norms[3] + 1e-12


def test_conjugate_exponent():
    assert conjugate_exponent(1.0) == math.inf
    assert conjugate_exponent(math.inf) == 1.0
    assert conjugate_exponent(2.0) == 2.0
    assert_allclose(conjugate_exponent(3.0), 1.5, rtol=0)


def test_zonal_coefficients_of_atom():
    zc = zonal_coefficients_of_atom([0.0, 0, 1], 7)
    assert np.array_equal(zc.coeffs, np.ones(8))
    assert zc.dim == 2
    with pytest.raises(ValueError):
        zonal_coefficients_of_atom([0.0, 0, 1.2], 5)
    with pytest.raises(ValueError):
        zonal_coefficients_of_atom([0.0, 0, 1], -1)


def test_zonal_potential_matches_direct_kernel():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        pole = random_points(d, 1, rng)[0]
        r = 0.5
        L, _ = truncation_degree(d, r, tol=1e-12)
        zc = zonal_coefficients_of_atom(pole, L)
        dirs = random_points(d, 100, rng)
        prof = zonal_potential_profile(zc, r, dirs)
        direct = np.linalg.norm(r * dirs - pole, axis=1) ** (1 - d)
        assert np.max(np.abs(prof - direct)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_zonal_profiles_match_per_degree_loop(d):
    rng = np.random.default_rng(40 + d)
    cfg = ShellConfig(0.3, 0.6)
    north = np.zeros(d + 1)
    north[d] = 1.0
    dirs = random_points(d, 50, rng)
    area = surface_area(d)
    for pole in (north, random_points(d, 1, rng)[0]):
        zc = ZonalCoefficients(pole, rng.uniform(-1.0, 1.0, 25))
        swept = balayage_transform(zc, cfg)
        table = legendre_table(d, zc.max_degree, np.clip(dirs @ zc.pole, -1, 1))
        want = np.zeros(len(dirs))
        want_shell = np.zeros(len(dirs))
        for l in range(zc.max_degree + 1):
            weight = harmonic_dim(d, l) / area * table[l]
            want += zc.coeffs[l] * kernel_coefficient(d, l, 0.45) * weight
            shell = (d - 1) * area / ((2 * l + d - 1) * cfg.r ** (d - 1))
            want_shell += swept.coeffs[l] * shell * weight
        assert_allclose(zonal_potential_profile(zc, 0.45, dirs), want, rtol=1e-12)
        assert_allclose(
            shell_zonal_potential_profile(swept, cfg, dirs), want_shell, rtol=1e-12
        )


def test_zonal_potential_profile_rejects_radius_outside_unit_interval():
    zc = zonal_coefficients_of_atom([0.0, 0, 1], 4)
    dirs = random_points(2, 3, 0)
    for radius in (1.0, 0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="radius"):
            zonal_potential_profile(zc, radius, dirs)


def test_zonal_pair_cancellation():
    pole = np.array([0.0, 0.0, 1.0])
    zc = zonal_coefficients_of_atom(pole, 12)
    neg = ZonalCoefficients(pole, -zc.coeffs)
    dirs = random_points(2, 20, 4)
    total = zonal_potential_profile(zc, 0.4, dirs) + zonal_potential_profile(
        neg, 0.4, dirs
    )
    assert_allclose(total, 0.0, atol=0)


def test_balayage_factors():
    cfg = ShellConfig(0.25, 0.5)
    zc = zonal_coefficients_of_atom([0.0, 0, 1], 3)
    swept = balayage_transform(zc, cfg)
    assert_allclose(swept.coeffs, [0.5**1, 0.5**2, 0.5**3, 0.5**4], rtol=0)
    # mass component scales by r^(d-1) exactly
    assert swept.coeffs[0] == cfg.r ** (zc.dim - 1)
    # r -> 1: the l=0 factor tends to 1
    near = balayage_transform(zc, ShellConfig(0.5, 1 - 1e-12))
    assert_allclose(near.coeffs[0], 1.0, atol=1e-11)


def test_balayage_preserves_boundary_potential():
    rng = np.random.default_rng(7)
    cfg = ShellConfig(0.3, 0.6)
    atoms = random_points(2, 5, rng)
    w = rng.uniform(-1, 1, 5)
    sigma = DiscreteSignedMeasure(atoms, w)
    L, _ = truncation_degree(2, cfg.r, tol=1e-11)
    dirs = random_points(2, 200, rng)
    direct = potential_values(sigma, cfg.r * dirs)
    swept = np.zeros(len(dirs))
    for p, wt in zip(atoms, w):
        zc = balayage_transform(zonal_coefficients_of_atom(p, L), cfg)
        swept += wt * shell_zonal_potential_profile(zc, cfg, dirs)
    assert np.max(np.abs(direct - swept)) < 1e-8


def test_balayage_preserves_interior_potential():
    rng = np.random.default_rng(14)
    cfg = ShellConfig(0.3, 0.6)
    pole = random_points(2, 1, rng)[0]
    L, _ = truncation_degree(2, cfg.r, tol=1e-12)
    zc = zonal_coefficients_of_atom(pole, L)
    swept = balayage_transform(zc, cfg)
    dirs = random_points(2, 50, rng)
    rho = 0.25  # strictly inside the shell
    direct = np.linalg.norm(rho * dirs - pole, axis=1) ** (1 - 2)
    # swept measure lives on rS^d: at rho = ratio * r its potential is the
    # interior series with the shell's own kernel scaling
    ratio = rho / cfg.r
    Ls = np.arange(L + 1)
    inner = ZonalCoefficients(pole, swept.coeffs * ratio**Ls / cfg.r ** (2 - 1))
    # reuse the boundary evaluator's per-degree factor structure at ratio < 1
    vals = np.zeros(len(dirs))
    u = np.clip(dirs @ pole, -1, 1)
    table = legendre_table(2, L, u)
    area = surface_area(2)
    for l in range(L + 1):
        vals += (
            inner.coeffs[l]
            * (2 - 1)
            * area
            / (2 * l + 2 - 1)
            * harmonic_dim(2, l)
            / area
            * table[l]
        )
    assert np.max(np.abs(vals - direct)) < 1e-9


# (dim, atoms, targets): several row blocks and, past 4096 atoms, several
# source tiles; target counts are not multiples of a block's rows.  The last
# row is the sum of thm4a at d = 3.
_SHARED_SUMS = [(2, 300, 1000), (3, 5000, 167), (4, 4500, 101), (5, 200, 3001),
                (3, 11344, 7936)]


def _kernel_sum_at(monkeypatch, workers, *args):
    for module in (geom, measures):
        monkeypatch.setattr(module, "_thread_count", lambda: workers)
    return measures._kernel_sum(*args)


@pytest.mark.parametrize("dim, m, n", _SHARED_SUMS)
def test_kernel_sum_does_not_depend_on_workers(monkeypatch, dim, m, n):
    rng = np.random.default_rng(m + n)
    args = (random_points(dim, m, rng), rng.normal(size=m),
            random_points(dim, n, rng) * rng.uniform(0.2, 2.0, (n, 1)), dim - 1)
    serial = _kernel_sum_at(monkeypatch, 1, *args)
    for workers in (2, 3):
        assert np.array_equal(_kernel_sum_at(monkeypatch, workers, *args), serial)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_shared_kernel_sum_matches_pairwise_loop(monkeypatch, dim):
    # 40 atoms give row blocks of 3276 targets, so 3400 targets make two shares
    rng = np.random.default_rng(50 + dim)
    pts, weights = random_points(dim, 40, rng), rng.normal(size=40)
    targets = random_points(dim, 3400, rng) * rng.uniform(0.2, 2.0, (3400, 1))
    got = _kernel_sum_at(monkeypatch, 2, pts, weights, targets, dim - 1)
    want = _pairwise_potential(pts, weights, targets)
    scale = _pairwise_potential(pts, np.abs(weights), targets)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_singular_targets_in_two_shares_name_the_first(monkeypatch):
    # 5000 atoms: blocks of 32 targets, so 200 targets are seven blocks,
    # rows 0-95 for the first of two workers and 96-199 for the second
    rng = np.random.default_rng(52)
    pts, weights = random_points(3, 5000, rng), rng.normal(size=5000)
    targets = 0.5 * random_points(3, 200, rng)
    targets[20], targets[150] = pts[4500], pts[10]
    message = "evaluation point 20 coincides with atom 4500$"
    for workers in (1, 2, 3):
        with pytest.raises(SingularityError, match=message):
            _kernel_sum_at(monkeypatch, workers, pts, weights, targets, 2)


def test_kernel_sum_restores_the_blas_thread_count(monkeypatch):
    blas = measures._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    get, put = blas
    outside = get()
    # a count other than the held one, so that a sum which leaves BLAS at
    # one thread shows
    put(2)
    try:
        with measures._one_blas_thread() as held:
            assert held and get() == 1
        assert get() == 2
        rng = np.random.default_rng(53)
        pts, weights = random_points(2, 5000, rng), rng.normal(size=5000)
        targets = 0.5 * random_points(2, 200, rng)
        _kernel_sum_at(monkeypatch, 2, pts, weights, targets, 1)
        assert get() == 2
        targets[150] = pts[7]
        with pytest.raises(SingularityError):
            _kernel_sum_at(monkeypatch, 2, pts, weights, targets, 1)
        assert get() == 2
    finally:
        put(outside)


def test_kernel_sum_runs_serially_without_openblas(monkeypatch):
    rng = np.random.default_rng(54)
    args = (random_points(3, 5000, rng), rng.normal(size=5000),
            0.5 * random_points(3, 300, rng), 2)
    shared = _kernel_sum_at(monkeypatch, 2, *args)
    monkeypatch.setattr(measures, "_openblas", lambda: None)

    def no_pool(workers):
        raise AssertionError("a kernel sum without OpenBLAS must not use the pool")

    monkeypatch.setattr(measures, "_pool", no_pool)
    assert np.array_equal(_kernel_sum_at(monkeypatch, 2, *args), shared)
