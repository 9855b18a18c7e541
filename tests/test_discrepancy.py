import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherekh.discrepancy import (
    AdmissibleWindowError,
    GateConditionError,
    _rule_error_profile,
    difference_measure,
    duality_bound,
    kh_identity,
    partition_rule_bound,
    partition_weights,
    quadrature_error_bound,
    reduction_pipeline,
    scaling_study,
)
from spherekh.geom import (
    Scattering,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    random_points,
    reduce_scattering,
    representatives,
)
from spherekh import measures
from spherekh.harmonic import make_field, random_field
from spherekh.measures import (
    DiscreteSignedMeasure,
    QuadratureMeasure,
    ShellConfig,
    potential_values,
    sphere_surface_quadrature,
)

CFG = ShellConfig(0.3, 0.7)
QUAD80 = sphere_surface_quadrature(2, 80)


def atom(vec, weight=1.0):
    return DiscreteSignedMeasure(np.atleast_2d(vec), np.array([weight]))


def random_measure(dim, count, rng):
    return DiscreteSignedMeasure(
        random_points(dim, count, rng), rng.uniform(-1, 1, count)
    )


def test_identity_origin_charge_single_atom():
    # constant restriction against a Dirac atom: both sides equal the charge
    f = make_field([(np.zeros(3), 2.0)])
    rep = kh_identity(f, atom([0.0, 0.0, 1.0]), CFG, QUAD80)
    assert_allclose(rep.lhs, 2.0, rtol=0)
    assert rep.relative < 1e-10


def test_identity_does_not_depend_on_the_blas_thread_count():
    # at 20 301 nodes a threaded OpenBLAS splits the pairing's dot product
    # into partial sums; the identity holds BLAS at one thread for it
    blas = measures._openblas()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    get, put = blas
    quad = sphere_surface_quadrature(2, 200)
    assert len(quad.nodes) == 20301
    outside = get()
    try:
        for seed in (60, 62, 63):
            rng = np.random.default_rng(seed)
            field, sigma = random_field(2, 8, 0.3, rng), random_measure(2, 500, rng)
            reports = []
            for threads in (1, 2):
                put(threads)
                reports.append(kh_identity(field, sigma, CFG, quad))
                assert get() == threads
            assert reports[0].rhs == reports[1].rhs
            assert reports[0] == reports[1]
    finally:
        put(outside)


def test_identity_mass_zero_measure_constant_field():
    f = make_field([(np.zeros(3), 5.0)])
    pts = random_points(2, 8, 3)
    w = np.arange(8) - 3.5  # sums to zero
    rep = kh_identity(f, DiscreteSignedMeasure(pts, w), CFG, QUAD80)
    assert abs(rep.lhs) < 1e-12
    assert abs(rep.rhs) < 1e-10


def test_identity_random_case_tight():
    rng = np.random.default_rng(17)
    f = random_field(2, 3, 0.3, rng)
    rep = kh_identity(f, random_measure(2, 10, rng), CFG, QUAD80)
    assert rep.relative < 1e-10
    assert rep.residual == abs(rep.lhs - rep.rhs)


def test_identity_three_dimensional():
    rng = np.random.default_rng(23)
    f = random_field(3, 2, 0.25, rng)
    quad = sphere_surface_quadrature(3, 60)
    rep = kh_identity(f, random_measure(3, 10, rng), CFG, quad)
    assert rep.relative < 1e-8


def test_identity_rejects_charge_outside_inner_ball():
    f = make_field([(np.array([0.5, 0.0, 0.0]), 1.0)])
    with pytest.raises(ValueError, match="strictly inside"):
        kh_identity(f, atom([0.0, 0.0, 1.0]), CFG, QUAD80)


def test_identity_dimension_mismatch():
    f = make_field([(np.zeros(4), 1.0)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        kh_identity(f, atom([0.0, 0.0, 1.0]), CFG, QUAD80)


def test_identity_quadrature_refinement_stable():
    rng = np.random.default_rng(5)
    f = random_field(2, 3, 0.3, rng)
    sigma = random_measure(2, 12, rng)
    rep1 = kh_identity(f, sigma, CFG, QUAD80)
    rep2 = kh_identity(f, sigma, CFG, sphere_surface_quadrature(2, 160))
    assert abs(rep1.rhs - rep2.rhs) < 1e-9 * max(1.0, abs(rep1.rhs))


def test_bound_never_below_identity():
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = random_field(2, int(rng.integers(1, 4)), 0.3, rng)
        sigma = random_measure(2, int(rng.integers(2, 20)), rng)
        idrep = kh_identity(f, sigma, CFG, QUAD80)
        for p in (1.0, 2.0, math.inf):
            b = duality_bound(f, sigma, CFG, QUAD80, p)
            assert_allclose(b.lhs, abs(idrep.lhs), rtol=1e-12)
            assert b.lhs <= b.rhs + 1e-9
            assert b.lhs <= b.rhs_sharp + 1e-9
            assert b.rhs_sharp <= b.rhs  # r > r0 makes 1/r the sharper factor
            assert_allclose(1 / b.p + 1 / b.p_conjugate, 1.0, rtol=0, atol=0)


def test_bound_zero_measure():
    f = make_field([(np.zeros(3), 1.0)])
    sigma = DiscreteSignedMeasure(random_points(2, 5, 1), np.zeros(5))
    b = duality_bound(f, sigma, CFG, QUAD80, 2.0)
    assert b.lhs == 0.0
    assert b.rhs == 0.0


def test_bound_p2_dominates_identity_pairing():
    # Cauchy-Schwarz on the shell: the sharp p=2 product bounds the pairing
    rng = np.random.default_rng(31)
    f = random_field(2, 3, 0.3, rng)
    sigma = random_measure(2, 15, rng)
    idrep = kh_identity(f, sigma, CFG, QUAD80)
    b = duality_bound(f, sigma, CFG, QUAD80, 2.0)
    assert b.rhs * (CFG.r0 / CFG.r) >= abs(idrep.rhs) - 1e-12
    assert b.rhs_sharp >= abs(idrep.rhs) - 1e-12


def test_bound_scales_linearly_with_measure():
    rng = np.random.default_rng(37)
    f = random_field(2, 2, 0.3, rng)
    sigma = random_measure(2, 9, rng)
    b1 = duality_bound(f, sigma, CFG, QUAD80, math.inf)
    b3 = duality_bound(f, sigma.scaled(-3.0), CFG, QUAD80, math.inf)
    assert_allclose(b3.lhs, 3.0 * b1.lhs, rtol=1e-12)
    assert_allclose(b3.rhs, 3.0 * b1.rhs, rtol=1e-12)
    id1 = kh_identity(f, sigma, CFG, QUAD80)
    id3 = kh_identity(f, sigma.scaled(-3.0), CFG, QUAD80)
    assert_allclose(id3.lhs, -3.0 * id1.lhs, rtol=1e-12)
    assert_allclose(id3.rhs, -3.0 * id1.rhs, rtol=1e-12)


def test_difference_measure_cancels_identical_rule():
    quad = sphere_surface_quadrature(2, 10)
    nu = DiscreteSignedMeasure(quad.nodes, quad.weights)
    sigma = difference_measure(quad, nu)
    assert np.all(sigma.weights == 0.0)
    assert sigma.total_variation == 0.0


def test_difference_measure_disjoint_supports():
    quad = sphere_surface_quadrature(2, 4)
    nu = atom([0.0, 0.0, 1.0], 2.0)
    sigma = difference_measure(quad, nu)
    assert len(sigma.points) == len(quad.nodes) + 1
    assert_allclose(sigma.mass, quad.mass - 2.0, rtol=1e-12)


def test_quadrature_error_rule_equals_quadrature():
    f = random_field(2, 2, 0.3, 7)
    quad = sphere_surface_quadrature(2, 20)
    nu = DiscreteSignedMeasure(quad.nodes, quad.weights)
    b = quadrature_error_bound(f, quad, nu, CFG, QUAD80, 2.0)
    assert b.lhs == 0.0
    assert b.rhs == 0.0


def test_quadrature_error_mass_matched_constant_field():
    f = make_field([(np.zeros(3), 4.0)])
    mu = sphere_surface_quadrature(2, 12)
    pts = random_points(2, 6, 11)
    w = np.full(6, mu.mass / 6.0)
    b = quadrature_error_bound(f, mu, DiscreteSignedMeasure(pts, w), CFG, QUAD80, 1.0)
    assert b.lhs < 1e-12 * mu.mass


def test_quadrature_error_decreases_with_resolution():
    rng = np.random.default_rng(41)
    f = random_field(2, 3, 0.3, rng)
    mu = sphere_surface_quadrature(2, 60)
    results = []
    for n in (100, 400):
        part = equal_area_partition(2, n)
        sc = Scattering(representatives(part))
        matched = match_partition_to_scattering(part, sc)
        weights = partition_weights(mu, matched)
        nu = DiscreteSignedMeasure(representatives(matched), weights)
        results.append(quadrature_error_bound(f, mu, nu, CFG, QUAD80, 2.0))
    assert results[1].lhs < results[0].lhs
    assert results[1].rhs < results[0].rhs


def test_partition_weights_sum_to_mass():
    mu = sphere_surface_quadrature(2, 30)
    part = equal_area_partition(2, 50)
    w = partition_weights(mu, part)
    assert w.shape == (50,)
    assert_allclose(w.sum(), mu.mass, rtol=1e-12)
    assert np.all(w >= 0)


def _matched(d, n):
    part = equal_area_partition(d, n)
    return match_partition_to_scattering(part, Scattering(representatives(part)))


def _check_profile_against_difference_measure(mu, matched, probe):
    weights = partition_weights(mu, matched)
    sigma = difference_measure(mu, DiscreteSignedMeasure(matched.reps, weights))
    d = mu.dim
    for r in (0.5, 0.7, 0.9):
        new = _rule_error_profile(mu, matched, weights, r, probe)
        old = potential_values(sigma, r * probe.nodes)
        # both sums round at the scale of U_mu, at most mass / (1 - r)^(d-1)
        atol = 1e-14 * mu.mass / (1 - r) ** (d - 1)
        assert_allclose(new, old, rtol=1e-12, atol=atol)
        assert_allclose(np.max(np.abs(new)), np.max(np.abs(old)), rtol=1e-12)


@pytest.mark.parametrize(
    "d, degree, n", [(2, 60, 4096), (2, 21, 300), (3, 30, 1000), (4, 10, 800), (5, 6, 600)]
)
def test_rule_error_profile_of_product_rules(d, degree, n):
    mu = sphere_surface_quadrature(d, degree)
    assert measures._azimuth_period(mu) == degree + 1
    _check_profile_against_difference_measure(mu, _matched(d, n), mu)


def test_rule_error_profile_of_scaled_mu_on_probe_nodes():
    probe = sphere_surface_quadrature(3, 20)
    mu = QuadratureMeasure(probe.nodes, 0.25 * probe.weights, 20)
    assert measures._azimuth_period(mu) == 21
    _check_profile_against_difference_measure(mu, _matched(3, 700), probe)


def test_rule_error_profile_of_non_product_mu():
    rng = np.random.default_rng(19)
    mu = QuadratureMeasure(random_points(2, 930, rng), rng.uniform(0.5, 1.5, 930), 30)
    probe = sphere_surface_quadrature(2, 30)
    assert measures._azimuth_period(mu) == 1
    assert measures._azimuth_period(probe) == 31
    _check_profile_against_difference_measure(mu, _matched(2, 500), probe)


def test_partition_rule_bound_whole_sphere():
    part = equal_area_partition(2, 1)
    matched = match_partition_to_scattering(
        part, Scattering(np.array([[0.0, 1.0, 0.0]]))
    )
    mu = sphere_surface_quadrature(2, 20)
    rep = partition_rule_bound(mu, matched, 0.5, mu)
    assert_allclose(rep.bound, (2 - 1) * mu.mass * 2.0 / (1 - 0.5) ** 3, rtol=1e-12)
    assert rep.measured_sup <= rep.bound


def test_partition_rule_bound_degenerate_zero_error():
    part = equal_area_partition(2, 4)
    sc = Scattering(representatives(part))
    matched = match_partition_to_scattering(part, sc)
    mu = QuadratureMeasure(sc.points, np.full(4, math.pi))
    rep = partition_rule_bound(mu, matched, 0.5, QUAD80)
    assert rep.measured_sup == 0.0


def test_partition_rule_bound_decay():
    quad = sphere_surface_quadrature(2, 40)
    sups = {}
    for n in (256, 1024):
        part = equal_area_partition(2, n)
        matched = match_partition_to_scattering(
            part, Scattering(representatives(part))
        )
        rep = partition_rule_bound(quad, matched, 0.5, quad)
        assert rep.measured_sup <= rep.bound
        sups[n] = rep.measured_sup
    assert sups[1024] < sups[256]


def test_partition_rule_bound_randomized_trials():
    rng = np.random.default_rng(47)
    radii = rng.uniform(0.2, 0.8, 30)
    for i in range(30):
        n = int(rng.integers(2, 80))
        part = equal_area_partition(2, n)
        matched = match_partition_to_scattering(
            part, Scattering(representatives(part))
        )
        degree = int(rng.integers(8, 40))
        base = sphere_surface_quadrature(2, degree)
        mu = QuadratureMeasure(
            base.nodes, base.weights * rng.uniform(0.2, 3.0), degree
        )
        rep = partition_rule_bound(mu, matched, float(radii[i]), base)
        assert rep.measured_sup <= rep.bound


def test_partition_rule_bound_scales_with_measure():
    part = equal_area_partition(2, 16)
    matched = match_partition_to_scattering(part, Scattering(representatives(part)))
    base = sphere_surface_quadrature(2, 30)
    r1 = partition_rule_bound(base, matched, 0.5, base)
    tripled = QuadratureMeasure(base.nodes, 3.0 * base.weights, 30)
    r3 = partition_rule_bound(tripled, matched, 0.5, base)
    assert_allclose(r3.measured_sup, 3.0 * r1.measured_sup, rtol=1e-12)
    assert_allclose(r3.bound, 3.0 * r1.bound, rtol=1e-12)


def test_pipeline_certifies_window():
    part = equal_area_partition(2, 256)
    sc = Scattering(representatives(part))
    mu = sphere_surface_quadrature(2, 40)
    est = mesh_norm(sc)
    gate_c = 8 * 2 * math.sqrt(2 * 2 * 3)
    eps = 2.0 * (2 - 1) * gate_c * mu.mass * est.upper
    rep = reduction_pipeline(sc, mu, eps, 0.3)
    assert rep.gate_quotient == pytest.approx(0.5, rel=1e-12)
    assert rep.within_epsilon
    assert 0.3 < rep.radius < rep.r_admissible_upper
    assert rep.measured_sup <= eps
    assert rep.mesh_norm_interval[0] <= rep.mesh_norm_interval[1]


def _eight_radius_pipeline(scattering, mu, epsilon, r0):
    """The pipeline's numbers as the eight-radius probe computed them.

    This is the radius loop that the single top radius replaced, kept as
    its oracle, on top of the library's reduction.
    """
    d = scattering.dim
    estimate = mesh_norm(scattering)
    reduction = reduce_scattering(scattering)
    pnorm = reduction.partition_norm
    window_quotient = (d - 1) * mu.mass * pnorm / epsilon
    r_upper = 1.0 - window_quotient ** (1.0 / (d + 1))
    radii = r0 + (r_upper - r0) * np.arange(1, 9) / 9.0
    part = reduction.partition
    weights = partition_weights(mu, part)
    sigma = difference_measure(mu, DiscreteSignedMeasure(part.reps, weights))
    probe = sphere_surface_quadrature(d, 40)
    sups = tuple(
        float(np.max(np.abs(potential_values(sigma, r * probe.nodes)))) for r in radii
    )
    return {
        "measured_sup": max(sups),
        "bound": (d - 1) * mu.mass * pnorm / (1.0 - radii[-1]) ** (d + 1),
        "partition_norm": pnorm,
        "mesh_norm_interval": (estimate.lower, estimate.upper),
        "r_admissible_upper": r_upper,
        "top_radius": float(radii[-1]),
        "sups": sups,
    }


@pytest.mark.parametrize(
    "d, n, seed, mu_degree",
    [(2, 1000, 5, 60), (2, 1000, 7, 60), (2, 2800, 5, 60), (2, 2800, 7, 60),
     (3, 500, 5, 20), (2, 0, 0, 60)],
)
def test_one_radius_matches_eight_radius_max(d, n, seed, mu_degree):
    if n:
        scattering = Scattering(random_points(d, n, np.random.default_rng(seed)))
    else:
        scattering = Scattering(representatives(equal_area_partition(d, 512)))
    mu = sphere_surface_quadrature(d, mu_degree)
    gate_c = 8 * d * math.sqrt(2 * d * (d + 1))
    eps = 2.0 * (d - 1) * gate_c * mu.mass * mesh_norm(scattering).upper
    rep = reduction_pipeline(scattering, mu, eps, 0.3)
    old = _eight_radius_pipeline(scattering, mu, eps, 0.3)
    # the report sums U_mu and U_nu apart, the oracle the merged sigma
    assert_allclose(rep.measured_sup, old["measured_sup"], rtol=1e-12)
    assert rep.radius == old["top_radius"]
    for key in ("bound", "partition_norm", "mesh_norm_interval", "r_admissible_upper"):
        assert getattr(rep, key) == old[key]
    assert rep.within_epsilon == (old["measured_sup"] <= eps)
    # the maximum principle: the sampled sup grows with the radius
    assert list(old["sups"]) == sorted(old["sups"])


def test_pipeline_gate_failure_single_point():
    sc = Scattering(np.array([[0.0, 0.0, 1.0]]))
    mu = sphere_surface_quadrature(2, 20)
    with pytest.raises(GateConditionError, match="mesh norm too large"):
        reduction_pipeline(sc, mu, 0.5, 0.3)


def test_pipeline_empty_window():
    part = equal_area_partition(2, 256)
    sc = Scattering(representatives(part))
    mu = sphere_surface_quadrature(2, 40)
    est = mesh_norm(sc)
    gate_c = 8 * 2 * math.sqrt(2 * 2 * 3)
    eps = 2.0 * (2 - 1) * gate_c * mu.mass * est.upper
    with pytest.raises(AdmissibleWindowError, match="empty admissible"):
        reduction_pipeline(sc, mu, eps, 0.995)


def test_pipeline_input_validation():
    sc = Scattering(random_points(2, 20, 0))
    mu = sphere_surface_quadrature(2, 20)
    with pytest.raises(ValueError, match="epsilon"):
        reduction_pipeline(sc, mu, -1.0, 0.3)
    with pytest.raises(ValueError, match="r0"):
        reduction_pipeline(sc, mu, 1000.0, 1.5)
    mu3 = sphere_surface_quadrature(3, 10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        reduction_pipeline(sc, mu3, 1000.0, 0.3)


def test_scaling_study_basic():
    study = scaling_study(2, [16, 64, 256], 0.5, sphere_surface_quadrature(2, 40))
    assert [row.n for row in study.rows] == [16, 64, 256]
    assert study.fit_exponent < 0
    for row in study.rows:
        assert row.measured_sup <= row.bound
    # the bound is linear in the partition norm: their ratio is constant
    ratios = [row.bound / row.partition_norm for row in study.rows]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_scaling_study_monotone_when_surrogate_resolves_cells():
    study = scaling_study(
        2,
        [64, 256, 1024],
        0.5,
        sphere_surface_quadrature(2, 100),
    )
    sups = [row.measured_sup for row in study.rows]
    inversions = [b / a for a, b in zip(sups, sups[1:]) if b > a]
    assert len(inversions) <= 1
    assert all(ratio <= 1.10 for ratio in inversions)


def test_scaling_study_validates_sizes():
    quad = sphere_surface_quadrature(2, 20)
    with pytest.raises(ValueError, match="ascending"):
        scaling_study(2, [64, 16], 0.5, quad)
    with pytest.raises(ValueError, match="ascending"):
        scaling_study(2, [16, 16], 0.5, quad)
    with pytest.raises(ValueError, match="at least two"):
        scaling_study(2, [16], 0.5, quad)


@pytest.mark.parametrize("r", [0.0, 1.0, 1.5])
def test_rule_bounds_reject_radii_outside_the_ball(r):
    quad = sphere_surface_quadrature(2, 10)
    part = equal_area_partition(2, 4)
    matched = match_partition_to_scattering(part, Scattering(representatives(part)))
    with pytest.raises(ValueError, match="shell radius must lie in"):
        partition_rule_bound(quad, matched, r, quad)
    with pytest.raises(ValueError, match="shell radius must lie in"):
        scaling_study(2, [4, 16], r, quad)


def test_report_dictionaries_are_json_ready():
    f = make_field([(np.zeros(3), 2.0)])
    sigma = atom([0.0, 0.0, 1.0])
    idd = kh_identity(f, sigma, CFG, QUAD80).to_dict()
    assert idd["report"] == "identity"
    assert set(idd) >= {"lhs", "rhs", "residual", "relative", "truncation"}
    bd = duality_bound(f, sigma, CFG, QUAD80, 2.0).to_dict()
    assert bd["report"] == "bound"
    assert bd["slack"] == bd["rhs"] - bd["lhs"]
    part = equal_area_partition(2, 4)
    matched = match_partition_to_scattering(part, Scattering(representatives(part)))
    pd = partition_rule_bound(
        sphere_surface_quadrature(2, 10), matched, 0.5, QUAD80
    ).to_dict()
    assert pd["report"] == "partition_sup"
    assert pd["radius"] == 0.5 and pd["mesh_norm_interval"] is None
    sd = scaling_study(2, [4, 16], 0.5, sphere_surface_quadrature(2, 10)).to_dict()
    assert sd["report"] == "scaling"
    assert len(sd["rows"]) == 2
