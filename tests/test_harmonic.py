import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from spherekh import harmonic
from spherekh.geom import random_points
from spherekh.harmonic import (
    SobolevParams,
    apply_D,
    apply_D_values,
    embedding_constants,
    evaluate_field,
    expand_field,
    expansion_values,
    field_values,
    funk_hecke,
    lipschitz_check,
    lipschitz_constant,
    make_field,
    random_field,
    sobolev_norm,
)
from spherekh.measures import sphere_surface_quadrature
from spherekh.specfun import (
    harmonic_dim,
    kernel_coefficient,
    legendre_table,
    surface_area,
)


def e(i, dim=2):
    v = np.zeros(dim + 1)
    v[i] = 1.0
    return v


def test_make_field_origin_charge():
    f = make_field([(np.zeros(3), 2.0)])
    x = np.array([0.3, 0.4, 0.0])
    assert_allclose(evaluate_field(f, x), 2.0 / 0.5, rtol=1e-14)


def test_make_field_empty_is_zero():
    f = make_field([], dim=2)
    assert len(f) == 0
    assert evaluate_field(f, np.array([1.0, 0, 0])) == 0.0
    with pytest.raises(ValueError):
        make_field([])


def test_make_field_rejects_exterior_charge():
    with pytest.raises(ValueError, match="charge 1"):
        make_field([(0.5 * e(0), 1.0), (1.0 * e(1), 1.0)])


def test_field_decays_at_infinity():
    f = make_field([(0.2 * e(0), 1.0), (-0.2 * e(0), -1.0)])
    rng = np.random.default_rng(1)
    for scale in (10.0, 100.0, 1000.0):
        x = scale * random_points(2, 10, rng)
        vals = np.abs(field_values(f, x))
        # d=2 kernel decay: |f| * |x|^(d-1) stays bounded
        assert np.all(vals * scale <= 4.0)


def test_evaluate_field_hand_values():
    assert_allclose(
        evaluate_field(make_field([(np.zeros(3), 3.0)]), e(2)), 3.0, rtol=0
    )
    f = make_field([(0.2 * e(0), 1.0)])
    assert_allclose(evaluate_field(f, e(0)), 1.0 / 0.8, rtol=1e-14)


def test_field_mean_value_property():
    rng = np.random.default_rng(4)
    f = random_field(2, 4, 0.3, rng)
    center = np.array([0.0, 0.1, 0.6])
    quad = sphere_surface_quadrature(2, 40)
    for rho in (0.05, 0.2):
        shell = center + rho * quad.nodes
        avg = float(quad.weights @ field_values(f, shell)) / quad.mass
        assert_allclose(avg, evaluate_field(f, center), rtol=1e-11)


def test_field_singularity_error():
    f = make_field([(0.2 * e(0), 1.0)])
    with pytest.raises(ValueError, match="charge 0"):
        evaluate_field(f, 0.2 * e(0))
    # a target 1e-13 off the third of four charges, among far targets
    g = make_field([(0.2 * e(0), 1.0), (0.3 * e(1), -2.0), (0.4 * e(2), 0.5),
                    (-0.1 * e(1), 1.5)])
    targets = random_points(2, 6, 8)
    targets[3] = 0.4 * e(2) + 1e-13 * e(0)
    with pytest.raises(ValueError, match="evaluation point 3 coincides with charge 2"):
        field_values(g, targets)


def _pairwise_field(f, targets):
    """Reference field: one |x - q|^(1-d) term at a time."""
    return np.array([
        sum(w * math.dist(x, q) ** (1 - f.dim) for q, w in zip(f.locations, f.strengths))
        for x in targets
    ])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_field_values_match_pairwise_loop(d):
    rng = np.random.default_rng(50 + d)
    f = random_field(d, 7, 0.5, rng)
    f = make_field(zip(f.locations, np.abs(f.strengths) + 0.1))
    # targets inside the ball clear of the charges, on it and outside it
    radii = np.repeat([0.7, 1.0, 1.5, 3.0], 10)
    targets = random_points(d, 40, rng) * radii[:, None]
    assert_allclose(field_values(f, targets), _pairwise_field(f, targets), rtol=1e-13)


def test_random_field_respects_margin():
    f = random_field(2, 50, 0.3, 7)
    assert f.rho_max <= 0.8 * 0.3 + 1e-15
    assert np.all(np.abs(f.strengths) <= 1.0)
    g = random_field(2, 50, 0.3, 7)
    assert np.array_equal(f.locations, g.locations)


def test_expand_origin_charge_constant_restriction():
    f = make_field([(np.zeros(3), 2.0)])
    exp = expand_field(f, 0.5)
    coeffs = exp.coeffs[0]
    assert_allclose(coeffs[0], 2.0 * 0.5 ** (1 - 2) * surface_area(2), rtol=1e-14)
    assert np.all(coeffs[1:] == 0.0)
    dirs = random_points(2, 20, 0)
    assert_allclose(expansion_values(exp, dirs), 2.0 / 0.5, rtol=1e-13)


def test_expand_field_reconstruction():
    f = make_field([(0.2 * e(0), 1.0)])
    exp = expand_field(f, 0.5, tol=1e-12)
    assert exp.tail_bound < 1e-12
    dirs = random_points(2, 100, 3)
    rec = expansion_values(exp, dirs)
    direct = field_values(f, 0.5 * dirs)
    assert np.max(np.abs(rec - direct)) < 1e-10


def test_expand_field_multi_charge_multi_dim():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        f = random_field(d, 4, 0.4, rng)
        exp = expand_field(f, 0.8, tol=1e-13)
        dirs = random_points(d, 50, rng)
        assert np.max(
            np.abs(expansion_values(exp, dirs) - field_values(f, 0.8 * dirs))
        ) < 1e-11


def test_expansion_coefficient_ratio_law():
    f = make_field([(0.2 * e(0), 1.5)])
    exp = expand_field(f, 0.5)
    c = exp.coeffs[0]
    rho_over_r = 0.2 / 0.5
    for l in range(0, 12):
        assert_allclose(
            c[l + 1] / c[l], rho_over_r * (2 * l + 1) / (2 * l + 3), rtol=1e-13
        )


def test_expand_field_rejects_outer_charge():
    f = make_field([(0.6 * e(0), 1.0)])
    with pytest.raises(ValueError, match="diverges"):
        expand_field(f, 0.5)
    with pytest.raises(ValueError, match="diverges"):
        expand_field(f, 0.6)


def test_expansion_converges_geometrically():
    # partial-sum error at the pole shrinks by exactly rho/r per degree
    rho, r = 0.3, 0.6
    f = make_field([(rho * e(2), 1.0)])
    exp = expand_field(f, r, tol=1e-14)
    pole = e(2)
    direct = evaluate_field(f, r * pole)
    table = legendre_table(2, exp.truncation, np.array([1.0]))[:, 0]
    z = np.array([harmonic_dim(2, l) for l in range(exp.truncation + 1)])
    terms = exp.coeffs[0] * z / surface_area(2) * table
    partial = np.cumsum(terms)
    errs = np.abs(direct - partial)
    ratios = errs[8:16] / errs[7:15]
    assert np.all(np.abs(ratios - rho / r) < 0.1 * rho / r)


def _per_charge_expansion(f, r, truncation):
    """(pole, coeffs) per charge, built one charge at a time."""
    d = f.dim
    area = surface_area(d)
    l = np.arange(truncation + 1)
    base = (d - 1) * area / (2 * l + d - 1) * r ** (1 - d)
    out = []
    for q, w in zip(f.locations, f.strengths):
        rho = float(np.linalg.norm(q))
        pole = q / rho if rho > 0 else e(d, d)
        out.append((pole, w * base * (rho / r) ** l))
    return out


def _field_with_origin_charge(d, seed):
    rng = np.random.default_rng(seed)
    f = random_field(d, 5, 0.5, rng)
    return make_field([*zip(f.locations, f.strengths), (np.zeros(d + 1), 0.6)]), rng


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_expansion_arrays_match_per_charge_loop(d):
    f, rng = _field_with_origin_charge(d, 80 + d)
    exp = expand_field(f, 0.7)
    assert exp.poles.shape == (6, d + 1)
    assert exp.coeffs.shape == (6, exp.truncation + 1)
    assert exp.charge_count == 6
    assert np.array_equal(exp.poles[5], e(d, d))
    reference = _per_charge_expansion(f, 0.7, exp.truncation)
    for pole, coeffs, (want_pole, want_coeffs) in zip(exp.poles, exp.coeffs, reference):
        assert_allclose(pole, want_pole, rtol=1e-12, atol=1e-15)
        assert_allclose(coeffs, want_coeffs, rtol=1e-12)
    # expansion_values: one per-charge, per-degree accumulation
    dirs = random_points(d, 60, rng)
    area = surface_area(d)
    want = np.zeros(len(dirs))
    for pole, coeffs in reference:
        table = legendre_table(d, exp.truncation, np.clip(dirs @ pole, -1, 1))
        for l in range(exp.truncation + 1):
            want += coeffs[l] * harmonic_dim(d, l) / area * table[l]
    assert_allclose(expansion_values(exp, dirs), want, rtol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sobolev_norm_matches_per_degree_loop(d):
    f, _ = _field_with_origin_charge(d, 90 + d)
    exp = expand_field(f, 0.7)
    reference = _per_charge_expansion(f, 0.7, exp.truncation)
    poles = np.array([pole for pole, _ in reference])
    coeffs = np.array([c for _, c in reference])
    L, area = exp.truncation, surface_area(d)
    table = legendre_table(d, L, np.clip(poles @ poles.T, -1, 1))
    for s in (d / 2 + 0.3, d + 1.5):
        sp = SobolevParams(s, d)
        weights = sp.weights(L)
        total = 0.0
        for l in range(L + 1):
            a = coeffs[:, l]
            total += weights[l] ** 2 * harmonic_dim(d, l) / area * float(a @ table[l] @ a)
        assert_allclose(sobolev_norm(exp, sp), math.sqrt(total), rtol=1e-12)
    empty = expand_field(make_field([], dim=d), 0.7)
    assert empty.poles.shape == (0, d + 1) and empty.charge_count == 0
    assert sobolev_norm(empty, SobolevParams(d + 1.0, d)) == 0.0


def test_apply_D_origin_charge():
    f = make_field([(np.zeros(3), 2.0)])
    exp = expand_field(f, 0.5)
    expect = 2.0 * 0.5 ** (1 - 2) / surface_area(2)
    for zeta in random_points(2, 5, 11):
        assert_allclose(apply_D(exp, zeta), expect, rtol=1e-13)


def test_apply_D_zero_field():
    exp = expand_field(make_field([], dim=2), 0.5)
    assert apply_D(exp, np.array([0.0, 0, 1])) == 0.0


def test_apply_D_against_high_precision_series():
    # charge at 0.3 e3, r = 0.6, evaluated at the pole: independent 200-term
    # summation at 50-digit precision
    f = make_field([(0.3 * e(2), 1.0)])
    exp = expand_field(f, 0.6, tol=1e-14)
    got = apply_D(exp, e(2))
    with mpmath.workdps(50):
        x = mpmath.mpf(3) / 10 / (mpmath.mpf(6) / 10)
        total = mpmath.mpf(0)
        for l in range(200):
            total += x**l * (2 * l + 1)
        ref = total / (4 * mpmath.pi) / (mpmath.mpf(6) / 10)
        ref = float(ref)
    assert abs(got - ref) < 1e-10


def test_apply_D_factor_law_is_exact():
    # the degree-l weight of D equals (2l+d-1)/((d-1)*area) times the
    # field's weight; rebuild the series by hand from the stored coefficients
    # of a converged expansion (D itself is a closed form, not truncated)
    f = make_field([(0.25 * e(0), -1.3)])
    exp = expand_field(f, 0.7)
    converged = expand_field(f, 0.7, tol=1e-18)
    assert converged.tail_bound < 1e-16
    dirs = random_points(2, 30, 5)
    u = np.clip(dirs @ converged.poles[0], -1, 1)
    table = legendre_table(2, converged.truncation, u)
    area = surface_area(2)
    manual = np.zeros(len(dirs))
    for l in range(converged.truncation + 1):
        w = converged.coeffs[0][l] * (2 * l + 1) / ((2 - 1) * area)
        manual += w * harmonic_dim(2, l) / area * table[l]
    assert_allclose(apply_D_values(exp, dirs), manual, rtol=1e-12, atol=1e-15)


def _D_series(exp, dirs):
    """D from its unit-weight multipole series, summed to exp.truncation."""
    d = exp.dim
    area = surface_area(d)
    l = np.arange(exp.truncation + 1)
    weights = np.array([harmonic_dim(d, k) for k in l]) / area
    weights *= (2 * l + d - 1) / ((d - 1) * area)
    out = np.zeros(len(dirs))
    for pole, coeffs in zip(exp.poles, exp.coeffs):
        table = legendre_table(d, exp.truncation, np.clip(dirs @ pole, -1, 1))
        out += (coeffs * weights) @ table
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_apply_D_closed_form_matches_converged_series(d):
    rng = np.random.default_rng(70 + d)
    f = random_field(d, 4, 0.5, rng)
    # positive strengths keep D f away from 0, and one charge sits at the origin
    charges = [*zip(f.locations, np.abs(f.strengths) + 0.1), (np.zeros(d + 1), 0.7)]
    f = make_field(charges)
    converged = expand_field(f, 0.8, tol=1e-18)
    assert converged.tail_bound < 1e-16
    dirs = random_points(d, 40, rng)
    want = _D_series(converged, dirs)
    assert_allclose(apply_D_values(expand_field(f, 0.8), dirs), want, rtol=1e-12)
    assert_allclose(apply_D_values(converged, dirs), want, rtol=1e-12)


def test_funk_hecke_constants():
    for d in (2, 3, 4):
        assert_allclose(funk_hecke(lambda t: 1.0, 0, d), 1.0, rtol=1e-12)
        for l in (1, 2, 5):
            assert abs(funk_hecke(lambda t: 1.0, l, d)) < 1e-14


def test_funk_hecke_matches_kernel_coefficients():
    r = 0.5
    for d in (2, 3):
        area = surface_area(d)

        def kernel(t):
            return (1 + r * r - 2 * r * t) ** (-(d - 1) / 2.0)

        for l in (0, 1, 5, 20, 50):
            lam = funk_hecke(kernel, l, d)
            assert abs(lam - kernel_coefficient(d, l, r) / area) < 1e-10


def test_funk_hecke_rejects_non_finite_kernel():
    with pytest.raises(ValueError, match="non-finite"):
        funk_hecke(lambda t: math.inf * t, 2, 2)


def test_sobolev_params_validation():
    SobolevParams(1.1, 2)
    for s, dim, error in (
        (1.0, 2, ValueError),
        (1.5, 3, ValueError),
        (math.nan, 2, ValueError),
        (math.inf, 2, ValueError),
        (2.0, 2.5, TypeError),
        (2.0, True, TypeError),
        (1.0, 1, ValueError),
    ):
        with pytest.raises(error):
            SobolevParams(s, dim)
    sp = SobolevParams(2.0, 2)
    w = sp.weights(4)
    assert w[0] == 1.0
    assert_allclose(w[3], 3.0**2 * 7 / surface_area(2), rtol=1e-14)


def test_sobolev_norm_constant_field():
    f = make_field([(np.zeros(3), 2.0)])
    exp = expand_field(f, 0.5)
    sp = SobolevParams(2.0, 2)
    assert_allclose(
        sobolev_norm(exp, sp), (2.0 / 0.5) * math.sqrt(surface_area(2)), rtol=1e-13
    )


def test_sobolev_norm_zero_and_homogeneity():
    sp = SobolevParams(2.0, 2)
    assert sobolev_norm(expand_field(make_field([], dim=2), 0.5), sp) == 0.0
    rng = np.random.default_rng(13)
    f = random_field(2, 3, 0.3, rng)
    scaled = make_field(
        [(q, -2.5 * w) for q, w in zip(f.locations, f.strengths)]
    )
    n1 = sobolev_norm(expand_field(f, 0.7), sp)
    n2 = sobolev_norm(expand_field(scaled, 0.7), sp)
    assert_allclose(n2, 2.5 * n1, rtol=1e-12)


def test_sobolev_norm_dimension_mismatch():
    exp = expand_field(make_field([], dim=3), 0.5)
    with pytest.raises(ValueError):
        sobolev_norm(exp, SobolevParams(2.0, 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sobolev_norm_is_computed_once_per_params(d, monkeypatch):
    rng = np.random.default_rng(40 + d)
    field = random_field(d, 5, 0.6, rng)
    zeta = random_points(d, 20, rng)
    pairs = np.stack([zeta, random_points(d, 20, rng)], axis=1)
    calls = []
    real_table = harmonic.legendre_table

    def counting_table(*args, **kwargs):
        calls.append(args[:2])
        return real_table(*args, **kwargs)

    monkeypatch.setattr(harmonic, "legendre_table", counting_table)
    exp = expand_field(field, 0.7)
    sp = SobolevParams(d + 1.5, d)
    norm = sobolev_norm(exp, sp)
    report = lipschitz_check(field, exp, sp, pairs)
    assert len(calls) == 1
    assert report.norm == norm
    other = SobolevParams(d + 0.7, d)
    other_norm = sobolev_norm(exp, other)
    assert len(calls) == 2
    assert sobolev_norm(exp, sp) == norm and sobolev_norm(exp, other) == other_norm
    assert len(calls) == 2
    # each kept value is what a fresh expansion computes, bit for bit
    for params, value in ((sp, norm), (other, other_norm)):
        assert sobolev_norm(expand_field(field, 0.7), params) == value
    assert len(calls) == 4
    # the dimension check still comes first for a kept expansion
    with pytest.raises(ValueError, match="dimension mismatch"):
        sobolev_norm(exp, SobolevParams(d + 2.5, d + 1))


def _mp_series(y, a, m, poly, term, head=64):
    """sum_{l>=1} term(l) in mpmath, where term(l) = l^-y poly(l+a) (l+a)^-m.

    Terms below ``head`` come from ``term`` itself.  Beyond it,
    l^-y = (l+a)^-y (1 - a/(l+a))^-y expands in a binomial series of positive
    terms, each summing to a Hurwitz zeta value at q = head + a.
    """
    y, a = mpmath.mpf(y), mpmath.mpf(a)
    total = mpmath.fsum(term(mpmath.mpf(l)) for l in range(1, head))
    for j, c in enumerate(poly):
        k, binom = 0, mpmath.mpf(1)
        while True:
            piece = c * binom * a**k * mpmath.zeta(y + m + k - j, head + a)
            total += piece
            if abs(piece) < mpmath.mpf(10) ** -30 * abs(total):
                break
            binom *= (y + k) / (k + 1)
            k += 1
    return total


def _mp_area(d):
    half = mpmath.mpf(d + 1) / 2
    return 2 * mpmath.pi**half / mpmath.gamma(half)


def _oracle_embedding(d, s):
    with mpmath.workdps(50):
        s, area, e_d = mpmath.mpf(s), _mp_area(d), mpmath.e**d
        beta, a = 2 * s + 1 - d, mpmath.mpf(d - 1) / 2

        def star(l):  # a term of the c* series over its prefactor
            return 4 * l ** (d - 1 - 2 * s) / (2 * l + d - 1) ** 2

        sum1 = e_d * area * (d - 1) ** 2 / 4 * _mp_series(beta, a, 2, [1], star)
        sum2 = e_d / area * mpmath.zeta(beta)
        return mpmath.sqrt(sum1 + 1 / area), area * mpmath.sqrt(sum2 + 1 / area**3)


def _oracle_lipschitz(d, s):
    """sqrt(sum_l N_l P_l'(1) / (area m_l^2)) in mpmath at 50 digits."""
    with mpmath.workdps(50):
        s, area = mpmath.mpf(s), _mp_area(d)
        a = mpmath.mpf(d - 1) / 2
        scale = (d - 1) ** 2 * area / (2 * d)
        # binom(l+d-1, d-1) = prod_j (v - a + j) / j as a polynomial in v = l + a
        poly = [mpmath.mpf(1)]
        for j in range(1, d):
            shifted = [c * (j - a) / j for c in poly] + [0]
            poly = [p + q / j for p, q in zip(shifted, [0] + poly)]

        def term(l):
            m_l = l**s * (2 * l + d - 1) / ((d - 1) * area)
            deriv = l * (l + d - 1) / d
            return harmonic_dim(d, int(l)) * deriv / (area * m_l**2) / scale

        return mpmath.sqrt(scale * _mp_series(2 * s - 1, a, 1, poly, term))


def _old_power_series_sum(term_of, beta, k_bound):
    # the series summation the closed forms replaced; converges fast for large beta
    total, start, block = 0.0, 1, 4096
    while start <= 2**26:
        l = np.arange(start, start + block, dtype=float)
        total += float(np.sum(term_of(l)))
        start += block
        if k_bound * start ** (1.0 - beta) / (beta - 1.0) < 1e-12 * total:
            return total
        block = min(2 * block, 2**22)
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_embedding_constants_match_mpmath_oracle(d):
    for s in np.linspace(d / 2 + 1e-3, d / 2 + 2, 5):
        ec = embedding_constants(SobolevParams(float(s), d))
        c_star, c_star_star = _oracle_embedding(d, float(s))
        assert_allclose(ec.c_star, float(c_star), rtol=1e-13)
        assert_allclose(ec.c_star_star, float(c_star_star), rtol=1e-13)
        assert ec.tail_star < 1e-12 and ec.tail_star_star < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_lipschitz_constant_matches_mpmath_oracle(d):
    for s in np.linspace((3 * d - 2) / 4 + 1e-3, d / 2 + 2, 5):
        c = lipschitz_constant(SobolevParams(float(s), d))
        assert_allclose(c, float(_oracle_lipschitz(d, float(s))), rtol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_constants_match_old_series_where_it_converges(d):
    area, e_d = surface_area(d), math.exp(d)
    k_bound = e_d * area * (d - 1) ** 2 / 4.0
    for s in (d / 2 + 1.5, d / 2 + 2):
        beta = 2 * s + 1 - d

        def star(l):
            return k_bound * 4 * l ** (d - 1 - 2 * s) / (2 * l + d - 1) ** 2

        def lip(l):
            binom = np.ones_like(l)
            for j in range(1, d):
                binom = binom * (l + j) / j
            z = (2 * l + d - 1) / (l + d - 1) * binom
            m_sq = l ** (2 * s) * (2 * l + d - 1) ** 2 / ((d - 1) * area) ** 2
            return z * (l * (l + d - 1) / d) / (area * m_sq)

        ec = embedding_constants(SobolevParams(s, d))
        sum1 = _old_power_series_sum(star, beta + 2, k_bound)
        sum2 = _old_power_series_sum(lambda l: e_d * l**-beta / area, beta, e_d / area)
        assert_allclose(ec.c_star, math.sqrt(sum1 + 1 / area), rtol=1e-12)
        c_star_star = area * math.sqrt(sum2 + 1 / area**3)
        assert_allclose(ec.c_star_star, c_star_star, rtol=1e-12)
        old_lip = math.sqrt(_old_power_series_sum(lip, beta, k_bound))
        assert_allclose(lipschitz_constant(SobolevParams(s, d)), old_lip, rtol=1e-12)


def test_embedding_constants_large_s_limit():
    # only the l=1 term survives: its degree power is 1^(d-1-2s) = 1
    area = surface_area(2)
    expect_star = math.sqrt(math.e**2 * area / 9.0 + 1.0 / area)
    expect_star_star = area * math.sqrt(math.e**2 / area + 1.0 / area**3)
    for s in (50.0, 1e15, 1e300):
        ec = embedding_constants(SobolevParams(s, 2))
        assert_allclose(ec.c_star, expect_star, rtol=1e-10)
        assert_allclose(ec.c_star_star, expect_star_star, rtol=1e-10)
        assert ec.tail_star < 1e-12 and ec.tail_star_star == 0.0


def test_embedding_constants_basic_properties():
    sp = SobolevParams(2.0, 2)
    ec = embedding_constants(sp)
    assert ec.c_star >= (1.0 / surface_area(2)) ** 0.5
    assert ec.tail_star < 1e-12 and ec.tail_star_star < 1e-12
    ec3 = embedding_constants(SobolevParams(3.0, 2))
    assert ec.c_star >= ec3.c_star
    assert ec.c_star_star >= ec3.c_star_star


def test_pointwise_recovery_inequalities():
    rng = np.random.default_rng(42)
    sp = SobolevParams(2.0, 2)
    ec = embedding_constants(sp)
    cfg_r = 0.7
    quad = sphere_surface_quadrature(2, 40)
    area_mass = quad.mass
    for _ in range(30):
        f = random_field(2, int(rng.integers(1, 6)), 0.5 * cfg_r / 0.8, rng)
        exp = expand_field(f, cfg_r, tol=1e-12)
        nrm = sobolev_norm(exp, sp)
        dirs = random_points(2, 1000, rng)
        sup_f = float(np.max(np.abs(field_values(f, cfg_r * dirs))))
        sup_D = float(np.max(np.abs(apply_D_values(exp, dirs))))
        assert sup_f <= ec.c_star * nrm + 1e-12
        assert sup_D <= ec.c_star_star * nrm + 1e-12
        # normalized L_p forms are dominated by the sup, hence also bounded
        vals = field_values(f, cfg_r * quad.nodes)
        for p in (1.0, 2.0):
            lp = float((quad.weights @ np.abs(vals) ** p / area_mass) ** (1.0 / p))
            assert lp <= ec.c_star * nrm + 1e-12


def test_lipschitz_constant_and_check():
    sp = SobolevParams(2.0, 2)
    c = lipschitz_constant(sp)
    assert c > 0
    # below the first-order threshold (only possible for dim >= 3)
    with pytest.raises(ValueError, match="3\\*dim-2"):
        lipschitz_constant(SobolevParams(1.6, 3))
    # barely above it the series decays slowly, yet the closed form answers
    near = lipschitz_constant(SobolevParams(1.05, 2))
    assert math.isfinite(near)
    assert_allclose(near, float(_oracle_lipschitz(2, 1.05)), rtol=1e-13)

    rng = np.random.default_rng(6)
    f = random_field(2, 3, 0.3, rng)
    exp = expand_field(f, 0.7)
    zetas = random_points(2, 300, rng)
    etas = random_points(2, 300, rng)
    rep = lipschitz_check(f, exp, sp, list(zip(zetas, etas)))
    assert rep.pairs_checked == 300
    assert rep.max_ratio <= rep.bound
    # near-coincident pairs: no blow-up
    close = zetas + 1e-6 * random_points(2, 300, rng)
    close /= np.linalg.norm(close, axis=1)[:, None]
    rep2 = lipschitz_check(f, exp, sp, list(zip(zetas, close)))
    assert rep2.max_ratio <= rep2.bound


def test_lipschitz_constant_field_ratio_zero():
    sp = SobolevParams(2.0, 2)
    f = make_field([(np.zeros(3), 5.0)])
    exp = expand_field(f, 0.5)
    pairs = list(zip(random_points(2, 20, 1), random_points(2, 20, 2)))
    rep = lipschitz_check(f, exp, sp, pairs)
    assert rep.max_ratio < 1e-12


def test_lipschitz_check_matches_per_pair_loop():
    rng = np.random.default_rng(17)
    sp = SobolevParams(2.0, 2)
    f = random_field(2, 4, 0.3, rng)
    exp = expand_field(f, 0.7)
    zetas = random_points(2, 50, rng)
    etas = random_points(2, 50, rng)
    etas[7] = zetas[7]  # zero gap: skipped and not counted
    pairs = list(zip(zetas, etas))
    worst, count = 0.0, 0
    for zeta, eta in pairs:
        gap = float(np.linalg.norm(eta - zeta))
        if gap == 0.0:
            continue
        diff = abs(evaluate_field(f, 0.7 * eta) - evaluate_field(f, 0.7 * zeta))
        worst, count = max(worst, diff / gap), count + 1
    rep = lipschitz_check(f, exp, sp, pairs)
    assert rep.pairs_checked == count == 49
    assert_allclose(rep.max_ratio, worst, rtol=1e-12)
    empty = lipschitz_check(f, exp, sp, [])
    assert empty.pairs_checked == 0 and empty.max_ratio == 0.0
    assert empty.bound == rep.bound
