import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_chebyu, eval_gegenbauer, eval_legendre

from spherekh.specfun import (
    gegenbauer,
    harmonic_dim,
    kernel_coefficient,
    latitude_quadrature,
    legendre,
    legendre_derivative_at_one,
    legendre_table,
    surface_area,
    truncation_degree,
)


def lower_area(dim):
    # surface measure of S^(dim-1), valid down to the circle
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def test_surface_area_closed_forms():
    assert_allclose(surface_area(2), 4 * math.pi, rtol=1e-15)
    assert_allclose(surface_area(3), 2 * math.pi**2, rtol=1e-15)
    assert_allclose(surface_area(4), 8 * math.pi**2 / 3, rtol=1e-14)


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_surface_area_rejects_low_dim(bad):
    with pytest.raises(ValueError):
        surface_area(bad)


def test_surface_area_rejects_non_integer():
    with pytest.raises(TypeError):
        surface_area(2.5)
    with pytest.raises(TypeError):
        surface_area(True)


def test_harmonic_dim_known_values():
    assert harmonic_dim(2, 0) == 1
    assert harmonic_dim(2, 1) == 3
    assert harmonic_dim(2, 5) == 11
    assert harmonic_dim(3, 2) == 9
    for l in range(40):
        assert harmonic_dim(2, l) == 2 * l + 1
        assert harmonic_dim(3, l) == (l + 1) ** 2


def test_harmonic_dim_is_exact_integer():
    for d in (2, 3, 4, 5):
        for l in range(0, 30):
            z = harmonic_dim(d, l)
            assert isinstance(z, int)
            assert z >= 1


def test_legendre_at_one_is_exactly_one():
    for d in (2, 3, 4):
        table = legendre_table(d, 200, np.array([1.0]))
        assert_allclose(table[:, 0], 1.0, rtol=0, atol=5e-14)


def test_legendre_degree_zero_and_one():
    t = np.linspace(-1, 1, 41)
    for d in (2, 3, 4):
        assert_allclose(legendre(d, 0, t), np.ones_like(t), rtol=0, atol=0)
        assert_allclose(legendre(d, 1, t), t, rtol=0, atol=1e-15)


def test_legendre_matches_independent_implementations():
    t = np.linspace(-1, 1, 201)
    for l in range(0, 61, 5):
        assert_allclose(legendre(2, l, t), eval_legendre(l, t), atol=1e-12)
        assert_allclose(legendre(3, l, t), eval_chebyu(l, t) / (l + 1), atol=1e-12)
        ref = eval_gegenbauer(l, 1.5, t) / math.comb(l + 2, l)
        assert_allclose(legendre(4, l, t), ref, atol=1e-12)


def test_legendre_bounded_by_one():
    t = np.linspace(-1, 1, 1001)
    for d in (2, 3, 4):
        table = legendre_table(d, 80, t)
        assert np.max(np.abs(table)) <= 1.0 + 1e-12


def test_legendre_rejects_out_of_domain():
    with pytest.raises(ValueError):
        legendre(2, 3, 1.001)
    with pytest.raises(ValueError):
        legendre(2, 3, np.array([0.0, -1.1]))
    # roundoff overshoot is tolerated
    assert_allclose(legendre(2, 3, 1.0 + 1e-15), 1.0, atol=1e-14)


def test_orthogonality_against_closed_form():
    # integral of P_l P_s against (1-t^2)^((d-2)/2) equals
    # delta_{ls} * area(S^d) / (area(S^(d-1)) * Z(d, l))
    for d in (2, 3):
        t, w = latitude_quadrature(d, 40)
        table = legendre_table(d, 20, t)
        gram = (table * w) @ table.T
        for l in range(21):
            for s in range(21):
                expect = 0.0
                if l == s:
                    expect = surface_area(d) / (lower_area(d) * harmonic_dim(d, l))
                assert abs(gram[l, s] - expect) < 1e-12


def test_gegenbauer_normalizations():
    t = np.linspace(-1, 1, 11)
    for d in (2, 3, 4):
        assert_allclose(gegenbauer(d, 0, t), 1.0, atol=0)
        assert_allclose(gegenbauer(d, 1, t), (d - 1) * t, atol=1e-15)
        for l in (2, 7, 19):
            assert_allclose(gegenbauer(d, l, 1.0), math.comb(l + d - 2, l), rtol=1e-13)


def test_gegenbauer_generating_function():
    r = 0.5
    for d in (2, 3, 4):
        for t in (-1.0, -0.4, 0.0, 0.5, 1.0):
            total = sum(r**l * gegenbauer(d, l, t) for l in range(120))
            closed = (1 - 2 * r * t + r * r) ** (-(d - 1) / 2.0)
            assert abs(total - closed) < 1e-10


def test_kernel_coefficient_values():
    assert_allclose(kernel_coefficient(2, 0, 0.5), surface_area(2), rtol=1e-15)
    assert_allclose(kernel_coefficient(2, 1, 0.5), 4 * math.pi / 3 * 0.5, rtol=1e-14)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            kernel_coefficient(2, 1, bad)


def test_kernel_coefficient_reconstructs_distance_kernel():
    rng = np.random.default_rng(7)
    r = 0.5
    for d in (2, 3, 4):
        area = surface_area(d)
        for _ in range(10):
            x = rng.normal(size=d + 1)
            y = rng.normal(size=d + 1)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            u = float(np.clip(x @ y, -1, 1))
            degree, tail = truncation_degree(d, r, tol=1e-13)
            table = legendre_table(d, degree, np.array([u]))[:, 0]
            total = sum(
                kernel_coefficient(d, l, r) * harmonic_dim(d, l) / area * table[l]
                for l in range(degree + 1)
            )
            direct = np.linalg.norm(r * x - y) ** (1 - d)
            assert abs(total - direct) < 1e-10


def test_kernel_coefficient_eventually_decreasing():
    for d in (2, 3, 4):
        vals = [kernel_coefficient(d, l, 0.9) for l in range(200)]
        assert all(b < a for a, b in zip(vals[20:], vals[21:]))


def test_derivative_at_one_values():
    assert legendre_derivative_at_one(2, 0) == 0.0
    assert_allclose(legendre_derivative_at_one(2, 1), 1.0, rtol=0)
    assert_allclose(legendre_derivative_at_one(2, 5), 15.0, rtol=0)
    for d in (2, 3, 4):
        for l in (1, 4, 9):
            h = 1e-6
            p0 = legendre(d, l, 1.0)
            p1 = legendre(d, l, 1.0 - h)
            p2 = legendre(d, l, 1.0 - 2 * h)
            fd = (3 * p0 - 4 * p1 + p2) / (2 * h)
            assert_allclose(legendre_derivative_at_one(d, l), fd, rtol=1e-4)


def test_derivative_at_one_growth_rate():
    for d in (2, 3, 4):
        ratios = [legendre_derivative_at_one(d, l) / l**2 for l in range(1, 501)]
        assert max(ratios) <= (1 + d) / d + 1e-12
        assert min(ratios) >= 1.0 / d


def test_truncation_degree_bound_is_honest():
    for d in (2, 3):
        for ratio in (0.2, 0.5, 0.8):
            degree, bound = truncation_degree(d, ratio, tol=1e-12)
            assert bound < 1e-12
            tail = sum(
                math.comb(l + d - 2, l) * ratio**l
                for l in range(degree + 1, degree + 4000)
            )
            assert tail <= bound


def test_truncation_degree_monotone_in_tolerance():
    d1, _ = truncation_degree(2, 0.5, tol=1e-6)
    d2, _ = truncation_degree(2, 0.5, tol=1e-12)
    assert d2 >= d1
    assert truncation_degree(2, 0.0) == (0, 0.0)
    with pytest.raises(ValueError):
        truncation_degree(2, 1.0)
    with pytest.raises(ValueError):
        truncation_degree(2, 0.5, tol=0.0)
    # no degree below the search cap reaches tol: a ValueError naming both
    with pytest.raises(ValueError, match=r"ratio 0\.99999 and tolerance 1e-12"):
        truncation_degree(2, 0.99999, tol=1e-12)


def test_latitude_quadrature_mass_and_exactness():
    for d in (2, 3, 4):
        t, w = latitude_quadrature(d, 25)
        assert_allclose(w.sum(), surface_area(d) / lower_area(d), rtol=1e-13)
        alpha = (d - 2) / 2.0
        for k in range(0, 49, 7):
            if k % 2 == 1:
                expect = 0.0
            else:
                m = k // 2
                expect = (
                    math.gamma(m + 0.5)
                    * math.gamma(alpha + 1)
                    / math.gamma(m + alpha + 1.5)
                )
            assert abs(float(w @ t**k) - expect) < 1e-13
