"""Surface areas and ultraspherical Legendre polynomials on the d-sphere.

Everything downstream (kernel expansions, quadrature, Sobolev norms) reduces
to the polynomials ``P_l`` normalized by ``P_l(1) = 1``, their raw Gegenbauer
relatives, and a handful of exact combinatorial coefficients.  This module
keeps those primitives in one place so the normalization conventions are
fixed once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "surface_area",
    "harmonic_dim",
    "gegenbauer",
    "legendre",
    "legendre_table",
    "legendre_derivative_at_one",
    "kernel_coefficient",
    "truncation_degree",
    "latitude_quadrature",
]

# Unit-vector dot products overshoot [-1, 1] by a few ulp; anything beyond
# this is a genuine domain error, not roundoff.
_DOMAIN_SLACK = 1e-12


def _check_dim(dim: int) -> int:
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)):
        raise TypeError(f"dimension must be an integer, got {dim!r}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    return int(dim)


def _check_degree(degree: int) -> int:
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {degree!r}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    return int(degree)


def _clip_domain(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("argument must be finite")
    overshoot = np.max(np.abs(arr), initial=0.0) - 1.0
    if overshoot > _DOMAIN_SLACK:
        raise ValueError(f"argument must lie in [-1, 1], max |t| = {1.0 + overshoot}")
    return np.clip(arr, -1.0, 1.0)


def surface_area(dim: int) -> float:
    """Surface measure of the unit sphere S^dim embedded in R^(dim+1)."""
    dim = _check_dim(dim)
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


def harmonic_dim(dim: int, degree: int) -> int:
    """Number of linearly independent spherical harmonics of one degree.

    Exact integer: binom(l+d-1, l) + binom(l+d-2, l-1) for degree l >= 1,
    and 1 for the constants.
    """
    dim = _check_dim(dim)
    degree = _check_degree(degree)
    if degree == 0:
        return 1
    return math.comb(degree + dim - 1, degree) + math.comb(degree + dim - 2, degree - 1)


def _degree_weights(dim: int, max_degree: int) -> np.ndarray:
    """Addition-formula weights N_l / area(S^dim) for l = 0..max_degree."""
    counts = [harmonic_dim(dim, l) for l in range(max_degree + 1)]
    return np.array(counts, dtype=float) / surface_area(dim)


def _gegenbauer_rows(dim: int, max_degree: int, t: np.ndarray) -> np.ndarray:
    """Rows 0..max_degree of the Gegenbauer recurrence at index (dim-1)/2."""
    out = np.empty((max_degree + 1,) + t.shape, dtype=float)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = (dim - 1.0) * t
    for l in range(2, max_degree + 1):
        # l*C_l = (2l+d-3)*t*C_{l-1} - (l+d-3)*C_{l-2}
        out[l] = ((2 * l + dim - 3) * t * out[l - 1] - (l + dim - 3) * out[l - 2]) / l
    return out


def gegenbauer(dim: int, degree: int, t):
    """Gegenbauer polynomial of index (dim-1)/2, classical normalization.

    Satisfies C_0 = 1, C_1(t) = (dim-1) t, and C_l(1) = binom(l+dim-2, l).
    """
    dim = _check_dim(dim)
    degree = _check_degree(degree)
    arr = _clip_domain(t)
    scalar = arr.ndim == 0
    rows = _gegenbauer_rows(dim, degree, np.atleast_1d(arr))
    val = rows[degree]
    return float(val[0]) if scalar else val


def legendre(dim: int, degree: int, t):
    """Legendre polynomial for S^dim, normalized so that P_l(1) = 1.

    Computed as the Gegenbauer value divided by the exact integer
    binom(l+dim-2, l).  Arguments must lie in [-1, 1]; roundoff overshoot
    up to 1e-12 is clipped, anything larger is rejected.
    """
    return gegenbauer(dim, degree, t) / math.comb(degree + dim - 2, degree)


def legendre_table(dim: int, max_degree: int, t) -> np.ndarray:
    """All Legendre values P_0..P_max stacked along the leading axis."""
    dim = _check_dim(dim)
    max_degree = _check_degree(max_degree)
    arr = np.atleast_1d(_clip_domain(t))
    rows = _gegenbauer_rows(dim, max_degree, arr)
    for l in range(1, max_degree + 1):
        rows[l] /= math.comb(l + dim - 2, l)
    return rows


def legendre_derivative_at_one(dim: int, degree: int) -> float:
    """Endpoint derivative P_l'(1) = l (l + dim - 1) / dim."""
    dim = _check_dim(dim)
    degree = _check_degree(degree)
    return degree * (degree + dim - 1) / dim


def kernel_coefficient(dim: int, degree: int, radius: float) -> float:
    """Degree-l coefficient of the distance kernel |r z - e|^(1-dim).

    With z, e unit vectors and 0 < r < 1 the kernel expands as
    sum_l c_l * (N_l / area) * P_l(z . e) where N_l is the harmonic count,
    area the sphere's surface measure, and this function returns
    c_l = (dim - 1) * area * r^l / (2 l + dim - 1).
    """
    dim = _check_dim(dim)
    degree = _check_degree(degree)
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie strictly inside (0, 1), got {radius}")
    return (dim - 1) * surface_area(dim) * radius**degree / (2 * degree + dim - 1)


def truncation_degree(
    dim: int, ratio: float, tol: float = 1e-12, prefactor: float = 1.0
) -> tuple[int, float]:
    """Smallest degree whose geometric tail bound drops below ``tol``.

    Bounds the tail of series whose degree-l term is at most
    ``prefactor * binom(l+dim-2, l) * ratio**l`` (the plain kernel series).
    Term ratios decrease monotonically, so as soon as the step ratio q falls
    below 1 the tail is dominated by ``term / (1 - q)``.  Returns
    ``(degree, tail_bound)``; raises ValueError when no degree below
    100 000 reaches ``tol``.
    """
    dim = _check_dim(dim)
    ratio = float(ratio)
    prefactor = float(prefactor)
    if ratio < 0.0 or ratio >= 1.0:
        raise ValueError(f"ratio must lie in [0, 1), got {ratio}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if ratio == 0.0 or prefactor == 0.0:
        return 0, 0.0

    def term(l: int) -> float:
        return prefactor * math.comb(l + dim - 2, l) * ratio**l

    cap = 100_000
    for degree in range(cap):
        nxt = term(degree + 1)
        q = nxt / term(degree)
        if q < 1.0:
            bound = nxt / (1.0 - q)
            if bound < tol:
                return degree, bound
    raise ValueError(
        f"truncation search did not converge below degree {cap} for ratio "
        f"{ratio} and tolerance {tol}"
    )


def latitude_quadrature(dim: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights on [-1, 1] against the weight (1-t^2)^((dim-2)/2).

    Exact for polynomial integrands up to degree 2*nodes - 1.  This is the
    latitude factor of the product quadrature on S^dim; for dim = 2 it is
    plain Gauss-Legendre.
    """
    dim = _check_dim(dim)
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    alpha = (dim - 2) / 2.0
    t, w = roots_jacobi(nodes, alpha, alpha)
    return t, w
