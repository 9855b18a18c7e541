"""Exterior harmonic fields, their shell expansions, and Sobolev machinery.

Test fields are finite sums of interior point charges.  Restricted to a
sphere of radius r they expand in zonal series with geometrically decaying
coefficients, which makes Sobolev norms and pointwise-recovery constants
computable with certified truncation tails; the degree-multiplying operator
sums its series in closed form, as the Poisson kernel of the ball.  No
explicit harmonic basis is ever formed: the addition formula collapses every
order sum into Legendre evaluations at pole products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import zeta

from .measures import _kernel_sum, _zonal_sum
from .specfun import (
    _check_dim,
    _degree_weights,
    latitude_quadrature,
    legendre_table,
    surface_area,
    truncation_degree,
)

__all__ = [
    "HarmonicField",
    "FieldExpansion",
    "SobolevParams",
    "EmbeddingConstants",
    "LipschitzReport",
    "make_field",
    "random_field",
    "evaluate_field",
    "field_values",
    "expand_field",
    "expansion_values",
    "apply_D",
    "apply_D_values",
    "funk_hecke",
    "sobolev_norm",
    "embedding_constants",
    "lipschitz_constant",
    "lipschitz_check",
]

@dataclass
class HarmonicField:
    """Finite sum of point charges strictly inside the unit ball.

    The induced field sum_i strength_i * |x - q_i|^(1-d) is harmonic off the
    charges, continuous up to the sphere, and vanishes at infinity.
    """

    locations: np.ndarray
    strengths: np.ndarray
    dim: int

    def __post_init__(self):
        self.locations = np.asarray(self.locations, dtype=float).reshape(
            -1, self.dim + 1
        )
        self.strengths = np.asarray(self.strengths, dtype=float).reshape(-1)
        if len(self.locations) != len(self.strengths):
            raise ValueError("locations and strengths must align")
        if not (
            np.all(np.isfinite(self.locations)) and np.all(np.isfinite(self.strengths))
        ):
            raise ValueError("charges must be finite")
        radii = np.linalg.norm(self.locations, axis=1)
        if len(radii) and radii.max() >= 1.0 - 1e-12:
            k = int(np.argmax(radii))
            raise ValueError(
                f"charge {k} lies on or outside the unit sphere (|q| = {radii[k]:.9g})"
            )

    @property
    def rho_max(self) -> float:
        if len(self.locations) == 0:
            return 0.0
        return float(np.linalg.norm(self.locations, axis=1).max())

    def __len__(self) -> int:
        return len(self.locations)


def make_field(charges, dim: int | None = None) -> HarmonicField:
    """Build a field from (location, strength) pairs.

    An empty charge list gives the zero field; the dimension must then be
    passed explicitly.
    """
    charges = list(charges)
    if not charges:
        if dim is None:
            raise ValueError("empty field needs an explicit dimension")
        return HarmonicField(np.zeros((0, dim + 1)), np.zeros(0), dim)
    locations = np.array([np.asarray(q, dtype=float) for q, _ in charges])
    strengths = np.array([float(w) for _, w in charges])
    d = locations.shape[1] - 1
    if dim is not None and dim != d:
        raise ValueError(f"charge coordinates imply dimension {d}, not {dim}")
    return HarmonicField(locations, strengths, d)


def random_field(
    dim: int, charges: int, radius_cap: float, rng, margin: float = 0.8
) -> HarmonicField:
    """Random field with charges inside margin * radius_cap.

    The default margin 0.8 keeps every paired expansion ratio at most
    0.8 * r0 / r.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dirs = rng.normal(size=(charges, dim + 1))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = margin * radius_cap * rng.uniform(0.0, 1.0, charges)
    strengths = rng.uniform(-1.0, 1.0, charges)
    return HarmonicField(radii[:, None] * dirs, strengths, dim)


def field_values(f: HarmonicField, targets) -> np.ndarray:
    """Field values at each target row (vectorized, singularity-guarded)."""
    return _kernel_sum(f.locations, f.strengths, targets, f.dim - 1, "charge")


def evaluate_field(f: HarmonicField, x) -> float:
    return float(field_values(f, np.asarray(x, dtype=float)[None, :])[0])


@dataclass
class FieldExpansion:
    """Zonal expansion of a field's restriction to the sphere of radius r.

    Charge k contributes the pole ``poles[k]`` (its direction, the north pole
    for a charge at the origin) and the per-degree weights ``coeffs[k]``,
    strength * r^(1-d) * (rho/r)^l * (d-1) * area / (2l + d - 1); the field
    value at r*zeta is the double sum of coeffs * (N_l/area) * P_l(pole.zeta).
    The recorded tail bound certifies the truncation degree; the charges are
    kept for the closed form of D.  Sobolev norms are kept per parameter
    set once computed, so the arrays are not to be changed after that.
    """

    poles: np.ndarray
    coeffs: np.ndarray
    r: float
    dim: int
    truncation: int
    tail_bound: float
    locations: np.ndarray
    strengths: np.ndarray
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("expansion radius must lie in (0, 1)")

    @property
    def charge_count(self) -> int:
        return len(self.poles)


def expand_field(f: HarmonicField, r: float, tol: float = 1e-12) -> FieldExpansion:
    """Expand f restricted to rS^d; requires every charge strictly inside r.

    The truncation degree is the smallest one whose geometric tail bound on
    the reconstruction error drops below tol.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must lie in (0, 1), got {r}")
    if len(f) and f.rho_max >= r:
        raise ValueError(
            f"series diverges: largest charge radius {f.rho_max:.9g} "
            f"is not below r = {r}"
        )
    d = f.dim
    area = surface_area(d)
    prefactor = float(np.abs(f.strengths).sum()) * r ** (1 - d)
    ratio = f.rho_max / r
    degree, tail = truncation_degree(d, ratio, tol=tol, prefactor=prefactor)
    l = np.arange(degree + 1)
    base = (d - 1) * area / (2 * l + d - 1) * r ** (1 - d)
    rho = np.linalg.norm(f.locations, axis=1)
    poles = f.locations / np.where(rho > 0, rho, 1.0)[:, None]
    poles[rho == 0, d] = 1.0
    coeffs = f.strengths[:, None] * base * (rho[:, None] / r) ** l
    return FieldExpansion(poles, coeffs, r, d, degree, tail, f.locations, f.strengths)


def expansion_values(expansion: FieldExpansion, directions) -> np.ndarray:
    """Reconstruct f(r * direction) from the stored coefficients."""
    weights = _degree_weights(expansion.dim, expansion.truncation)
    return _zonal_sum(expansion.poles, expansion.coeffs * weights, directions)


def apply_D_values(expansion: FieldExpansion, directions) -> np.ndarray:
    """Values of the degree-multiplying operator on the shell restriction.

    Degree l is scaled by (2l + d - 1) / ((d-1) * area), which cancels the
    kernel coefficient exactly; the plain multipole series with unit degree
    weights that is left is the Poisson kernel of the ball, so no truncation:
    a charge w at q gives w r^(1-d) (1 - t^2) / (area |zeta - q/r|^(d+1)),
    t = |q|/r, at a unit direction zeta.
    """
    d, r = expansion.dim, expansion.r
    sources = expansion.locations / r
    t2 = np.einsum("ij,ij->i", sources, sources)
    weights = expansion.strengths * r ** (1 - d) * (1.0 - t2) / surface_area(d)
    return _kernel_sum(sources, weights, directions, d + 1, "charge")


def apply_D(expansion: FieldExpansion, zeta) -> float:
    return float(apply_D_values(expansion, np.asarray(zeta, dtype=float)[None, :])[0])


def funk_hecke(kernel, degree: int, dim: int, nodes: int | None = None) -> float:
    """Funk-Hecke eigenvalue of a zonal kernel at one degree.

    lambda = (area(S^(d-1)) / area(S^d)) * integral of
    kernel(t) * P_degree(t) * (1-t^2)^((d-2)/2); Gauss-Jacobi quadrature with
    2 * degree + 20 nodes by default.
    """
    if nodes is None:
        nodes = 2 * degree + 20
    t, w = latitude_quadrature(dim, nodes)
    vals = np.asarray([float(kernel(ti)) for ti in t])
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel produced non-finite values at quadrature nodes")
    table = legendre_table(dim, degree, t)
    # area(S^(d-1)) / area(S^d)
    ratio = math.gamma((dim + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(dim / 2.0))
    return float(ratio * np.sum(w * vals * table[degree]))


@dataclass(frozen=True)
class SobolevParams:
    """Smoothness index and weight sequence for the sphere Sobolev scale."""

    s: float
    dim: int

    def __post_init__(self):
        _check_dim(self.dim)
        if not math.isfinite(self.s):
            raise ValueError(f"smoothness must be finite, got {self.s}")
        if self.s <= self.dim / 2.0:
            raise ValueError(
                f"smoothness must exceed dim/2 = {self.dim / 2}, got {self.s}"
            )

    def weights(self, max_degree: int) -> np.ndarray:
        l = np.arange(max_degree + 1, dtype=float)
        d = self.dim
        out = l**self.s * (2 * l + d - 1) / ((d - 1) * surface_area(d))
        out[0] = 1.0
        return out


def sobolev_norm(expansion: FieldExpansion, sp: SobolevParams) -> float:
    """Weighted coefficient norm of the shell restriction.

    The order sums collapse through the addition formula into pairwise
    Legendre values at pole dot products.  The norm is computed once per
    expansion and parameter set, and kept on the expansion.
    """
    if sp.dim != expansion.dim:
        raise ValueError("dimension mismatch between expansion and parameters")
    if sp not in expansion._norms:
        d, L, poles = expansion.dim, expansion.truncation, expansion.poles
        table = legendre_table(d, L, poles @ poles.T)
        # degree l contributes a_l . (table[l] @ a_l), a_l the l-th coefficient column
        cols = expansion.coeffs.T
        forms = np.sum(cols * np.einsum("lkj,lj->lk", table, cols), axis=1)
        total = float(forms @ (sp.weights(L) ** 2 * _degree_weights(d, L)))
        expansion._norms[sp] = math.sqrt(max(total, 0.0))
    return expansion._norms[sp]


@dataclass(frozen=True)
class EmbeddingConstants:
    """Pointwise-recovery constants from zeta closed forms of their series.

    The tails are certified relative remainders; 0.0 for the pure zeta of c**.
    """

    c_star: float
    c_star_star: float
    s: float
    dim: int
    tail_star: float
    tail_star_star: float


def _shifted_zeta(x: float, a: float, m: int) -> tuple[float, float]:
    """sum_{l>=1} l^(-x) (1 + a/l)^(-m), x > 1, and its relative remainder.

    Terms l < H are summed directly; for l >= H, (1 + a/l)^(-m) expands in
    powers of a/l, each summing to zeta(x + k, H).  A Taylor remainder of
    (1 + t)^(-m), t >= 0, is at most its first omitted term, so the first
    omitted tail term certifies the sum; H >= 2a makes the terms shrink.
    """
    h = max(64, math.ceil(2 * a))
    l = np.arange(1, h, dtype=float)
    total = float(np.sum(l**-x * (1 + a / l) ** -m))
    # tail terms underflow to 0.0 past x = 180; scipy's zeta is NaN near 1e15
    coeff, k, x = 1.0, 0, min(x, 1e4)
    term = zeta(x, h)
    while k < 64 and abs(term) > 1e-17 * total:
        total += term
        coeff *= -(m + k) * a / (k + 1)
        k += 1
        term = coeff * zeta(x + k, h)
    return float(total), float(abs(term) / total)


def embedding_constants(sp: SobolevParams) -> EmbeddingConstants:
    """Constants bounding sup |f_r| and sup |D f_r| by the Sobolev norm.

    With beta = 2s+1-d and a = (d-1)/2 their series are (e^d/|S^d|) zeta(beta)
    and e^d |S^d| (d-1)^2/4 * sum l^(-beta-2) (1 + a/l)^(-2).
    """
    d, s = sp.dim, sp.s
    area = surface_area(d)
    e_d = math.exp(d)
    beta = 2 * s + 1 - d
    series, tail_star = _shifted_zeta(beta + 2, (d - 1) / 2.0, 2)
    c_star = math.sqrt(e_d * area * (d - 1) ** 2 / 4.0 * series + 1.0 / area)
    c_star_star = area * math.sqrt(e_d / area * zeta(beta) + 1.0 / area**3)
    return EmbeddingConstants(c_star, c_star_star, s, d, tail_star, 0.0)


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    bound: float
    constant: float
    norm: float
    pairs_checked: int


def lipschitz_constant(sp: SobolevParams) -> float:
    """Explicit first-order modulus constant for the Sobolev scale.

    Cauchy-Schwarz per degree plus the endpoint derivative bound
    1 - P_l(u) <= P_l'(1) * |eta - zeta|^2 / 2 gives
    |f(eta) - f(zeta)| <= C * ||f|| * |eta - zeta| with
    C^2 = sum_l N_l * P_l'(1) / (area * m_l^2); requires s > (3d-2)/4.
    That is (d-1)^2 area / (2 d!) * sum l^(-beta) P(1/l) / (1 + a/l), with
    P(u) = prod_{j<d} (1 + ju), in closed form: P(u) / (1 + au) splits into a
    polynomial (zeta values) and P(-1/a) / (1 + au), zero for odd d.
    """
    d, s = sp.dim, sp.s
    if s <= (3 * d - 2) / 4.0:
        raise ValueError(
            f"smoothness must exceed (3*dim-2)/4 = {(3 * d - 2) / 4}, got {s}"
        )
    beta, a = 2 * s + 1 - d, (d - 1) / 2.0
    poly = npoly.polyfromroots(-1.0 / np.arange(1, d)) * math.factorial(d - 1)
    quotient, _ = npoly.polydiv(poly, [1.0, a])
    total = sum(c * zeta(beta + k) for k, c in enumerate(quotient))
    at_pole = math.prod(1.0 - j / a for j in range(1, d))
    if at_pole:
        total += at_pole * _shifted_zeta(beta, a, 1)[0]
    return math.sqrt((d - 1) ** 2 * surface_area(d) / (2 * math.factorial(d)) * total)


def lipschitz_check(
    field: HarmonicField, expansion: FieldExpansion, sp: SobolevParams, pairs
) -> LipschitzReport:
    """Compare observed difference quotients of f_r against the explicit bound.

    ``pairs`` is a sequence of (zeta, eta) unit-vector pairs; values are
    evaluated directly from the field (no truncation error) in one call.
    Pairs with zero gap are skipped and not counted.
    """
    constant = lipschitz_constant(sp)
    norm = sobolev_norm(expansion, sp)
    ends = np.asarray(pairs, dtype=float).reshape(-1, 2, field.dim + 1)
    gaps = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
    ends, gaps = ends[gaps != 0.0], gaps[gaps != 0.0]
    values = field_values(field, expansion.r * ends.reshape(-1, field.dim + 1))
    values = values.reshape(-1, 2)
    worst = float(np.max(np.abs(values[:, 1] - values[:, 0]) / gaps, initial=0.0))
    return LipschitzReport(worst, constant * norm, constant, norm, len(gaps))
