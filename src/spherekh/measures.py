"""Signed measures on the sphere and their Newtonian potentials.

A measure is a finite signed sum of atoms; a quadrature rule is the
positive case, which adds only its exactness degree.  The Newtonian kernel
is the harmonic one for R^(d+1), |x - y|^(1-d).  Degree-wise information
about an atomic measure is held zonally per atom: the degree-l component of
a unit atom against the addition-formula kernel has coefficient one, so
coefficient sequences live in ZonalCoefficients with a pole, and the
inward sweep onto a shell is a per-degree geometric rescaling.

Kernel sums share their target rows out among ``geom._thread_count()``
workers, one per CPU this process may run on.  While a sum runs, numpy's
bundled OpenBLAS is held at one thread: its own threads gain nothing on
these small block products and would serialise the workers.  Every row
runs the same single-threaded calls whichever worker takes it, so the
values do not depend on the worker count.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .geom import _thread_count, _validated_sphere_points
from .specfun import _degree_weights, latitude_quadrature, legendre_table, surface_area

__all__ = [
    "ShellConfig",
    "DiscreteSignedMeasure",
    "QuadratureMeasure",
    "ZonalCoefficients",
    "SingularityError",
    "sphere_surface_quadrature",
    "potential_values",
    "shell_norm",
    "conjugate_exponent",
    "zonal_coefficients_of_atom",
    "balayage_transform",
    "zonal_potential_profile",
    "shell_zonal_potential_profile",
]

_SINGULARITY_GUARD = 1e-12
# |x|^2 + |y|^2 - 2 x.y carries ~1e-16 of absolute rounding, over 1e-12 of
# any squared distance below this: those are recomputed from x - y
_RECOMPUTE_BELOW = 1e-4
# squared-distance entries per block of a kernel sum (1 MB of float64)
_BLOCK = 1 << 17
# held while a kernel sum keeps OpenBLAS at one thread, so that concurrent
# sums cannot restore each other's counts out of order
_BLAS_LOCK = threading.Lock()


class SingularityError(ValueError):
    """An evaluation point collides with an atom of the measure."""


@dataclass(frozen=True)
class ShellConfig:
    """Inner support radius r0 and evaluation shell radius r, 0 < r0 < r < 1."""

    r0: float
    r: float

    def __post_init__(self):
        if not 0.0 < self.r0 < self.r < 1.0:
            raise ValueError(
                f"shell radii must satisfy 0 < r0 < r < 1, got r0={self.r0}, r={self.r}"
            )


@dataclass
class DiscreteSignedMeasure:
    """Finite signed combination of unit-sphere atoms."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = _validated_sphere_points(self.points, "measure support")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) != len(self.points):
            raise ValueError("weights must be a vector aligned with the atoms")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")

    @property
    def dim(self) -> int:
        return self.points.shape[1] - 1

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def positive_part(self) -> "DiscreteSignedMeasure":
        keep = self.weights > 0
        if not np.any(keep):
            raise ValueError("measure has no positive part")
        return DiscreteSignedMeasure(self.points[keep], self.weights[keep])

    def negative_part(self) -> "DiscreteSignedMeasure":
        keep = self.weights < 0
        if not np.any(keep):
            raise ValueError("measure has no negative part")
        return DiscreteSignedMeasure(self.points[keep], -self.weights[keep])

    def scaled(self, factor: float) -> "DiscreteSignedMeasure":
        return DiscreteSignedMeasure(self.points, factor * self.weights)


@dataclass
class QuadratureMeasure(DiscreteSignedMeasure):
    """Positive measure on the unit sphere: a quadrature rule.

    The surface-measure factory produces weights summing to the sphere area;
    `normalized` copies rescale to unit mass for probability surrogates.
    ``degree`` records the polynomial exactness when known, and ``nodes``
    is the support under its quadrature name.
    """

    degree: int | None = None

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def nodes(self) -> np.ndarray:
        return self.points

    def normalized(self) -> "QuadratureMeasure":
        return QuadratureMeasure(self.points, self.weights / self.mass, self.degree)


def _circle_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    angles = 2.0 * math.pi * np.arange(count) / count
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    weights = np.full(count, 2.0 * math.pi / count)
    return nodes, weights


def _product_nodes(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    if dim == 1:
        return _circle_nodes(degree + 1)
    t, wt = latitude_quadrature(dim, degree // 2 + 1)
    sub_nodes, sub_w = _product_nodes(dim - 1, degree)
    s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    nodes = np.empty((len(t) * len(sub_nodes), dim + 1))
    weights = np.empty(len(t) * len(sub_nodes))
    m = len(sub_nodes)
    for i in range(len(t)):
        nodes[i * m : (i + 1) * m, :dim] = s[i] * sub_nodes
        nodes[i * m : (i + 1) * m, dim] = t[i]
        weights[i * m : (i + 1) * m] = wt[i] * sub_w
    return nodes, weights


def sphere_surface_quadrature(dim: int, degree: int) -> QuadratureMeasure:
    """Product quadrature on S^dim exact for polynomials up to ``degree``.

    Gauss nodes against the latitude weight times a uniform azimuth grid,
    applied recursively; weights sum to the surface area.  The azimuth
    index is innermost: the nodes fall into consecutive runs of degree + 1,
    each the (x_0, x_1) circle rotations by 2 pi k / (degree + 1) of its
    first node at one weight, with the other coordinates held.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    nodes, weights = _product_nodes(dim, degree)
    return QuadratureMeasure(nodes, weights, degree=degree)


def _azimuth_period(measure: DiscreteSignedMeasure) -> int:
    """Order q of the (x_0, x_1) rotations that map the measure to itself, or 1.

    q = degree + 1 is checked on the layout of sphere_surface_quadrature:
    each run of q atoms is its first turned by 2 pi k / q to within 1e-14,
    with the other coordinates and the weight held along the run.
    """
    q = (getattr(measure, "degree", None) or 0) + 1
    if q == 1 or len(measure.points) % q:
        return 1
    runs = measure.points.reshape(-1, q, measure.points.shape[1])
    weights, plane = measure.weights.reshape(-1, q), runs[..., 0] + 1j * runs[..., 1]
    turned = np.exp(2j * math.pi * np.arange(q) / q) * plane[:, :1]
    held = np.all(runs[..., 2:] == runs[:, :1, 2:]) and np.all(weights == weights[:, :1])
    return q if held and np.all(np.abs(plane - turned) <= 1e-14) else 1


def potential_values(measure: DiscreteSignedMeasure, targets) -> np.ndarray:
    """Newtonian potential of the measure at each target point (vectorized).

    Targets may lie anywhere except within 1e-12 of an atom.
    """
    return _kernel_sum(measure.points, measure.weights, targets, measure.dim - 1)


@cache
def _openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    Loaded on the first kernel sum rather than at import.
    """
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, then restore its count; yields whether it could."""
    blas = _openblas()
    if blas is None:
        yield False
        return
    get, put = blas
    with _BLAS_LOCK:
        before = get()
        put(1)
        try:
            yield True
        finally:
            put(before)


@cache
def _pool(workers: int):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="spherekh-kernel")


def _kernel_sum(sources, weights, targets, exponent, name="atom") -> np.ndarray:
    """sum_j weights[j] * |targets[i] - sources[j]|^(-exponent) for each i.

    Blocks of about _BLOCK squared distances come from one matrix product of
    augmented coordinates, [x, 1, |x|^2] . [-2y, |y|^2, 1]; the power takes
    multiplies, at most one sqrt and a reciprocal (exponent >= 1).  A pair
    within _SINGULARITY_GUARD raises SingularityError naming the target and
    the source, which the message calls ``name``.

    Each worker takes a contiguous run of row blocks and writes only its
    rows of the result; a row adds its source tiles in order.  Without an
    OpenBLAS to hold at one thread (an MKL or Accelerate numpy), the blocks
    run serially.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, (m, k) = len(targets), sources.shape
    if targets.shape[1] != k:
        raise ValueError(f"targets have {targets.shape[1]} coordinates, expected {k}")
    left = np.column_stack(
        [targets, np.ones(n), np.einsum("ij,ij->i", targets, targets)]
    )
    right = np.vstack(
        [-2.0 * sources.T, np.einsum("ij,ij->i", sources, sources), np.ones(m)]
    )
    # a block keeps at least 32 targets: one-row blocks run 4x slower
    cols = max(1, min(m, _BLOCK // 32))
    rows = _BLOCK // cols
    half, odd = divmod(exponent, 2)
    out = np.zeros(n)

    def share(begin: int, end: int) -> None:
        sq_buf = np.empty(min(rows, end - begin) * cols)
        kern_buf = np.empty_like(sq_buf) if odd or half > 1 else sq_buf
        for start in range(begin, end, rows):
            stop = min(start + rows, end)
            for first in range(0, m, cols):
                last = min(first + cols, m)
                shape = (stop - start, last - first)
                sq = sq_buf[: shape[0] * shape[1]].reshape(shape)
                np.matmul(left[start:stop], right[:, first:last], out=sq)
                if sq.min() < _RECOMPUTE_BELOW:
                    i, j = np.nonzero(sq < _RECOMPUTE_BELOW)
                    diff = targets[start + i] - sources[first + j]
                    sq[i, j] = np.einsum("ij,ij->i", diff, diff)
                    if sq.min() <= _SINGULARITY_GUARD**2:
                        i, j = divmod(int(np.argmin(sq)), shape[1])
                        raise SingularityError(
                            f"evaluation point {start + i} coincides with "
                            f"{name} {first + j}"
                        )
                kern = kern_buf[: sq.size].reshape(shape)
                if odd:
                    np.sqrt(sq, out=kern)
                    for _ in range(half):
                        kern *= sq
                elif half > 1:
                    np.multiply(sq, sq, out=kern)
                    for _ in range(half - 2):
                        kern *= sq
                np.reciprocal(kern, out=kern)
                out[start:stop] += kern @ weights[first:last]

    with _one_blas_thread() as held:
        blocks = -(-n // rows)
        workers = _thread_count() if held and blocks > 1 else 1
        shares = min(workers, blocks)
        if shares <= 1:
            share(0, n)
        else:
            edges = [min(n, rows * (blocks * s // shares)) for s in range(shares + 1)]
            pool = _pool(workers)
            futures = [pool.submit(share, a, b) for a, b in zip(edges, edges[1:])]
            # wait for every share; the lowest share's error names the pair
            # the serial loop would have met first
            errors = [f.exception() for f in futures]
            for error in errors:
                if error is not None:
                    raise error
    return out


def conjugate_exponent(p: float) -> float:
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def shell_norm(profile, quad: QuadratureMeasure, cfg: ShellConfig, p: float) -> float:
    """L_p norm of a shell profile against the surface measure of r S^d.

    The surface element on the shell is r^d times the unit-sphere one, so
    finite-p norms carry the factor r^d inside the sum; p = inf is the max.
    """
    vals = np.asarray(profile, dtype=float)
    if vals.shape != quad.weights.shape:
        raise ValueError("profile and quadrature are not aligned")
    if p == math.inf:
        return float(np.max(np.abs(vals)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"norm exponent must be at least 1, got {p}")
    d = quad.dim
    return float(np.sum(quad.weights * cfg.r**d * np.abs(vals) ** p) ** (1.0 / p))


def _unit_pole(pole) -> np.ndarray:
    arr = np.asarray(pole, dtype=float)
    nrm = float(np.linalg.norm(arr))
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"pole must lie on the unit sphere, |p| = {nrm:.9g}")
    return arr / nrm


@dataclass
class ZonalCoefficients:
    """Per-degree coefficients of a rotationally reduced measure.

    Represents sum_l coeffs[l] * (N_l / area) * P_l(pole . zeta) where N_l is
    the degree-l harmonic count; a unit atom has all coefficients one.
    """

    pole: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.pole = _unit_pole(self.pole)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coefficients must be a nonempty vector")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def dim(self) -> int:
        return len(self.pole) - 1

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1


def zonal_coefficients_of_atom(pole, truncation: int) -> ZonalCoefficients:
    """Zonal normal form of a unit atom: every degree carries coefficient 1."""
    if truncation < 0:
        raise ValueError("truncation degree must be nonnegative")
    return ZonalCoefficients(pole, np.ones(truncation + 1))


def balayage_transform(zc: ZonalCoefficients, cfg: ShellConfig) -> ZonalCoefficients:
    """Sweep a unit-sphere measure onto the shell r S^d.

    Degree l picks up the factor r^(l + d - 1); the potential of the swept
    measure agrees with the original on the closed ball of radius r.
    """
    d = zc.dim
    l = np.arange(len(zc.coeffs))
    return ZonalCoefficients(zc.pole.copy(), zc.coeffs * cfg.r ** (l + d - 1))


def _zonal_sum(poles, factors, directions) -> np.ndarray:
    """sum_k sum_l factors[k, l] * P_l(poles[k] . direction) at each direction.

    ``poles`` is (m, d+1) or one pole, ``factors`` (m, L+1) or one row; one
    Legendre table over all m * n pole-direction products, (L+1) m n values,
    and one contraction.
    """
    poles, factors = np.atleast_2d(poles), np.atleast_2d(factors)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    dim, max_degree = poles.shape[1] - 1, factors.shape[1] - 1
    table = legendre_table(dim, max_degree, poles @ dirs.T)
    return factors.T.ravel() @ table.reshape(-1, len(dirs))


def zonal_potential_profile(zc: ZonalCoefficients, radius: float, directions) -> np.ndarray:
    """Potential of the unit-sphere measure at radius * direction, radius < 1.

    Degree l carries the kernel coefficient (d-1) * area * r^l / (2l + d - 1).
    """
    radius = float(radius)
    if not 0.0 < radius < 1.0:
        raise ValueError(f"radius must lie strictly inside (0, 1), got {radius}")
    d, l = zc.dim, np.arange(len(zc.coeffs))
    kernel = (d - 1) * surface_area(d) * radius**l / (2 * l + d - 1)
    factors = zc.coeffs * kernel * _degree_weights(d, zc.max_degree)
    return _zonal_sum(zc.pole, factors, directions)


def shell_zonal_potential_profile(
    zc: ZonalCoefficients, cfg: ShellConfig, directions
) -> np.ndarray:
    """Potential of a measure living on r S^d, evaluated on r S^d itself.

    The degree-l kernel factor on the common sphere is
    (d-1) * area / ((2l + d - 1) * r^(d-1)); convergence requires the
    coefficients to decay, which swept measures do geometrically.
    """
    d, l = zc.dim, np.arange(len(zc.coeffs))
    kernel = (d - 1) * surface_area(d) / ((2 * l + d - 1) * cfg.r ** (d - 1))
    factors = zc.coeffs * kernel * _degree_weights(d, zc.max_degree)
    return _zonal_sum(zc.pole, factors, directions)
