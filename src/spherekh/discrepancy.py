"""Integration-error reports built from shell potentials.

The centerpiece is an exact factorization of the integration error of a
signed atomic measure against an exterior-harmonic field: the measure
integral equals a pairing, over a concentric shell, of the transformed
field with the Newtonian potential of the measure.  From that identity
come Hoelder-type error bounds, quadrature-rule error estimates for rules
weighted by partition masses, and a reduction pipeline that certifies a
target accuracy on a whole window of shell radii.

Every public operation returns a small report dataclass whose ``to_dict``
method yields JSON-ready values; nothing here touches the filesystem.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .geom import (
    Partition,
    Scattering,
    _reduce_on_grid,
    _sampled_mesh_norm,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    partition_norm,
    representatives,
)
from .harmonic import HarmonicField, apply_D_values, expand_field, field_values
from .measures import (
    DiscreteSignedMeasure,
    QuadratureMeasure,
    ShellConfig,
    _azimuth_period,
    _one_blas_thread,
    conjugate_exponent,
    potential_values,
    shell_norm,
    sphere_surface_quadrature,
)

__all__ = [
    "IdentityReport",
    "BoundReport",
    "PartitionSupReport",
    "ScalingRow",
    "ScalingStudy",
    "GateConditionError",
    "AdmissibleWindowError",
    "kh_identity",
    "duality_bound",
    "quadrature_error_bound",
    "partition_weights",
    "difference_measure",
    "partition_rule_bound",
    "reduction_pipeline",
    "scaling_study",
]


class GateConditionError(ValueError):
    """The scattering is too coarse for the requested accuracy."""


class AdmissibleWindowError(ValueError):
    """No shell radius satisfies the accuracy premise."""


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of the error-factorization identity and their residual."""

    lhs: float
    rhs: float
    residual: float
    relative: float
    truncation: int
    quadrature_degree: int | None

    def to_dict(self) -> dict:
        return {"report": "identity", **asdict(self)}


@dataclass(frozen=True)
class BoundReport:
    """A Hoelder-type majorant of the integration error.

    ``rhs`` carries the conservative inner-radius prefactor 1/r0;
    ``rhs_sharp`` the tighter 1/r variant that the identity itself yields.
    """

    lhs: float
    rhs: float
    slack: float
    p: float
    p_conjugate: float
    operator_norm: float
    potential_norm: float
    prefactor: float
    rhs_sharp: float
    slack_sharp: float

    def to_dict(self) -> dict:
        return {"report": "bound", **asdict(self)}


@dataclass(frozen=True)
class PartitionSupReport:
    """Measured vs. bounded sup of the rule-error potential on shells."""

    measured_sup: float
    bound: float
    partition_norm: float
    radius: float | None = None
    mesh_norm_interval: tuple[float, float] | None = None
    epsilon: float | None = None
    r_admissible_upper: float | None = None
    gate_quotient: float | None = None
    window_quotient: float | None = None
    within_epsilon: bool | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if d["mesh_norm_interval"] is not None:
            d["mesh_norm_interval"] = list(d["mesh_norm_interval"])
        return {"report": "partition_sup", **d}


@dataclass(frozen=True)
class ScalingRow:
    n: int
    mesh_norm: float
    partition_norm: float
    measured_sup: float
    bound: float


@dataclass(frozen=True)
class ScalingStudy:
    """Decay of the rule-error potential across partition sizes."""

    rows: tuple[ScalingRow, ...]
    fit_exponent: float
    dim: int
    radius: float

    def to_dict(self) -> dict:
        return {
            "report": "scaling",
            "rows": [asdict(row) for row in self.rows],
            "fit_exponent": self.fit_exponent,
            "dim": self.dim,
            "radius": self.radius,
        }


def _check_dims(field: HarmonicField, sigma, quad: QuadratureMeasure):
    if sigma.dim != field.dim or quad.dim != field.dim:
        raise ValueError(
            f"dimension mismatch: field on S^{field.dim}, measure on "
            f"S^{sigma.dim}, quadrature on S^{quad.dim}"
        )


def _check_inner(field: HarmonicField, cfg: ShellConfig):
    if len(field) and field.rho_max >= cfg.r0:
        raise ValueError(
            f"charges must lie strictly inside the inner ball: max charge "
            f"radius {field.rho_max:.6g} >= r0 = {cfg.r0:.6g}"
        )


def _check_radius(r: float):
    if not 0.0 < r < 1.0:
        raise ValueError(f"shell radius must lie in (0, 1), got {r}")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b with OpenBLAS held at one thread.

    A long dot is split into partial sums across BLAS threads; held at one,
    its value does not depend on the host's thread count.
    """
    with _one_blas_thread():
        return float(a @ b)


def kh_identity(
    field: HarmonicField,
    sigma: DiscreteSignedMeasure,
    cfg: ShellConfig,
    quad: QuadratureMeasure,
    tol: float = 1e-12,
) -> IdentityReport:
    """Check that the atomic integral equals the shell pairing.

    The left side is the plain sum of weights times field values at the
    atoms.  The right side integrates, over the radius-``cfg.r`` shell, the
    coefficient-transformed field restriction against the Newtonian
    potential of the measure, scaled by one power of the radius.
    """
    _check_dims(field, sigma, quad)
    _check_inner(field, cfg)
    atom_values = field_values(field, sigma.points)
    lhs = _dot(sigma.weights, atom_values)
    expansion = expand_field(field, cfg.r, tol)
    d_profile = apply_D_values(expansion, quad.nodes)
    u_profile = potential_values(sigma, cfg.r * quad.nodes)
    d = field.dim
    rhs = cfg.r ** (d - 1) * _dot(quad.weights, d_profile * u_profile)
    residual = abs(lhs - rhs)
    peak = float(np.max(np.abs(atom_values))) if len(atom_values) else 0.0
    scale = max(abs(lhs), sigma.total_variation * peak)
    relative = residual / scale if scale > 0 else residual
    return IdentityReport(
        lhs, rhs, residual, relative, expansion.truncation, quad.degree
    )


def duality_bound(
    field: HarmonicField,
    sigma: DiscreteSignedMeasure,
    cfg: ShellConfig,
    quad: QuadratureMeasure,
    p: float,
) -> BoundReport:
    """Majorize |integral of f against sigma| by a product of shell norms.

    The conservative form divides by the inner radius r0; the report also
    carries the sharper division by the shell radius r itself.
    """
    _check_dims(field, sigma, quad)
    _check_inner(field, cfg)
    lhs = abs(_dot(sigma.weights, field_values(field, sigma.points)))
    expansion = expand_field(field, cfg.r)
    d_profile = apply_D_values(expansion, quad.nodes)
    u_profile = potential_values(sigma, cfg.r * quad.nodes)
    q = conjugate_exponent(p)
    operator_norm = shell_norm(d_profile, quad, cfg, p)
    potential_norm = shell_norm(u_profile, quad, cfg, q)
    product = operator_norm * potential_norm
    rhs = product / cfg.r0
    rhs_sharp = product / cfg.r
    return BoundReport(
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        p=float(p),
        p_conjugate=float(q),
        operator_norm=operator_norm,
        potential_norm=potential_norm,
        prefactor=1.0 / cfg.r0,
        rhs_sharp=rhs_sharp,
        slack_sharp=rhs_sharp - lhs,
    )


def difference_measure(
    mu: QuadratureMeasure, nu: DiscreteSignedMeasure
) -> DiscreteSignedMeasure:
    """The signed measure mu - nu, merging bitwise-equal atoms.

    Merging makes exact cancellation literal: a rule whose atoms and
    weights coincide with the quadrature yields the zero measure.
    """
    if mu.dim != nu.dim:
        raise ValueError(
            f"dimension mismatch: quadrature on S^{mu.dim}, rule on S^{nu.dim}"
        )
    points = np.vstack([mu.points, nu.points])
    weights = np.concatenate([mu.weights, -nu.weights])
    merged, inverse = np.unique(points, axis=0, return_inverse=True)
    combined = np.bincount(inverse.ravel(), weights=weights, minlength=len(merged))
    return DiscreteSignedMeasure(merged, combined)


def quadrature_error_bound(
    field: HarmonicField,
    mu: QuadratureMeasure,
    nu: DiscreteSignedMeasure,
    cfg: ShellConfig,
    quad: QuadratureMeasure,
    p: float,
) -> BoundReport:
    """Bound the error of the rule ``nu`` against the quadrature ``mu``.

    The left side is the honest rule error; the right side applies the
    duality bound to the difference measure.
    """
    return duality_bound(field, difference_measure(mu, nu), cfg, quad, p)


def partition_weights(mu: QuadratureMeasure, partition) -> np.ndarray:
    """Region masses of ``mu``: the weight a rule gives each representative."""
    idx = partition.region_index(mu.points)
    return np.bincount(idx, weights=mu.weights, minlength=partition.size)


def _rule_error_profile(mu, partition, weights, r, probe) -> np.ndarray:
    """U_mu - U_nu at r times each probe node; nu puts weights[c] on region c.

    A region holding no node of mu adds only zero terms, so it is left out.
    When mu and the probe share an azimuth period q, U_mu takes one value
    on each run of q probe nodes, so it is summed at the run's first node.
    """
    keep = weights != 0
    nu = DiscreteSignedMeasure(partition.reps[keep], weights[keep])
    q = period if (period := _azimuth_period(mu)) == _azimuth_period(probe) else 1
    targets = r * probe.nodes
    return np.repeat(potential_values(mu, targets[::q]), q) - potential_values(nu, targets)


def partition_rule_bound(
    mu: QuadratureMeasure,
    matched: Partition,
    r: float,
    quad: QuadratureMeasure,
) -> PartitionSupReport:
    """Measured vs. guaranteed sup of the rule-error potential on one shell.

    The rule puts the mass of each region on its scattering point; the sup
    of the resulting error potential over the radius-r shell is bounded by
    (d-1) * mass * partition-norm / (1-r)^(d+1), for r in (0, 1).
    """
    _check_radius(r)
    if mu.dim != matched.dim:
        raise ValueError(
            f"dimension mismatch: quadrature on S^{mu.dim}, partition on "
            f"S^{matched.dim}"
        )
    return _rule_bound(mu, matched, partition_weights(mu, matched), r, quad)


def _rule_bound(mu, matched, weights, r, quad) -> PartitionSupReport:
    """partition_rule_bound given the rule weights partition_weights(mu, matched)."""
    profile = _rule_error_profile(mu, matched, weights, r, quad)
    measured = float(np.max(np.abs(profile)))
    pnorm = partition_norm(matched)
    d = mu.dim
    bound = (d - 1) * mu.mass * pnorm / (1.0 - r) ** (d + 1)
    return PartitionSupReport(
        measured_sup=measured, bound=bound, partition_norm=pnorm, radius=r
    )


def reduction_pipeline(
    scattering: Scattering,
    mu: QuadratureMeasure,
    epsilon: float,
    r0: float,
    resolution: int | None = None,
) -> PartitionSupReport:
    """Certify a target sup-accuracy on a window of shell radii.

    Gate: the scattering's mesh norm must be small enough that
    (d-1) * 8d * sqrt(2d(d+1)) * mass * mesh / epsilon < 1; otherwise a
    GateConditionError explains the failure.  The scattering is then
    reduced to a matched partition, the quotient
    q = (d-1) * mass * partition-norm / epsilon must stay below 1, and the
    admissible radii run up to 1 - q^(1/(d+1)).

    One radius is probed, on a degree-40 quadrature: rho = r0 + 8/9
    (upper - r0), where the bound is taken.  Every atom of the rule-error
    measure lies on S^d, so its potential is harmonic in the open unit
    ball; by the maximum principle the max of its modulus over |x| <= rho
    is reached on |x| = rho, and it does not decrease as rho grows.  The sup
    at rho therefore covers every radius of the window up to rho.  The
    report records that radius, its measured sup and whether it stayed
    within epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    d = scattering.dim
    if mu.dim != d:
        raise ValueError(
            f"dimension mismatch: scattering on S^{d}, quadrature on S^{mu.dim}"
        )
    if not 0 < r0 < 1:
        raise ValueError(f"r0 must lie in (0, 1), got {r0}")
    # one sample grid serves the gate and the reduction
    samples, estimate = _sampled_mesh_norm(scattering, resolution)
    gate_constant = 8 * d * math.sqrt(2 * d * (d + 1))
    gate_quotient = (d - 1) * gate_constant * mu.mass * estimate.upper / epsilon
    if gate_quotient >= 1.0:
        raise GateConditionError(
            "mesh norm too large for epsilon: "
            f"(d-1) * 8d*sqrt(2d(d+1)) * mass * mesh / epsilon = "
            f"{gate_quotient:.6g} >= 1 (mesh norm upper estimate "
            f"{estimate.upper:.6g}, mass {mu.mass:.6g}, epsilon {epsilon:.6g})"
        )
    reduction = _reduce_on_grid(scattering, samples, estimate)
    pnorm = reduction.partition_norm
    window_quotient = (d - 1) * mu.mass * pnorm / epsilon
    if window_quotient >= 1.0:
        raise AdmissibleWindowError(
            "reduced partition too coarse for epsilon: "
            f"(d-1) * mass * partition-norm / epsilon = {window_quotient:.6g}"
            f" >= 1 (partition norm {pnorm:.6g})"
        )
    r_upper = 1.0 - window_quotient ** (1.0 / (d + 1))
    if r_upper <= r0:
        raise AdmissibleWindowError(
            f"empty admissible radius window: upper end {r_upper:.6g} <= "
            f"r0 = {r0:.6g} (quotient {window_quotient:.6g})"
        )
    # 8/9 of the window, so reports keep the radius and bound of schema 1
    radius = r0 + (r_upper - r0) * 8 / 9.0
    part, probe = reduction.partition, sphere_surface_quadrature(d, 40)
    rule = _rule_bound(mu, part, partition_weights(mu, part), radius, probe)
    return replace(
        rule,
        mesh_norm_interval=(estimate.lower, estimate.upper),
        epsilon=epsilon,
        r_admissible_upper=r_upper,
        gate_quotient=gate_quotient,
        window_quotient=window_quotient,
        within_epsilon=bool(rule.measured_sup <= epsilon),
    )


def _scaling_row(dim: int, n: int, r: float, quad: QuadratureMeasure) -> ScalingRow:
    part = equal_area_partition(dim, n)
    points = Scattering(representatives(part))
    matched = match_partition_to_scattering(part, points)
    report = partition_rule_bound(quad, matched, r, quad)
    estimate = mesh_norm(points)
    return ScalingRow(
        n=n,
        mesh_norm=estimate.value,
        partition_norm=report.partition_norm,
        measured_sup=report.measured_sup,
        bound=report.bound,
    )


def scaling_study(
    dim: int,
    n_values,
    r: float,
    quad: QuadratureMeasure,
) -> ScalingStudy:
    """Rule-error decay for equal-area rules across partition sizes.

    Each row uses the partition's own center points as the scattering and
    the quadrature both as the target measure and as the shell probe.  The
    fitted exponent is the log-log slope of the measured sup against n
    (the expected rate is -1/dim).  The shell radius r lies in (0, 1).
    """
    _check_radius(r)
    n_values = [int(n) for n in n_values]
    if n_values != sorted(n_values) or len(set(n_values)) != len(n_values):
        raise ValueError("partition sizes must be strictly ascending")
    if len(n_values) < 2:
        raise ValueError("need at least two partition sizes to fit a rate")
    rows = [_scaling_row(dim, n, r, quad) for n in n_values]
    logs_n = np.log([row.n for row in rows])
    logs_sup = np.log([row.measured_sup for row in rows])
    exponent = float(np.polyfit(logs_n, logs_sup, 1)[0])
    return ScalingStudy(rows=tuple(rows), fit_exponent=exponent, dim=dim, radius=r)
