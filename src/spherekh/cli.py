"""Command-line front end: run verifications and studies, emit reports.

Exit codes: 0 on success, 1 when a bound is violated, a residual exceeds
the tolerance, or the accuracy gate fails, and 2 on input problems
(unusable flags, missing or malformed files, off-sphere points).
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import fileio
from .discrepancy import (
    AdmissibleWindowError,
    GateConditionError,
    duality_bound,
    kh_identity,
    partition_rule_bound,
    partition_weights,
    quadrature_error_bound,
    reduction_pipeline,
    scaling_study,
)
from .geom import (
    Scattering,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    representatives,
)
from .measures import ShellConfig, sphere_surface_quadrature

COMMANDS = (
    "verify-identity",
    "bound",
    "corollary3",
    "thm4a",
    "thm4b",
    "partition",
    "meshnorm",
    "scaling",
)

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    command: str
    d: int = 2
    r0: float = 0.3
    r: float = 0.7
    p: float = 2.0
    tol: float = 1e-8
    seed: int = 0
    degree: int = 80
    trunc_tol: float = 1e-12
    epsilon: float | None = None
    n: int | None = None
    n_values: list | None = None
    mu_degree: int = 60
    field: str | None = None
    sigma: str | None = None
    rule: str | None = None
    points: str | None = None
    out: str | None = None
    csv: str | None = None
    resolution: int | None = None


def _parse_exponent(text: str) -> float:
    if text in ("inf", "Inf", "INF"):
        return math.inf
    value = float(text)
    if value < 1.0:
        raise argparse.ArgumentTypeError(f"exponent must satisfy p >= 1, got {text}")
    return value


def _parse_sizes(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherekh",
        description=(
            "Verify potential-theoretic integration identities and error "
            "bounds on the d-sphere."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, shell=True):
        p.add_argument("--d", type=int, default=2, help="sphere dimension (>= 2)")
        if shell:
            p.add_argument("--r0", type=float, default=0.3, help="inner radius")
            p.add_argument("--r", type=float, default=0.7, help="shell radius")
        p.add_argument("--tol", type=float, default=1e-8, help="acceptance tolerance")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
        p.add_argument(
            "--degree", type=int, default=80, help="shell quadrature degree"
        )
        p.add_argument(
            "--trunc-tol",
            type=float,
            default=1e-12,
            help="expansion truncation tolerance",
        )
        p.add_argument("--out", help="write the JSON report here (default: stdout)")

    p = sub.add_parser("verify-identity", help="check the shell-pairing identity")
    common(p)
    p.add_argument("--field", required=True, help="charge-list JSON file")
    p.add_argument("--sigma", required=True, help="signed-measure CSV/JSON file")

    p = sub.add_parser("bound", help="check the dual-norm error bound")
    common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--p", type=_parse_exponent, default=2.0, help="exponent in [1, inf]")

    p = sub.add_parser("corollary3", help="bound the error of a quadrature rule")
    common(p)
    p.add_argument("--field", required=True)
    p.add_argument("--rule", required=True, help="rule nodes/weights CSV/JSON")
    p.add_argument("--p", type=_parse_exponent, default=2.0)
    p.add_argument(
        "--mu-degree",
        type=int,
        default=60,
        help="degree of the reference surface quadrature",
    )

    p = sub.add_parser("thm4a", help="partition-rule sup bound on one shell")
    common(p)
    p.add_argument("--n", type=int, required=True, help="equal-area partition size")
    p.add_argument("--mu-degree", type=int, default=60)

    p = sub.add_parser("thm4b", help="reduction pipeline with accuracy gate")
    common(p, shell=False)
    p.add_argument("--r0", type=float, default=0.3)
    p.add_argument("--epsilon", type=float, required=True, help="target accuracy")
    p.add_argument("--points", help="scattering CSV/JSON (default: equal-area centers)")
    p.add_argument("--n", type=int, help="equal-area size when --points is absent")
    p.add_argument("--mu-degree", type=int, default=60)
    p.add_argument("--resolution", type=int, help="mesh-norm sampling resolution")

    p = sub.add_parser("partition", help="export an equal-area partition")
    common(p, shell=False)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("meshnorm", help="estimate the covering radius of points")
    common(p, shell=False)
    p.add_argument("--points", required=True)
    p.add_argument("--resolution", type=int)

    p = sub.add_parser("scaling", help="decay study across partition sizes")
    common(p)
    p.add_argument(
        "--n-values",
        type=_parse_sizes,
        default=[64, 256, 1024],
        help="comma-separated ascending sizes",
    )
    p.add_argument("--csv", help="also write the row table as CSV here")

    return parser


def parse_args(argv) -> RunConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    allowed = {f.name for f in fields(RunConfig)}
    kwargs = {k: v for k, v in vars(ns).items() if k in allowed}
    config = RunConfig(**kwargs)
    if config.d < 2:
        parser.error(f"--d: dimension must be at least 2, got {config.d}")
    if hasattr(ns, "r"):
        if not 0 < config.r0 < config.r < 1:
            parser.error(
                f"--r0/--r: requires r0 < r with both in (0, 1), got "
                f"r0={config.r0}, r={config.r}"
            )
    elif hasattr(ns, "r0") and not 0 < config.r0 < 1:
        parser.error(f"--r0: must lie in (0, 1), got {config.r0}")
    if config.tol <= 0:
        parser.error(f"--tol: tolerance must be positive, got {config.tol}")
    if config.command == "thm4b" and config.points is None and config.n is None:
        parser.error("thm4b: provide --points or --n")
    return config


def _emit(config: RunConfig, payload: dict) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "seed": config.seed,
        **payload,
    }
    text = fileio.json_dumps(payload)
    if config.out:
        Path(config.out).write_text(text + "\n")
    else:
        print(text)


def _digests(**paths) -> dict:
    return {
        name: fileio.file_digest(path)
        for name, path in paths.items()
        if path is not None
    }


def _shell(config: RunConfig) -> ShellConfig:
    return ShellConfig(config.r0, config.r)


def _run_verify_identity(config: RunConfig) -> int:
    field = fileio.read_field(config.field)
    sigma = fileio.read_measure(config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = kh_identity(field, sigma, _shell(config), quad, config.trunc_tol)
    _emit(
        config,
        {
            "inputs": _digests(field=config.field, sigma=config.sigma),
            "tolerances": {"tol": config.tol, "trunc_tol": config.trunc_tol},
            "result": report.to_dict(),
        },
    )
    return 0 if report.relative <= config.tol else 1


def _bound_exit(report) -> int:
    violated = report.slack < -1e-9 or report.slack_sharp < -1e-9
    return 1 if violated else 0


def _run_bound(config: RunConfig) -> int:
    field = fileio.read_field(config.field)
    sigma = fileio.read_measure(config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = duality_bound(
        field, sigma, _shell(config), quad, config.p, config.trunc_tol
    )
    _emit(
        config,
        {
            "inputs": _digests(field=config.field, sigma=config.sigma),
            "tolerances": {"tol": config.tol, "trunc_tol": config.trunc_tol},
            "result": report.to_dict(),
        },
    )
    return _bound_exit(report)


def _run_corollary3(config: RunConfig) -> int:
    field = fileio.read_field(config.field)
    rule = fileio.read_measure(config.rule)
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = quadrature_error_bound(
        field, mu, rule, _shell(config), quad, config.p, config.trunc_tol
    )
    _emit(
        config,
        {
            "inputs": _digests(field=config.field, rule=config.rule),
            "tolerances": {"tol": config.tol, "trunc_tol": config.trunc_tol},
            "result": report.to_dict(),
        },
    )
    return _bound_exit(report)


def _run_thm4a(config: RunConfig) -> int:
    part = equal_area_partition(config.d, config.n)
    matched = match_partition_to_scattering(
        part, Scattering(representatives(part))
    )
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    report = partition_rule_bound(mu, matched, _shell(config), mu)
    weights = partition_weights(mu, matched)
    _emit(
        config,
        {
            "inputs": {},
            "tolerances": {"tol": config.tol},
            "n": config.n,
            "rule_mass": float(weights.sum()),
            "result": report.to_dict(),
        },
    )
    return 0 if report.measured_sup <= report.bound + 1e-9 else 1


def _run_thm4b(config: RunConfig) -> int:
    if config.points is not None:
        scattering = Scattering(fileio.read_points(config.points))
    else:
        part = equal_area_partition(config.d, config.n)
        scattering = Scattering(representatives(part))
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    try:
        report = reduction_pipeline(
            scattering,
            mu,
            config.epsilon,
            config.r0,
            resolution=config.resolution,
        )
    except (GateConditionError, AdmissibleWindowError) as exc:
        _emit(
            config,
            {
                "inputs": _digests(points=config.points),
                "tolerances": {"epsilon": config.epsilon},
                "failure": type(exc).__name__,
                "detail": str(exc),
            },
        )
        return 1
    _emit(
        config,
        {
            "inputs": _digests(points=config.points),
            "tolerances": {"epsilon": config.epsilon},
            "result": report.to_dict(),
        },
    )
    return 0 if report.within_epsilon else 1


def _run_partition(config: RunConfig) -> int:
    part = equal_area_partition(config.d, config.n)
    if config.out:
        fileio.write_partition_json(config.out, part)
    else:
        print(fileio.json_dumps(fileio.partition_payload(part)))
    return 0


def _run_meshnorm(config: RunConfig) -> int:
    scattering = Scattering(fileio.read_points(config.points))
    estimate = mesh_norm(scattering, config.resolution)
    _emit(
        config,
        {
            "inputs": _digests(points=config.points),
            "result": {
                "value": estimate.value,
                "lower": estimate.lower,
                "upper": estimate.upper,
                "resolution_error": estimate.resolution_error,
                "count": len(scattering),
            },
        },
    )
    return 0


def _run_scaling(config: RunConfig) -> int:
    quad = sphere_surface_quadrature(config.d, config.degree)
    study = scaling_study(config.d, config.n_values, _shell(config), quad)
    if config.csv:
        lines = ["n,mesh_norm,partition_norm,measured_sup,bound"]
        for row in study.rows:
            lines.append(
                ",".join(
                    [str(row.n)]
                    + [
                        fileio.format_float(v)
                        for v in (
                            row.mesh_norm,
                            row.partition_norm,
                            row.measured_sup,
                            row.bound,
                        )
                    ]
                )
            )
        Path(config.csv).write_text("\n".join(lines) + "\n")
    _emit(
        config,
        {
            "inputs": {},
            "tolerances": {"tol": config.tol},
            "result": study.to_dict(),
        },
    )
    return 0


_RUNNERS = {
    "verify-identity": _run_verify_identity,
    "bound": _run_bound,
    "corollary3": _run_corollary3,
    "thm4a": _run_thm4a,
    "thm4b": _run_thm4b,
    "partition": _run_partition,
    "meshnorm": _run_meshnorm,
    "scaling": _run_scaling,
}


def run(config: RunConfig) -> int:
    return _RUNNERS[config.command](config)


def main(argv=None) -> int:
    config = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        return run(config)
    except (GateConditionError, AdmissibleWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
