"""Command-line front end: run verifications and studies, emit reports.

Exit codes: 0 on success, 1 when a bound is violated, a residual exceeds
the tolerance, or the accuracy gate fails, and 2 on input problems
(unusable flags, missing or malformed files, off-sphere points).
"""

import argparse
import math
import sys

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

SCHEMA_VERSION = 2


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _parse_exponent(text: str) -> float:
    value = float(text)
    if not value >= 1.0:
        raise argparse.ArgumentTypeError(f"exponent must satisfy p >= 1, got {text}")
    return value


def _parse_sizes(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


# Every flag's spec and default, stated once; the flag name is the key.
_FLAGS = {
    "d": dict(type=int, default=2, help="sphere dimension (>= 2)"),
    "r0": dict(type=_finite_float, default=0.3, help="inner radius"),
    "r": dict(type=_finite_float, default=0.7, help="shell radius"),
    "tol": dict(type=_finite_float, default=1e-8, help="acceptance tolerance"),
    "seed": dict(type=int, default=0, help="seed recorded in reports"),
    "degree": dict(type=int, default=80, help="shell quadrature degree"),
    "trunc-tol": dict(
        type=_finite_float, default=1e-12, help="expansion truncation tolerance"
    ),
    "out": dict(help="write the JSON report here (default: stdout)"),
    "field": dict(help="charge-list JSON file"),
    "sigma": dict(help="signed-measure CSV/JSON file"),
    "rule": dict(help="rule nodes/weights CSV/JSON file"),
    "p": dict(type=_parse_exponent, default=2.0, help="exponent in [1, inf]"),
    "mu-degree": dict(
        type=int, default=60, help="degree of the reference surface quadrature"
    ),
    "n": dict(type=int, help="equal-area partition size"),
    "epsilon": dict(type=_finite_float, help="target accuracy"),
    "points": dict(help="scattering CSV/JSON file"),
    "resolution": dict(type=int, help="mesh-norm sampling resolution"),
    "n-values": dict(
        type=_parse_sizes,
        default=(64, 256, 1024),
        help="comma-separated ascending sizes",
    ),
    "csv": dict(help="also write the row table as CSV here"),
}

# Each command's help and the flags its runner reads; "!" marks a required
# flag.  Where a command reads --points, --d defaults to the file's dimension.
_COMMANDS = {
    "verify-identity": (
        "check the shell-pairing identity",
        "d r0 r tol seed degree trunc-tol out field! sigma!",
    ),
    "bound": (
        "check the dual-norm error bound",
        "d r0 r tol seed degree trunc-tol out field! sigma! p",
    ),
    "corollary3": (
        "bound the error of a quadrature rule",
        "d r0 r tol seed degree trunc-tol out field! rule! p mu-degree",
    ),
    "thm4a": (
        "partition-rule sup bound on one shell",
        "d r0 r tol seed out n! mu-degree",
    ),
    "thm4b": (
        "reduction pipeline with accuracy gate",
        "d r0 seed out epsilon! points n mu-degree resolution",
    ),
    "partition": ("export an equal-area partition", "d out n!"),
    "meshnorm": (
        "estimate the covering radius of points",
        "d seed out points! resolution",
    ),
    "scaling": (
        "decay study across partition sizes",
        "d r0 r tol seed degree out n-values csv",
    ),
}

COMMANDS = tuple(_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spherekh",
        description=(
            "Verify potential-theoretic integration identities and error "
            "bounds on the d-sphere."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        names = flags.replace("!", "").split()
        for flag in flags.split():
            name = flag.rstrip("!")
            spec = dict(_FLAGS[name], required=flag.endswith("!"))
            if name == "d" and "points" in names:
                spec.update(default=None, help="sphere dimension (default: --points)")
            p.add_argument("--" + name, **spec)
    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = build_parser()
    config = parser.parse_args(argv)
    if config.d is not None and config.d < 2:
        parser.error(f"--d: dimension must be at least 2, got {config.d}")
    if "r" in config:
        if not 0 < config.r0 < config.r < 1:
            parser.error(
                f"--r0/--r: requires r0 < r with both in (0, 1), got "
                f"r0={config.r0}, r={config.r}"
            )
    elif "r0" in config and not 0 < config.r0 < 1:
        parser.error(f"--r0: must lie in (0, 1), got {config.r0}")
    if "tol" in config and config.tol <= 0:
        parser.error(f"--tol: tolerance must be positive, got {config.tol}")
    if config.command == "thm4b" and config.points is None and config.n is None:
        parser.error("thm4b: provide --points or --n")
    return config


def _write(out, payload: dict) -> None:
    """The payload as deterministic JSON, to the file ``out`` or to stdout."""
    if out:
        fileio.write_report_json(out, payload)
    else:
        print(fileio.json_dumps(payload))


def _emit(config, payload: dict) -> None:
    _write(
        config.out,
        {
            "schema_version": SCHEMA_VERSION,
            "command": config.command,
            "seed": config.seed,
            **payload,
        },
    )


def _digests(**paths) -> dict:
    return {
        name: fileio.file_digest(path)
        for name, path in paths.items()
        if path is not None
    }


def _shell(config) -> ShellConfig:
    return ShellConfig(config.r0, config.r)


def _read_scattering(config) -> Scattering:
    """The --points scattering; a given --d must match the file."""
    points = fileio.read_points(config.points)
    dim = points.shape[1] - 1
    if config.d is not None and config.d != dim:
        raise ValueError(
            f"{config.points}: points lie on S^{dim}, but --d is {config.d}"
        )
    return fileio._named(config.points, Scattering, points)


def _run_verify_identity(config) -> int:
    field = fileio.read_field(config.field)
    sigma = fileio.read_measure(config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = kh_identity(field, sigma, _shell(config), quad, config.trunc_tol)
    _emit_series(config, report, field=config.field, sigma=config.sigma)
    return 0 if report.relative <= config.tol else 1


def _emit_series(config, report, **inputs) -> None:
    """Report of a command that sums field expansions, with both tolerances."""
    _emit(
        config,
        {
            "inputs": _digests(**inputs),
            "tolerances": {"tol": config.tol, "trunc_tol": config.trunc_tol},
            "result": report.to_dict(),
        },
    )


def _bound_exit(report) -> int:
    violated = report.slack < -1e-9 or report.slack_sharp < -1e-9
    return 1 if violated else 0


def _run_bound(config) -> int:
    field = fileio.read_field(config.field)
    sigma = fileio.read_measure(config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = duality_bound(
        field, sigma, _shell(config), quad, config.p, config.trunc_tol
    )
    _emit_series(config, report, field=config.field, sigma=config.sigma)
    return _bound_exit(report)


def _run_corollary3(config) -> int:
    field = fileio.read_field(config.field)
    rule = fileio.read_measure(config.rule)
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = quadrature_error_bound(
        field, mu, rule, _shell(config), quad, config.p, config.trunc_tol
    )
    _emit_series(config, report, field=config.field, rule=config.rule)
    return _bound_exit(report)


def _run_thm4a(config) -> int:
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


def _run_thm4b(config) -> int:
    if config.points is not None:
        scattering = _read_scattering(config)
    else:
        # without a points file the equal-area centers lie on S^2 unless --d
        part = equal_area_partition(config.d or 2, config.n)
        scattering = Scattering(representatives(part))
    mu = sphere_surface_quadrature(scattering.dim, config.mu_degree)
    try:
        report = reduction_pipeline(
            scattering, mu, config.epsilon, config.r0, resolution=config.resolution
        )
    except (GateConditionError, AdmissibleWindowError) as exc:
        outcome, code = {"failure": type(exc).__name__, "detail": str(exc)}, 1
    else:
        outcome, code = {"result": report.to_dict()}, 0 if report.within_epsilon else 1
    _emit(
        config,
        {
            "inputs": _digests(points=config.points),
            "tolerances": {"epsilon": config.epsilon},
            **outcome,
        },
    )
    return code


def _run_partition(config) -> int:
    part = equal_area_partition(config.d, config.n)
    _write(config.out, fileio.partition_payload(part))
    return 0


def _run_meshnorm(config) -> int:
    scattering = _read_scattering(config)
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


def _run_scaling(config) -> int:
    quad = sphere_surface_quadrature(config.d, config.degree)
    study = scaling_study(config.d, config.n_values, _shell(config), quad)
    if config.csv:
        fileio.write_scaling_csv(config.csv, study.rows)
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


def run(config: argparse.Namespace) -> int:
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
