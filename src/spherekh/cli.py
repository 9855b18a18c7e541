"""Command-line front end: run verifications and studies, emit reports.

Each command takes only the flags its computation reads, and its report
echoes only settings that decide something: ``verify-identity`` its
``--tol`` and ``--trunc-tol``, ``thm4b`` its ``--epsilon``.

Exit codes: 0 on success, 1 when a bound is violated, the identity residual
exceeds ``--tol``, or the accuracy gate fails, and 2 on input problems
(unusable flags, missing or malformed files, off-sphere points).
"""

import argparse
import math
import sys

from . import fileio
from .discrepancy import (
    AdmissibleWindowError,
    GateConditionError,
    _check_inner,
    _rule_bound,
    duality_bound,
    kh_identity,
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

SCHEMA_VERSION = 3


def _value(kind, ok, what: str):
    """Flag type: ``kind(text)``, which ``ok`` must accept; ``what`` names
    the values it accepts."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def _sizes(text: str) -> list:
    return [int(part) for part in text.split(",") if part.strip()]


_RADIUS = _value(float, lambda v: 0 < v < 1, "a number in (0, 1)")
_POSITIVE = _value(float, lambda v: 0 < v < math.inf, "a finite number > 0")
_PATH = _value(str, bool, "a file path")


def _at_least(low: int):
    return _value(int, lambda v: v >= low, f"an integer >= {low}")


# Every flag's spec and default, stated once; the flag name is the key.
_FLAGS = {
    "d": dict(type=_at_least(2), default=2, help="sphere dimension (>= 2)"),
    "r0": dict(type=_RADIUS, default=0.3, help="inner radius"),
    "r": dict(type=_RADIUS, default=0.7, help="shell radius"),
    "tol": dict(type=_POSITIVE, default=1e-8, help="acceptance tolerance"),
    "degree": dict(type=_at_least(0), default=80, help="shell quadrature degree"),
    "trunc-tol": dict(
        type=_POSITIVE, default=1e-12, help="expansion truncation tolerance"
    ),
    "out": dict(help="write the JSON report here (default: stdout)"),
    "field": dict(type=_PATH, help="charge-list JSON file"),
    "sigma": dict(type=_PATH, help="signed-measure CSV/JSON file"),
    "rule": dict(type=_PATH, help="rule nodes/weights CSV/JSON file"),
    "p": dict(
        type=_value(float, lambda v: v >= 1, "an exponent >= 1 (inf allowed)"),
        default=2.0,
        help="exponent in [1, inf]",
    ),
    "mu-degree": dict(
        type=_at_least(0), default=60, help="degree of the reference surface quadrature"
    ),
    "n": dict(type=_at_least(1), help="equal-area partition size"),
    "epsilon": dict(type=_POSITIVE, help="target accuracy"),
    "points": dict(type=_PATH, help="scattering CSV/JSON file"),
    "resolution": dict(type=_at_least(1), help="mesh-norm sampling resolution"),
    "n-values": dict(
        type=_value(
            _sizes,
            lambda v: len(v) > 1 and v[0] >= 1 and v == sorted(set(v)),
            "two or more ascending positive sizes, comma-separated",
        ),
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
        "d r0 r tol degree trunc-tol out field! sigma!",
    ),
    "bound": ("check the dual-norm error bound", "d r0 r degree out field! sigma! p"),
    "corollary3": (
        "bound the error of a quadrature rule",
        "d r0 r degree out field! rule! p mu-degree",
    ),
    "thm4a": ("partition-rule sup bound on one shell", "d r out n! mu-degree"),
    "thm4b": (
        "reduction pipeline with accuracy gate",
        "d r0 out epsilon! points n mu-degree resolution",
    ),
    "partition": ("export an equal-area partition", "d out n!"),
    "meshnorm": ("estimate the covering radius of points", "d out points! resolution"),
    "scaling": ("decay study across partition sizes", "d r degree out n-values csv"),
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
    if "r0" in config and "r" in config and not config.r0 < config.r:
        parser.error(f"--r0/--r: requires r0 < r, got r0={config.r0}, r={config.r}")
    if config.command == "thm4b" and config.points is None and config.n is None:
        parser.error("thm4b: provide --points or --n")
    return config


def _write(out, payload: dict) -> None:
    """The payload as deterministic JSON, to the file ``out`` or to stdout."""
    if out:
        fileio.write_report_json(out, payload)
    else:
        print(fileio.json_dumps(payload))


def _emit(config, inputs: dict, **fields) -> None:
    """The command's report: the digest of each given input file, and ``fields``."""
    digests = {
        name: fileio.file_digest(path)
        for name, path in inputs.items()
        if path is not None
    }
    _write(
        config.out,
        {
            "schema_version": SCHEMA_VERSION,
            "command": config.command,
            "inputs": digests,
            **fields,
        },
    )


def _shell(config) -> ShellConfig:
    return ShellConfig(config.r0, config.r)


def _check_dim(config, path, dim: int) -> None:
    """A given --d must match the dimension of the file at ``path``."""
    if config.d is not None and config.d != dim:
        raise ValueError(f"{path}: data lie on S^{dim}, but --d is {config.d}")


def _read_scattering(config) -> Scattering:
    """The --points scattering; a given --d must match the file."""
    points = fileio.read_points(config.points)
    _check_dim(config, config.points, points.shape[1] - 1)
    return fileio._named(config.points, Scattering, points)


def _field_and_measure(config, path):
    """The --field charges and the measure at ``path``, each checked against
    --d and --r0 before a quadrature is built."""
    field, measure = fileio.read_field(config.field), fileio.read_measure(path)
    _check_dim(config, config.field, field.dim)
    _check_dim(config, path, measure.dim)
    fileio._named(config.field, _check_inner, field, _shell(config))
    return field, measure


def _run_verify_identity(config) -> int:
    field, sigma = _field_and_measure(config, config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = kh_identity(field, sigma, _shell(config), quad, config.trunc_tol)
    _emit(
        config,
        {"field": config.field, "sigma": config.sigma},
        tolerances={"tol": config.tol, "trunc_tol": config.trunc_tol},
        result=report.to_dict(),
    )
    return 0 if report.relative <= config.tol else 1


def _bound_exit(report) -> int:
    violated = report.slack < -1e-9 or report.slack_sharp < -1e-9
    return 1 if violated else 0


def _run_bound(config) -> int:
    field, sigma = _field_and_measure(config, config.sigma)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = duality_bound(field, sigma, _shell(config), quad, config.p)
    inputs = {"field": config.field, "sigma": config.sigma}
    _emit(config, inputs, result=report.to_dict())
    return _bound_exit(report)


def _run_corollary3(config) -> int:
    field, rule = _field_and_measure(config, config.rule)
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    quad = sphere_surface_quadrature(config.d, config.degree)
    report = quadrature_error_bound(field, mu, rule, _shell(config), quad, config.p)
    inputs = {"field": config.field, "rule": config.rule}
    _emit(config, inputs, result=report.to_dict())
    return _bound_exit(report)


def _run_thm4a(config) -> int:
    part = equal_area_partition(config.d, config.n)
    matched = match_partition_to_scattering(
        part, Scattering(representatives(part))
    )
    mu = sphere_surface_quadrature(config.d, config.mu_degree)
    weights = partition_weights(mu, matched)
    report = _rule_bound(mu, matched, weights, config.r, mu)
    _emit(config, {}, n=config.n, rule_mass=float(weights.sum()), result=report.to_dict())
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
    tolerances = {"epsilon": config.epsilon}
    _emit(config, {"points": config.points}, tolerances=tolerances, **outcome)
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
        {"points": config.points},
        result={
            "value": estimate.value,
            "lower": estimate.lower,
            "upper": estimate.upper,
            "resolution_error": estimate.resolution_error,
            "count": len(scattering),
        },
    )
    return 0


def _run_scaling(config) -> int:
    quad = sphere_surface_quadrature(config.d, config.degree)
    study = scaling_study(config.d, config.n_values, config.r, quad)
    if config.csv:
        fileio.write_scaling_csv(config.csv, study.rows)
    _emit(config, {}, result=study.to_dict())
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
