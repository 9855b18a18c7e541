"""The nine headline checks, one per test, each printing a PASS/FAIL line.

These run the full stack at the sizes and tolerances the library promises;
the unit-test files cover the same code at desk scale.  Lines are written
to the real stdout so they stay visible under output capture.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import binom

from spherekh.cli import main as cli_main
from spherekh.discrepancy import (
    duality_bound,
    kh_identity,
    partition_rule_bound,
    reduction_pipeline,
    scaling_study,
)
from spherekh.geom import (
    Scattering,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    partition_norm,
    random_points,
    reduce_scattering,
    representatives,
)
from spherekh.harmonic import (
    SobolevParams,
    apply_D_values,
    embedding_constants,
    expand_field,
    field_values,
    funk_hecke,
    random_field,
    sobolev_norm,
)
from spherekh.measures import (
    DiscreteSignedMeasure,
    ShellConfig,
    balayage_transform,
    shell_zonal_potential_profile,
    potential_values,
    sphere_surface_quadrature,
    zonal_coefficients_of_atom,
)
from spherekh.specfun import (
    kernel_coefficient,
    harmonic_dim,
    latitude_quadrature,
    legendre_table,
    surface_area,
    truncation_degree,
)


@pytest.fixture(name="announce")
def announce_fixture(capfd):
    # capfd.disabled() suspends file-descriptor capture, so the verdict
    # line reaches the real stdout even without pytest -s
    def _announce(number: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
        with capfd.disabled():
            print(line, flush=True)

    return _announce


def random_signed_measure(dim, count, rng):
    return DiscreteSignedMeasure(
        random_points(dim, count, rng), rng.uniform(-1.0, 1.0, count)
    )


def test_criterion_1_identity(announce):
    rng = np.random.default_rng(20260101)
    cfg = ShellConfig(0.3, 0.7)

    start = time.time()
    field2 = random_field(2, 3, 0.3, rng)  # margin 0.8 keeps radii <= 0.24
    sigma2 = random_signed_measure(2, 50, rng)
    rep2 = kh_identity(field2, sigma2, cfg, sphere_surface_quadrature(2, 200), 1e-12)
    elapsed2 = time.time() - start

    field3 = random_field(3, 3, 0.3, rng)
    sigma3 = random_signed_measure(3, 50, rng)
    rep3 = kh_identity(field3, sigma3, cfg, sphere_surface_quadrature(3, 120), 1e-12)

    ok = rep2.relative <= 1e-8 and elapsed2 <= 10.0 and rep3.relative <= 1e-6
    announce(
        1,
        ok,
        f"identity residuals d=2 {rep2.relative:.3e} (<=1e-8, {elapsed2:.2f}s) "
        f"and d=3 {rep3.relative:.3e} (<=1e-6)",
    )
    assert rep2.relative <= 1e-8
    assert elapsed2 <= 10.0
    assert rep3.relative <= 1e-6


def test_criterion_2_bound_never_violated(announce):
    rng = np.random.default_rng(20260202)
    cfg = ShellConfig(0.3, 0.7)
    quad = sphere_surface_quadrature(2, 80)
    violations = 0
    worst = math.inf
    for _ in range(100):
        field = random_field(2, int(rng.integers(1, 6)), 0.3, rng)
        sigma = random_signed_measure(2, int(rng.integers(5, 51)), rng)
        for p in (1.0, 2.0, math.inf):
            report = duality_bound(field, sigma, cfg, quad, p)
            if report.lhs > report.rhs + 1e-9:
                violations += 1
            if report.lhs > report.rhs_sharp + 1e-9:
                violations += 1
            worst = min(worst, report.slack, report.slack_sharp)
    ok = violations == 0
    announce(
        2,
        ok,
        f"dual-norm bound: 100 cases x p in {{1,2,inf}}, {violations} "
        f"violations, smallest slack {worst:.3e}",
    )
    assert violations == 0


def test_criterion_3_balayage_matches_direct(announce):
    rng = np.random.default_rng(20260303)
    cfg = ShellConfig(0.3, 0.6)
    directions = random_points(2, 500, rng)
    truncation, _ = truncation_degree(2, cfg.r, 1e-13)
    worst = 0.0
    for _ in range(20):
        count = int(rng.integers(1, 12))
        sigma = random_signed_measure(2, count, rng)
        swept = np.zeros(500)
        for point, weight in zip(sigma.points, sigma.weights):
            zc = zonal_coefficients_of_atom(point, truncation)
            swept += weight * shell_zonal_potential_profile(
                balayage_transform(zc, cfg), cfg, directions
            )
        direct = potential_values(sigma, cfg.r * directions)
        worst = max(worst, float(np.max(np.abs(swept - direct))))
    ok = worst <= 1e-8
    announce(
        3,
        ok,
        f"balayage reconstruction: 20 measures, 500 shell points, "
        f"sup deviation {worst:.3e} (<=1e-8)",
    )
    assert worst <= 1e-8


def test_criterion_4_partition_rule_bound_and_decay(announce):
    quad = sphere_surface_quadrature(2, 60)
    sups = []
    bounds_ok = True
    for n in (16, 64, 256, 1024):
        part = equal_area_partition(2, n)
        matched = match_partition_to_scattering(
            part, Scattering(representatives(part))
        )
        report = partition_rule_bound(quad, matched, 0.5, quad)
        bounds_ok = bounds_ok and report.measured_sup <= report.bound
        sups.append(report.measured_sup)
    exponent = float(
        np.polyfit(np.log([16, 64, 256, 1024]), np.log(sups), 1)[0]
    )
    ok = bounds_ok and -0.75 <= exponent <= -0.25
    announce(
        4,
        ok,
        f"partition-rule sup bound holds at n=16..1024; decay exponent "
        f"{exponent:.3f} in [-0.75,-0.25]",
    )
    assert bounds_ok
    assert -0.75 <= exponent <= -0.25


def test_criterion_5_pipeline_and_gate_exit_code(tmp_path, announce):
    part = equal_area_partition(2, 1024)
    scattering = Scattering(representatives(part))
    mu = sphere_surface_quadrature(2, 60)
    estimate = mesh_norm(scattering)
    gate_constant = 8 * 2 * math.sqrt(2 * 2 * 3)
    epsilon = 2.0 * (2 - 1) * gate_constant * mu.mass * estimate.upper
    report = reduction_pipeline(scattering, mu, epsilon, 0.3)
    within = report.within_epsilon and report.measured_sup <= epsilon

    exit_code = cli_main(
        ["thm4b", "--n", "1", "--epsilon", "0.5", "--r0", "0.3",
         "--out", str(tmp_path / "gate.json")]
    )
    ok = within and exit_code == 1
    announce(
        5,
        ok,
        f"pipeline at n=1024, epsilon={epsilon:.1f}: the top radius is within "
        f"epsilon (sup {report.measured_sup:.3e}); gate failure "
        f"exits {exit_code}",
    )
    assert within
    assert exit_code == 1


def test_criterion_6_pointwise_recovery(announce):
    rng = np.random.default_rng(20260606)
    sp = SobolevParams(2.0, 2)
    constants = embedding_constants(sp)
    tails_ok = constants.tail_star < 1e-12 and constants.tail_star_star < 1e-12
    r = 0.7
    violations = 0
    for _ in range(200):
        field = random_field(2, int(rng.integers(1, 7)), 0.35, rng)
        expansion = expand_field(field, r, tol=1e-12)
        norm = sobolev_norm(expansion, sp)
        dirs = random_points(2, 800, rng)
        sup_f = float(np.max(np.abs(field_values(field, r * dirs))))
        sup_df = float(np.max(np.abs(apply_D_values(expansion, dirs))))
        if sup_f > constants.c_star * norm + 1e-12:
            violations += 1
        if sup_df > constants.c_star_star * norm + 1e-12:
            violations += 1
    ok = violations == 0 and tails_ok
    announce(
        6,
        ok,
        f"recovery inequalities: 200 fields, {violations} violations; "
        f"series tails {constants.tail_star:.2e}, "
        f"{constants.tail_star_star:.2e} (<1e-12)",
    )
    assert violations == 0
    assert tails_ok


def test_criterion_7_special_functions(announce):
    worst_orth = 0.0
    worst_gen = 0.0
    worst_fh = 0.0
    for dim in (2, 3):
        area = surface_area(dim)
        area_sub = 2 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        nodes, weights = latitude_quadrature(dim, 52)
        table = legendre_table(dim, 50, nodes)
        gram = (table * weights) @ table.T
        expected = np.diag(
            [area / (area_sub * harmonic_dim(dim, l)) for l in range(51)]
        )
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - expected))))

        # generating function of the distance kernel at radius 1/2
        r = 0.5
        t = np.linspace(-1.0, 1.0, 101)
        truncation, _ = truncation_degree(dim, r, 1e-13)
        tbl = legendre_table(dim, truncation, t)
        coeffs = np.array(
            [binom(l + dim - 2, l) * r**l for l in range(truncation + 1)]
        )
        series = coeffs @ tbl
        direct = (1 + r * r - 2 * r * t) ** (-(dim - 1) / 2.0)
        worst_gen = max(worst_gen, float(np.max(np.abs(series - direct))))

        def kernel(u, r=r, dim=dim):
            return (1 + r * r - 2 * r * u) ** (-(dim - 1) / 2.0)

        for l in range(51):
            lam = funk_hecke(kernel, l, dim)
            worst_fh = max(
                worst_fh, abs(lam * area - kernel_coefficient(dim, l, r))
            )
    ok = worst_orth <= 1e-10 and worst_gen <= 1e-10 and worst_fh <= 1e-10
    announce(
        7,
        ok,
        f"special functions (d=2,3): orthogonality {worst_orth:.2e}, "
        f"generating function {worst_gen:.2e}, zonal transform "
        f"{worst_fh:.2e} (all <=1e-10)",
    )
    assert worst_orth <= 1e-10
    assert worst_gen <= 1e-10
    assert worst_fh <= 1e-10


def test_criterion_8_equal_area_partition(announce):
    area = surface_area(2)
    worst_area = 0.0
    for n in (1, 2, 3, 5, 7, 12, 16, 33, 64, 100, 256, 500, 1024, 2048, 4096):
        part = equal_area_partition(2, n)
        worst_area = max(
            worst_area, float(np.max(np.abs(part.areas * n / area - 1.0)))
        )
    scaled = []
    for n in (64, 128, 256, 512, 1024, 2048, 4096):
        scaled.append(partition_norm(equal_area_partition(2, n)) * math.sqrt(n))
    ratio = max(scaled) / min(scaled)
    ok = worst_area <= 1e-9 and ratio <= 2.0
    announce(
        8,
        ok,
        f"equal-area partitions: worst relative area error {worst_area:.2e} "
        f"(<=1e-9); diameter*sqrt(n) spread {ratio:.3f} (<=2)",
    )
    assert worst_area <= 1e-9
    assert ratio <= 2.0


def test_criterion_9_reduction_chain(announce):
    rng = np.random.default_rng(20260909)
    trials = 500
    chain_failures = 0
    ratio_ok = 0
    logged = []
    for _ in range(trials):
        n = int(rng.integers(1, 501))
        scattering = Scattering(random_points(2, n, rng))
        red = reduce_scattering(scattering)
        orig, reduced = red.mesh_norm_original, red.mesh_norm_reduced
        chain = (
            orig.lower <= reduced.upper
            and reduced.value < red.partition_norm
        )
        if not chain:
            chain_failures += 1
        if red.constant_ratio <= red.reference_ratio:
            ratio_ok += 1
        else:
            logged.append((n, red.constant_ratio))
    ok = chain_failures == 0 and ratio_ok >= 0.95 * trials
    announce(
        9,
        ok,
        f"reduction: {trials} trials, {chain_failures} chain failures, "
        f"ratio within reference in {ratio_ok}/{trials} "
        f"({len(logged)} logged exceedances)",
    )
    assert chain_failures == 0
    assert ratio_ok >= 0.95 * trials
