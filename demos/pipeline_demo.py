"""The reduction pipeline: from a raw point cloud to a certified accuracy.

Given scattered points and a target accuracy epsilon, the pipeline first
checks a gate — the covering radius must be small enough relative to
epsilon — then thins the cloud to one point per cell of a matched
partition, and finally certifies that the rule-error potential stays
below epsilon on every shell radius inside an admissible window.  The
potential is harmonic in the ball, so by the maximum principle its sup
at the top probed radius covers every smaller radius: one radius is
probed.  The script runs the happy path and then a deliberately hopeless
one.
"""

import argparse
import math

import numpy as np

from spherekh import (
    GateConditionError,
    Scattering,
    mesh_norm,
    random_points,
    reduction_pipeline,
    sphere_surface_quadrature,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--count", type=int, default=1500)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    d = 2
    scattering = Scattering(random_points(d, args.count, rng))
    mu = sphere_surface_quadrature(d, 60)
    estimate = mesh_norm(scattering)
    print(f"{args.count} random points; covering radius in "
          f"[{estimate.lower:.4f}, {estimate.upper:.4f}]")

    gate_constant = (d - 1) * 8 * d * math.sqrt(2 * d * (d + 1)) * mu.mass
    threshold = gate_constant * estimate.upper
    epsilon = 2.0 * threshold
    print(f"gate threshold {threshold:.2f}; asking for epsilon = {epsilon:.2f}")
    print()

    report = reduction_pipeline(scattering, mu, epsilon, r0=0.3)
    print(f"kept a reduced rule with partition norm {report.partition_norm:.4f}")
    print(f"admissible radii reach up to {report.r_admissible_upper:.4f}")
    print()
    radius = report.radius
    print(f"probed radius {radius:.4f}: measured sup {report.measured_sup:.6e}")
    print()
    verdict = "certified" if report.within_epsilon else "NOT certified"
    print(f"accuracy {verdict} for every radius up to {radius:.4f}: "
          f"sup {report.measured_sup:.4e} vs epsilon {epsilon:.2f}")
    print()

    print("Now the hopeless case: four points cannot cover the sphere finely.")
    tiny = Scattering(random_points(d, 4, rng))
    try:
        reduction_pipeline(tiny, mu, 0.5, r0=0.3)
    except GateConditionError as exc:
        print(f"rejected as expected: {exc}")


if __name__ == "__main__":
    main()
