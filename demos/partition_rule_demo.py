"""Equal-area partitions as quadrature rules: error decay with cell count.

Splitting the sphere into n equal-area cells and placing each cell's mass
on one interior point gives a rule whose error potential, measured on an
interior shell, shrinks like the cell diameter — n^(-1/d) for the
equal-area family.  This script tabulates measured sups against the
guaranteed bound and fits the empirical rate.
"""

import argparse

import numpy as np

from spherekh import (
    Scattering,
    equal_area_partition,
    match_partition_to_scattering,
    mesh_norm,
    partition_rule_bound,
    representatives,
    scaling_study,
    sphere_surface_quadrature,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--radius", type=float, default=0.5)
    parser.add_argument(
        "--sizes", default="16,64,256,1024", help="comma-separated cell counts"
    )
    parser.add_argument("--degree", type=int, default=60)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    quad = sphere_surface_quadrature(args.dim, args.degree)

    print(f"surface quadrature: degree {args.degree}, {len(quad.nodes)} nodes")
    print(f"shell radius {args.radius}, dimension {args.dim}")
    print()
    print("     n   mesh norm   cell diam   measured sup      bound")
    for n in sizes:
        part = equal_area_partition(args.dim, n)
        points = Scattering(representatives(part))
        matched = match_partition_to_scattering(part, points)
        rep = partition_rule_bound(quad, matched, args.radius, quad)
        est = mesh_norm(points)
        print(
            f"{n:>6}   {est.value:9.5f}   {rep.partition_norm:9.5f}   "
            f"{rep.measured_sup:12.6e}   {rep.bound:10.4e}"
        )

    study = scaling_study(args.dim, sizes, args.radius, quad)
    print()
    print(f"fitted decay exponent of the measured sup: {study.fit_exponent:+.3f}")
    print(f"(cell-diameter scaling predicts about {-1.0 / args.dim:+.3f})")


if __name__ == "__main__":
    main()
