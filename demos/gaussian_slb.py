"""A discretized Gaussian source is the one case whose curve coincides
with the Shannon lower bound: R(D) = (1/2) ln(sigma^2 / D) everywhere.

This sweeps a few slopes on a 257-point grid and prints the gap between
the computed rate and the bound.  At these tight tolerances every solve
runs the fixed-slope interior point from the uniform law.

Run:  python3 demos/gaussian_slb.py   (takes a few seconds)
"""
import math

import numpy as np

from rdbridge import (
    ProbabilityVector,
    discretize_gaussian,
    rd_curve,
    slb_gap,
    squared_error,
)


def main():
    src = discretize_gaussian(1.0)
    dist = squared_error(src.grid, src.grid)
    n = len(src.grid)
    print(f"N(0, 1) discretized to {n} points on [-6, 6]")

    curve = rd_curve(
        src.weights,
        dist,
        np.geomspace(1.0, 10.0, 8),
        tol=2e-5,
        max_iter=300000,
        nu0=ProbabilityVector(np.full(n, 1.0 / n), labels=src.grid),
    )

    print(f"{'beta':>8} {'D':>10} {'R':>10} {'(1/2)ln(1/D)':>14} {'SLB gap':>10} {'iters':>8}")
    for p in curve.points:
        bound = 0.5 * math.log(1.0 / p.distortion)
        gap = slb_gap(p, src, dist)
        print(
            f"{p.beta:8.3f} {p.distortion:10.5f} {p.rate:10.6f} "
            f"{bound:14.6f} {gap:10.2e} {p.iterations:8d}"
        )
    print()
    print("the gap is discretization noise -- the bound is met, not just approached")


if __name__ == "__main__":
    main()
