#!/usr/bin/env python3
"""Sweep the norm exponent p and report how far the isosceles l_p triangle
with sides sqrt(2), sqrt(2), 2 overshoots its flat comparison radius of 1.

Each row carries margin_error, the bound on the margin's float64 error: a
margin above it is a resolved violation.

Usage: python scripts/lp_margin_sweep.py [--p-min 1.1] [--p-max 6.0] [--steps 40] [--csv out.csv]
"""
import argparse
import sys

import numpy as np

from curvcomp import check_counterexample


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p-min", type=float, default=1.1)
    parser.add_argument("--p-max", type=float, default=6.0)
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    rows = []
    print(f"{'p':>8}  {'r_space':>12}  {'r_model':>8}  {'margin':>12}  {'margin_error':>12}")
    for p in np.linspace(args.p_min, args.p_max, args.steps):
        result = check_counterexample(float(p))
        rows.append((float(p), result.space_result.radius, result.comparison_radius, result.margin, result.margin_error))
        print(
            f"{p:8.4f}  {result.space_result.radius:12.9f}  {result.comparison_radius:8.5f}"
            f"  {result.margin:12.3e}  {result.margin_error:12.3e}"
        )

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("p,r_space,r_model,margin,margin_error\n")
            for row in rows:
                fh.write(",".join(format(x, ".17g") for x in row) + "\n")
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
