#!/usr/bin/env python3
"""Scan a synthetic space for comparison defects and print the scale curve.

Runs a full defect profile at the given kappa, prints the worst triangles in
both directions, the epsilon*(beta) curve, and a compact defect histogram.

Usage: python scripts/defect_scan.py "random_graph:n=25,seed=3" [--kappa 0] [--betas 0,0.5,1,1.5]
"""
import argparse
import sys

from curvcomp import defect_histogram, defect_profile, parse_generator_spec, sample_space


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="generator spec, e.g. 'tree:n=20,seed=4,subdivision=1'")
    parser.add_argument("--kappa", type=float, default=0.0)
    parser.add_argument("--betas", default="0,0.5,1.0,1.5,2.0")
    parser.add_argument("--degenerate", action="store_true")
    args = parser.parse_args()

    space = sample_space(parse_generator_spec(args.spec))
    betas = [float(x) for x in args.betas.split(",") if x.strip()]
    profile = defect_profile(
        space, kappa=args.kappa, beta_grid=betas, degenerate_pairs=args.degenerate
    )

    print(f"space: {args.spec} (n={space.n}, diameter={space.diameter:.4g})")
    print(f"kappa={args.kappa}  skipped={profile.skipped}")
    print(f"epsilon*_upper = {profile.epsilon_star_upper:.6g}")
    print(f"epsilon*_lower = {profile.epsilon_star_lower:.6g}")
    for name, td in (("worst upper", profile.worst_upper), ("worst lower", profile.worst_lower)):
        if td is not None:
            labels = ",".join(space.label(i) for i in td.triple.as_tuple())
            print(f"{name}: ({labels}) sides={tuple(round(s, 4) for s in td.sides.as_tuple())} "
                  f"r_space={td.r_space:.6g} r_model={td.r_model:.6g}")

    print("\nbeta    epsilon*(beta)")
    for beta, eps in profile.beta_curve:
        print(f"{beta:<7.3g} {eps:.6g}")

    histogram = defect_histogram(space, kappa=args.kappa, degenerate_pairs=args.degenerate)
    edges = histogram.bin_edges
    peak = max(histogram.counts) or 1
    print("\ndefect histogram:")
    for left, right, count in zip(edges, edges[1:], histogram.counts):
        if count:
            bar = "#" * max(1, round(40 * count / peak))
            print(f"[{left:+.4f}, {right:+.4f})  {count:>6}  {bar}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
