"""Command-line surface.

Exit codes: 0 condition holds / success, 1 condition fails, 2 invalid metric,
3 usage or I/O error, 4 internal error.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
import time
import traceback

import numpy as np

from .certify import CurvatureQuery, certify, check_threads, defect_histogram, defect_profile
from .counterexamples import check_counterexample
from .generators import parse_generator_spec, sample_space
from .hyperbolicity import check_allowance, delta_four_point, relaxed_npc_bound_check
from .metricspace import MetricValidationError, format_distance_matrix, load_space, violation_template
from .report import base_report, dumps_report, verdict_fields, witness_entry

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INVALID_METRIC = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

# violation lines per stderr write: one write per line is slow on large
# rejections, and one write of all of them holds the whole text in memory
_CHUNK_LINES = 4096
# the float options of every command; argparse reads a value such as -1e-200 after
# them as an option of its own, since it takes only -1 and -1.5 for negative numbers
_FLOAT_OPTIONS = frozenset({"--kappa", "--beta", "--epsilon", "--max-perimeter", "--allowance", "--p"})


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvcomp",
        description="Circumradius-comparison curvature conditions on finite metric spaces.",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="thread count, given before the subcommand: a positive integer, checked and otherwise"
        " unused, since every command runs on the calling thread (default: 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("path", help="distance matrix (.csv) or edge list (.tsv/.edges)")

    p = sub.add_parser("validate", help="validate a metric input file")
    add_input(p)

    p = sub.add_parser("certify", help="test Curv <= kappa or Curv >= kappa")
    add_input(p)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--direction", choices=["upper", "lower"], default="upper")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--degenerate", action="store_true", help="include degenerate pair-triples")
    p.add_argument("--max-perimeter", type=float, default=None)
    p.add_argument("--json", dest="json_out", default=None, help="write a JSON report here")

    p = sub.add_parser("defect", help="defect profile with scale curve and histogram")
    add_input(p)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--beta-grid", default="", help="comma-separated beta values, kept in the order given")
    p.add_argument("--degenerate", action="store_true")
    p.add_argument("--json", dest="json_out", default=None)
    p.add_argument("--csv", dest="csv_prefix", default=None, help="write <prefix>_beta_curve.csv and <prefix>_histogram.csv")

    p = sub.add_parser("hyperbolicity", help="four-point delta and the relaxed-defect comparison")
    add_input(p)
    p.add_argument("--allowance", type=float, default=0.0, help="discretization allowance h (e.g. max edge length)")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("sample", help="generate a synthetic space from a spec string")
    p.add_argument("spec", help="e.g. 'sphere:kappa=1,n=40,seed=7'")
    p.add_argument("--out", required=True, help="output distance-matrix file")
    p.add_argument("--json", dest="json_out", default=None)

    p = sub.add_parser("counterexample", help="reproduce the l_p upper-bound counterexample")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--json", dest="json_out", default=None)
    return parser


def _query_echo(query: CurvatureQuery) -> dict:
    return {
        "kappa": query.kappa,
        "direction": query.direction,
        "beta": query.beta,
        "epsilon": query.epsilon,
        "degenerate": query.degenerate_pairs,
        "max_perimeter": query.max_perimeter,
    }


def _write_json(path: str | None, report: dict, started: float) -> None:
    report["timing_ms"] = (time.perf_counter() - started) * 1000.0
    if path:
        with open(path, "w") as fh:
            fh.write(dumps_report(report))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list[str]) -> list[str]:
    """argv with each float option and a value that starts with "-" and that `float`
    takes, "--kappa -1e-200", joined into "--kappa=-1e-200", which argparse reads
    alike for every value; and `--beta-grid` likewise, when `float` takes every
    non-empty entry of its comma-separated value, "--beta-grid -0.0,1"."""
    out, t = [], 0
    while t < len(argv):
        if argv[t] == "--":
            return out + argv[t:]
        value = argv[t + 1] if t + 1 < len(argv) else ""
        if argv[t] == "--beta-grid":
            floats = [x for x in value.split(",") if x.strip()]
        else:
            floats = [value] if argv[t] in _FLOAT_OPTIONS else []
        if value.startswith("-") and floats and all(map(_is_float, floats)):
            out.append(f"{argv[t]}={value}")
            t += 2
        else:
            out.append(argv[t])
            t += 1
    return out


def _write_violations(groups) -> None:
    """One `violation:` line per row of each (kind, indices) group, in order, to
    stderr: at most _CHUNK_LINES lines per write, and no write spans two groups.
    A chunk is one join of an object array of cells: the template's literals
    around each row's index strings, which one table per group holds."""
    for kind, idx in groups:
        literals = f"violation: {violation_template(kind, idx.shape[1])}\n".split("%d")
        table = np.array([str(v) for v in range(int(idx.max()) + 1)], dtype=object)
        for start in range(0, len(idx), _CHUNK_LINES):
            block = idx[start : start + _CHUNK_LINES]
            cells = np.empty((len(block), 2 * block.shape[1] + 1), dtype=object)
            cells[:, 0::2] = literals
            cells[:, 1::2] = table[block]
            sys.stderr.write("".join(cells.ravel().tolist()))


def main(argv=None) -> int:
    argv = _attach_float_values(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for bad usage; keep 0, map the rest
        # onto the usage exit code of this tool's contract
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    started = time.perf_counter()
    try:
        check_threads(args.threads)
        return _dispatch(args, started)
    except MetricValidationError as exc:
        _write_violations(exc.groups)
        return EXIT_INVALID_METRIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a defect, not a verdict: keep it apart from "condition fails"
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args, started: float) -> int:
    if args.command == "validate":
        load_space(args.path)
        print("valid")
        return EXIT_OK

    if args.command == "certify":
        space = load_space(args.path)
        query = CurvatureQuery(
            kappa=args.kappa,
            direction=args.direction,
            beta=args.beta,
            epsilon=args.epsilon,
            degenerate_pairs=args.degenerate,
            max_perimeter=args.max_perimeter,
        )
        verdict = certify(space, query)
        report = base_report(space, _query_echo(query))
        report.update(verdict_fields(space, verdict))
        _write_json(args.json_out, report, started)
        if verdict.holds:
            print(f"holds (epsilon_needed={verdict.epsilon_needed:.6g}, skipped={verdict.skipped})")
            return EXIT_OK
        w = verdict.witness
        labels = ",".join(space.label(i) for i in w.triple.as_tuple()) if w else ""
        print(f"fails (epsilon_needed={verdict.epsilon_needed:.6g}, witness={labels})")
        return EXIT_FAILS

    if args.command == "defect":
        space = load_space(args.path)
        grid = [float(x) for x in args.beta_grid.split(",") if x.strip()] if args.beta_grid else []
        profile = defect_profile(
            space,
            kappa=args.kappa,
            beta_grid=grid,
            degenerate_pairs=args.degenerate,
        )
        report = base_report(space, {"kappa": args.kappa, "beta_grid": grid, "degenerate": args.degenerate})
        report["epsilon_star_upper"] = profile.epsilon_star_upper
        report["epsilon_star_lower"] = profile.epsilon_star_lower
        report["skipped"] = profile.skipped
        report["beta_curve"] = [list(entry) for entry in profile.beta_curve]
        report["witnesses"] = [
            witness_entry(space, td) for td in (profile.worst_upper, profile.worst_lower) if td
        ]
        _write_json(args.json_out, report, started)
        if args.csv_prefix:
            with open(f"{args.csv_prefix}_beta_curve.csv", "w") as fh:
                fh.write("beta,epsilon_star\n")
                for beta, eps in profile.beta_curve:
                    fh.write(f"{beta:.17g},{eps:.17g}\n")
            # the histogram counts every triple, so it takes a scan of its own without floors
            histogram = defect_histogram(space, kappa=args.kappa, degenerate_pairs=args.degenerate)
            with open(f"{args.csv_prefix}_histogram.csv", "w") as fh:
                fh.write("bin_left,bin_right,count\n")
                edges = histogram.bin_edges
                for left, right, count in zip(edges, edges[1:], histogram.counts):
                    fh.write(f"{left:.17g},{right:.17g},{count}\n")
        print(
            f"epsilon_star_upper={profile.epsilon_star_upper:.6g} "
            f"epsilon_star_lower={profile.epsilon_star_lower:.6g} skipped={profile.skipped}"
        )
        return EXIT_OK

    if args.command == "hyperbolicity":
        space = load_space(args.path)
        check_allowance(args.allowance)
        result = delta_four_point(space)
        bound = relaxed_npc_bound_check(space, args.allowance, delta=result)
        report = base_report(space, {"allowance": args.allowance})
        report["delta"] = result.delta
        report["epsilon_star_upper"] = bound.epsilon_star_upper
        report["verdict"] = {
            "two_delta_plus_h": 2.0 * result.delta + args.allowance,
            "slack": bound.slack,
        }
        if result.witness is not None:
            report["witnesses"] = [
                {"quadruple": list(result.witness), "labels": [space.label(i) for i in result.witness]}
            ]
        _write_json(args.json_out, report, started)
        print(f"delta={result.delta:.6g} epsilon_star_upper={bound.epsilon_star_upper:.6g} slack={bound.slack:.6g}")
        return EXIT_OK

    if args.command == "sample":
        spec = parse_generator_spec(args.spec)
        space = sample_space(spec)
        with open(args.out, "w") as fh:
            fh.write(format_distance_matrix(space.dist))
        report = base_report(space, {"spec": args.spec})
        _write_json(args.json_out, report, started)
        print(f"wrote {space.n}x{space.n} matrix to {args.out}")
        return EXIT_OK

    if args.command == "counterexample":
        result = check_counterexample(args.p)
        expects_violation = not (args.p == 2.0 or math.isinf(args.p))
        reproduced = (
            result.margin >= 1e-3 if expects_violation else abs(result.margin) <= 1e-9
        )
        if result.margin > result.margin_error:
            statement = "Curv <= 0 fails"
        elif expects_violation:
            statement = "violation below float64 resolution"
        else:
            statement = "no violation"
        report = base_report(None, {"p": args.p})
        report["verdict"] = {
            "r_space": result.space_result.radius,
            "r_model": result.comparison_radius,
            "margin": result.margin,
            "margin_error": result.margin_error,
            "statement": statement,
            "reproduced": reproduced,
        }
        report["witnesses"] = [
            {"labels": ["A'", "B", "C"], "vertices": [list(v) for v in result.vertices]}
        ]
        _write_json(args.json_out, report, started)
        print(
            f"p={args.p}: r_space={result.space_result.radius:.9g} "
            f"r_model={result.comparison_radius:.9g} margin={result.margin:.3e}"
        )
        return EXIT_OK if reproduced else EXIT_FAILS

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
