#!/usr/bin/env python3
"""Check that another source tree gives this tree's command-line outputs, op by op.

Writes each benchmark workload's inputs for each seed with `bench/inputs.build`,
then runs every op through `curvcomp.cli.main` of `DIR/src` and of this tree's
`src/`, each tree in its own subprocess, one after the other on the same paths.
Extra ops that no benchmark op reaches follow the workloads: `defect --csv` on
the first seed's `flat_scan` box, and a fixed list of `sample` specs, each
written once and read by the commands listed with it. Those are `certify` in
both directions at four curvatures, with and without degenerate pairs and once
with a scale beta, and `defect` over a beta grid, on three small samples of the
plane, sphere and hyperbolic plane; and `hyperbolicity` on a grid, an exact
tree whose delta is 0, a random graph, and two trees with inexact edges, where
every base point is scanned in full. For each op it compares the exit code,
stdout, stderr, the JSON report without `timing_ms`, and the files the op
writes. The reports' numbers are compared as printed, so a change of float
format counts.

Usage: python scripts/compare_outputs.py --base DIR [--seeds 0-23] [--workloads graph_delta,flat_scan]

Exits 0 when every output matches, 1 at the first difference, which it names
by workload, seed and op, and 2 when a tree's ops do not run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the commands run on each curvature sample, after the sampled path
CURVATURE_COMMANDS = [
    ("certify", "--kappa", kappa, "--direction", direction, *degenerate)
    for kappa in ("0", "1", "-1", "0.3")
    for direction in ("upper", "lower")
    for degenerate in ((), ("--degenerate",))
] + [("certify", "--beta", "0.4"), ("defect", "--beta-grid", "0,0.2,0.4,0.8")]

# (name, sample spec, commands that read the sample)
SAMPLES = [
    ("e16", "euclidean:n=16,seed=1", CURVATURE_COMMANDS),
    ("s14", "sphere:kappa=1,n=14,seed=2", CURVATURE_COMMANDS),
    ("h14", "hyperbolic:kappa=-1,n=14,seed=3", CURVATURE_COMMANDS),
    ("grid8", "grid:width=8,height=8", [("hyperbolicity", "--allowance", "1")]),
    ("tree50", "tree:n=50,seed=2,subdivision=2", [("hyperbolicity", "--allowance", "1")]),
    ("graph60", "random_graph:n=60,seed=3", [("hyperbolicity", "--allowance", "1.5")]),
    ("t60", "tree:n=60,seed=1,edge_length=0.3", [("hyperbolicity", "--allowance", "0.3")]),
    ("t120", "tree:n=120,seed=3,edge_length=0.7", [("hyperbolicity", "--allowance", "0.7")]),
]


def _sampled_ops():
    """Each sample's `sample` op, then the ops of its commands on the written file."""
    for name, spec, commands in SAMPLES:
        path = f"{{out}}/{name}.csv"
        yield f"sample {name}", ("sample", spec, "--out", path), (f"{name}.csv",)
        for command, *args in commands:
            yield " ".join((command, name, *args)), (command, path, *args, "--json", "{json}"), ()


# (key, argv, files the op writes), with {inputs} the benchmark's input directory,
# {out} a directory of the tree's own and {json} the op's report path
EXTRAS = [
    (
        "defect_csv_box",
        ("defect", "{inputs}/box.csv", "--kappa", "0", "--json", "{json}", "--csv", "{out}/box"),
        ("box_beta_curve.csv", "box_histogram.csv"),
    ),
    *_sampled_ops(),
]


def _seeds(text: str) -> list[int]:
    """'0-23' or '0,3,5-7' as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run_ops(src: str) -> None:
    """Run the ops on stdin through `src`'s `cli.main` and print their outputs as JSON."""
    sys.path.insert(0, src)
    import curvcomp.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"curvcomp was imported from {cli.__file__}, not from {src}")
    results = []
    for op in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        files = {}
        for path in op["files"]:
            with contextlib.suppress(FileNotFoundError), open(path) as fh:
                files[path] = fh.read()
        results.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files})
    json.dump(results, sys.stdout)


def _outputs(src: str, ops: list[dict], out_dir: str) -> list[dict]:
    """Each op's outputs from the tree at `src`, run in a fresh subprocess with `out_dir` emptied first."""
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-ops", src],
        input=json.dumps(ops),
        capture_output=True,
        text=True,
        cwd=out_dir,
    )
    if proc.returncode != 0:
        print(f"the ops of {src} did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def _report(text: str | None):
    """A JSON report without `timing_ms`, its numbers kept as printed; other text as it is."""
    try:
        report = json.loads(text, parse_float=str, parse_int=str, parse_constant=str)
    except (TypeError, ValueError):
        return text
    if isinstance(report, dict):
        report.pop("timing_ms", None)
    return report


def _difference(a: dict, b: dict, report: str) -> str | None:
    """The first output in which a and b differ, or None."""
    for key in ("code", "stdout", "stderr"):
        if a[key] != b[key]:
            return key
    for path in sorted(a["files"].keys() | b["files"].keys()):
        left, right = a["files"].get(path), b["files"].get(path)
        if path == report:
            if _report(left) != _report(right):
                return "the report"
        elif left != right:
            return os.path.basename(path)
    return None


def _compare(label: str, ops: list[tuple[str, tuple, tuple]], base_src: str, tmp: str, inputs_dir: str) -> bool:
    """Run `ops` on both trees and report the first difference; True when every output matches."""
    out_dir = os.path.join(tmp, "out")
    jobs, reports = [], []
    for index, (_, argv, files) in enumerate(ops):
        report = os.path.join(out_dir, f"{index}.json")
        fill = {"{inputs}": inputs_dir, "{out}": out_dir, "{json}": report}
        expanded = []
        for arg in argv:
            for name, value in fill.items():
                arg = arg.replace(name, value)
            expanded.append(arg)
        jobs.append({"argv": expanded, "files": [os.path.join(out_dir, name) for name in files] + [report]})
        reports.append(report)
    base = _outputs(base_src, jobs, out_dir)
    here = _outputs(os.path.join(ROOT, "src"), jobs, out_dir)
    for (key, _, _), report, a, b in zip(ops, reports, base, here):
        what = _difference(a, b, report)
        if what is not None:
            print(f"difference: {label}, op {key}: {what}")
            return False
    print(f"{label}: {len(ops)} ops match")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="the other tree; its src/ is imported")
    parser.add_argument("--seeds", default="0-23", help="benchmark seeds, as '0-23' or '0,3,5-7'")
    parser.add_argument("--workloads", default=None, help="comma-separated workloads (default: all)")
    parser.add_argument("--run-ops", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_ops:
        _run_ops(args.run_ops)
        return 0
    if not args.base:
        parser.error("--base is required")
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import inputs

    base_src = os.path.join(os.path.abspath(args.base), "src")
    seeds = _seeds(args.seeds)
    workloads = args.workloads.split(",") if args.workloads else list(inputs.WORKLOADS)
    with tempfile.TemporaryDirectory() as tmp:
        inputs_dir = os.path.join(tmp, "inputs")
        for workload in workloads:
            for seed in seeds:
                ops = [(op.key, op.argv, ()) for op in inputs.build(workload, seed, inputs_dir)]
                if not _compare(f"workload {workload}, seed {seed}", ops, base_src, tmp, inputs_dir):
                    return 1
        inputs.build("flat_scan", seeds[0], inputs_dir)
        if not _compare(f"extras, seed {seeds[0]}", EXTRAS, base_src, tmp, inputs_dir):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
