"""Benchmark of the curvcomp command line, run from the repository root.

    python3 bench/run.py --workload flat_scan --seed 3 --seconds 25 --trace 0

Writes the workload's inputs from `--seed` under `.bench_out/`, then runs
passes of its ops in a closed loop (one client, one thread, each op starting
after the previous one returns) until `--seconds` is used up. Every pass runs
in a fresh worker process (`worker.py`). Every op's output is checked
against `references.json`.

The last stdout line is one JSON object. With `--trace 0` its metrics are the
end-to-end ones: median pass time and set-up time, both rescaled to a
reference machine speed, median worker peak RSS, and the share of ops that
succeeded. With `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones from `spans.py`. The line
before it records the machine, library versions, workload sizes and the
layer-to-metric map.
"""
from __future__ import annotations

import time

_import_start = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
import refs  # noqa: E402
import worker  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".bench_out"
SETUP_REPEATS = 3

WARMUP_INPUTS = {
    "warm.csv": "4\n0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n",
    "warm.edges": "a b 1\nb c 1\nc d 1\n",
    "warm_bad.csv": "3\n0,1,5\n1,0,1\n5,1,0\n",
}
WARMUP_ARGV = {
    "certify": ("certify", "warm.csv", "--json", "{json}"),
    "defect": ("defect", "warm.csv", "--json", "{json}"),
    "hyperbolicity": ("hyperbolicity", "warm.edges", "--json", "{json}"),
    "counterexample": ("counterexample", "--p", "3", "--json", "{json}"),
    "validate": ("validate", "warm_bad.csv"),
}

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "fraction", "setup_s": "s"}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if metric.endswith("growth_exp"):
        return "log2"
    if metric.endswith(("speedup_t2", "overhead_frac")):
        return "ratio"
    return "count"


def write_inputs(workload, seed, in_dir, sizes=None):
    """Write inputs and warm-up files; return (ops, warm-up ops)."""
    ops = inputs.build(workload, seed, in_dir, sizes)
    for name, text in WARMUP_INPUTS.items():
        with open(os.path.join(in_dir, name), "w") as fh:
            fh.write(text)
    kinds = dict.fromkeys(op.argv[0] for op in ops)
    warmup = [
        inputs.Op(f"warmup_{kind}", tuple(os.path.join(in_dir, a) if a.startswith("warm") else a for a in WARMUP_ARGV[kind]))
        for kind in kinds
    ]
    return ops, warmup


def _worker_env():
    env = dict(os.environ)
    env.pop("CURV_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload, ops, warmup, report_dir, trace=False, extras=False, spans_out=None):
    """Run one pass of `ops` in a fresh worker process; return its result dict."""
    os.makedirs(report_dir, exist_ok=True)
    job = {
        "src": os.path.abspath("src"),
        "ops": [{"key": op.key, "argv": list(op.argv)} for op in ops],
        "warmup": [{"key": op.key, "argv": list(op.argv)} for op in warmup],
        "report_dir": os.path.abspath(report_dir),
        "trace": trace,
        "extras": extras,
        "speedup": workload == "flat_scan",
        "spans_out": spans_out,
    }
    job["spawned"] = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        env=_worker_env(),
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Attempted, failed and incorrect op counts against the references."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: dict[str, str] = {}

    def add(self, op, outcome):
        correct, ok, reason = refs.compare(self.reference(op), outcome, op)
        self.attempted += 1
        self.failed += not ok
        self.correct &= correct
        if reason:
            self.reasons.setdefault(op.key, reason)


def measure(workload, ops, warmup, seconds, trace, reference, out_dir):
    """Closed-loop passes until `seconds` would be exceeded; at least one pass
    of each kind needed. Returns (plain results, traced results, tally)."""
    tally = Tally(reference)
    plain, traced = [], []
    lasted = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        began = time.perf_counter()
        result = run_worker(
            workload,
            ops,
            warmup,
            os.path.join(out_dir, "reports"),
            trace=tracing,
            extras=trace and not plain,
            spans_out=os.path.join(out_dir, "spans.json") if tracing else None,
        )
        lasted[tracing] = max(lasted[tracing], time.perf_counter() - began)
        for op, outcome in zip(ops, result["outcomes"]):
            tally.add(op, outcome)
        for outcome in result.get("extra_outcomes", ()):
            tally.add(ops[0], outcome)
        (traced if tracing else plain).append(result)
        upcoming = trace and len(traced) < len(plain)
        if trace and not traced:
            continue
        if time.perf_counter() - start + lasted[upcoming] > seconds:
            return plain, traced, tally


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="curvcomp benchmark")
    parser.add_argument("--workload", required=True, choices=list(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "curvcomp", "cli.py")):
        print("error: src/curvcomp not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        with open(refs.TABLE) as fh:
            table = json.load(fh)
        stored = table[args.workload][str(args.seed % refs.SEEDS)]
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: no reference outputs: {exc!r}", file=sys.stderr)
        return 2

    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    in_dir = os.path.join(out_dir, "inputs")
    # the stored references cover seeds 0..SEEDS-1, so inputs come from seed mod SEEDS
    input_seed = args.seed % refs.SEEDS
    generation = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        os.makedirs(in_dir, exist_ok=True)
        ops, warmup = write_inputs(args.workload, input_seed, in_dir)
        generation.append(time.perf_counter() - began)
    if refs.digest(refs.input_files(ops)) != stored["digest"]:
        print("error: generated inputs differ from those the references were made on", file=sys.stderr)
        return 2

    def reference(op):
        return refs.reference_for(table, stored, op)

    plain, traced, tally = measure(args.workload, ops, warmup, args.seconds, bool(args.trace), reference, out_dir)

    def median(results, key):
        return statistics.median(r[key] for r in results)

    wall_setup_s = IMPORT_S + statistics.median(generation) + median(plain, "setup_s")
    speed = median(plain, "calib_s") / worker.CALIBRATION_REF_S
    if args.trace:
        names = traced[0]["layers"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
        metrics.update(plain[0]["extras"])
        metrics["trace.overhead_frac"] = median(traced, "ref_s") / median(plain, "ref_s") - 1.0
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())}
    else:
        values = {
            "run_s": median(plain, "ref_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "ops_ok_frac": 1.0 - tally.failed / tally.attempted,
            "setup_s": wall_setup_s / speed,
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}

    print(
        json.dumps(
            {
                "machine": machine(),
                "workload": args.workload,
                "why": inputs.WORKLOADS[args.workload],
                "seed": args.seed,
                "input_seed": input_seed,
                "ops": [{"key": op.key, "n": op.n, "kappa": op.kappa} for op in ops if op.n or op.kappa is not None],
                "op_count": len(ops),
                "passes": {"plain": len(plain), "traced": len(traced)},
                "wall_run_s": [r["run_s"] for r in plain + traced],
                "wall_setup_s": wall_setup_s,
                "calibration_s": [r["calib_s"] for r in plain + traced],
                "ref_run_s": [r["ref_s"] for r in plain + traced],
                "layer_map": inputs.LAYER_MAP,
                "failures": tally.reasons,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
