"""One benchmark pass in a fresh process.

Reads a job (JSON) on stdin, imports `curvcomp` from the job's source tree,
runs a warm-up, then every op in order through `curvcomp.cli.main` with
stdout and stderr sent to line-counting sinks, and prints one JSON result
line on the real stdout. Run by `run.py`; not meant to be called by hand.
"""
from __future__ import annotations

import io
import json
import math
import os
import resource
import sys
import time

import numpy as np


class LineSink(io.TextIOBase):
    """A text stream that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def writable(self):
        return True

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def _import_package(src: str):
    sys.path.insert(0, src)
    import curvcomp.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"curvcomp was imported from {cli.__file__}, not from {src}")
    return cli


def run_ops(main, ops, threads, report_dir, recorder=None, calibrated=False):
    """Run ops in a closed loop; returns (outcomes, timing, stderr lines).

    `timing` holds `run_s`, the wall time of the ops and the harness between
    them. With `calibrated`, the calibration loop also runs before the first
    op and whenever CALIBRATE_EVERY_S of op time has passed since the last
    run, outside the timed ops; `ref_s` is then the sum over those segments
    of segment time * CALIBRATION_REF_S / mean of the two calibrations around
    it, and `calib_s` the mean calibration time.
    """
    real_out, real_err = sys.stdout, sys.stderr
    out, err = LineSink(), LineSink()
    outcomes = []
    calibrations = [calibrate()] if calibrated else []
    run_s = ref_s = segment = 0.0
    sys.stdout, sys.stderr = out, err
    try:
        for index, op in enumerate(ops):
            start = time.perf_counter()
            argv = ["--threads", str(threads)]
            argv += [a.replace("{json}", os.path.join(report_dir, f"{index}.json")) for a in op["argv"]]
            lines_before = err.lines
            if recorder is not None:
                recorder.op = index
            began = time.perf_counter()
            try:
                code, error = main(argv), None
            except Exception as exc:  # a raising op is a failed op, not a crashed pass
                code, error = None, f"{type(exc).__name__}: {exc}"
            ended = time.perf_counter()
            outcomes.append(
                {
                    "key": op["key"],
                    "code": code,
                    "error": error,
                    "seconds": ended - began,
                    "stderr_lines": err.lines - lines_before,
                    "report": os.path.join(report_dir, f"{index}.json"),
                }
            )
            segment += time.perf_counter() - start
            if calibrated and (segment >= CALIBRATE_EVERY_S or index == len(ops) - 1):
                calibrations.append(calibrate())
                ref_s += segment * CALIBRATION_REF_S * 2 / (calibrations[-2] + calibrations[-1])
                run_s += segment
                segment = 0.0
        run_s += segment
    finally:
        sys.stdout, sys.stderr = real_out, real_err
    timing = {"run_s": run_s}
    if calibrated:
        timing.update(ref_s=ref_s, calib_s=sum(calibrations) / len(calibrations))
    return outcomes, timing, err.lines


# The box the sizes were chosen on is shared, and its speed drifts by tens of
# percent within seconds to minutes, for all work alike. Pass times are
# therefore rescaled, segment by segment, to the speed at which the
# calibration loop takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.1
CALIBRATE_EVERY_S = 0.5


def calibrate() -> float:
    """Time a fixed mix of the kinds of work the ops spend their time in:
    dict updates, row-wise numpy min-max, and arccos/arccosh on short rows."""
    rng = np.random.default_rng(0)
    d = rng.random((160, 160))
    u, v = rng.random((70, 3)) * 0.5, rng.random((70, 3)) * 0.5
    start = time.perf_counter()
    counts = {}
    for i in range(100000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    for i in range(25):
        for j in range(i + 1, i + 40):
            np.min(np.maximum(np.maximum(d[:, i], d[:, j])[:, None], d[:, j + 1 :]), axis=0)
    for _ in range(4000):
        dot = np.clip(np.einsum("ij,ij->i", u, v), -1.0, 1.0)
        np.maximum(np.arccos(dot), np.arccosh(1.0 + dot))
    return time.perf_counter() - start


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def growth_and_speedup(job, cli, first_outcome):
    """Per-layer scaling figures that need extra, untimed-by-the-pass calls.

    certify.growth_exp and hyperbolicity.growth_exp are log2 of the time at n
    over the time on the first n/2 points; certify.speedup_t2 is the first
    op's time at one thread over its time at two. Figures a workload does not
    exercise read 0. Returns the figures and the outcome of the two-thread op.
    """
    import importlib

    certify_mod = importlib.import_module("curvcomp.certify")
    hyper_mod = importlib.import_module("curvcomp.hyperbolicity")
    extras = {"certify.growth_exp": 0.0, "hyperbolicity.growth_exp": 0.0, "certify.speedup_t2": 0.0}
    first = job["ops"][0]
    argv = first["argv"]
    if argv[0] == "certify":
        space = cli.load_space(argv[1])
        query = certify_mod.CurvatureQuery(
            kappa=float(argv[argv.index("--kappa") + 1]),
            direction=argv[argv.index("--direction") + 1],
        )
        half = space.subspace(range(space.n // 2))
        full_s = _timed(certify_mod.certify, space, query, threads=1)
        half_s = _timed(certify_mod.certify, half, query, threads=1)
        extras["certify.growth_exp"] = math.log2(full_s / half_s)
    if argv[0] == "hyperbolicity":
        space = cli.load_space(argv[1])
        half = space.subspace(range(space.n // 2))
        full_s = _timed(hyper_mod.delta_four_point, space, threads=1)
        half_s = _timed(hyper_mod.delta_four_point, half, threads=1)
        extras["hyperbolicity.growth_exp"] = math.log2(full_s / half_s)
    outcomes = []
    if job["speedup"]:
        outcomes, _, _ = run_ops(cli.main, [first], 2, os.path.join(job["report_dir"], "t2"))
        extras["certify.speedup_t2"] = first_outcome["seconds"] / outcomes[0]["seconds"]
    return extras, outcomes


def main() -> int:
    job = json.load(sys.stdin)
    cli = _import_package(job["src"])
    os.makedirs(os.path.join(job["report_dir"], "t2"), exist_ok=True)
    run_ops(cli.main, job["warmup"], 1, job["report_dir"])
    ready = time.perf_counter()

    recorder = None
    main_fn = cli.main
    if job["trace"]:
        from spans import Recorder, layer_metrics, layer_self_times

        recorder = Recorder()
        recorder.install()
        main_fn = recorder.span("cli.main", cli.main)
    outcomes, timing, stderr_lines = run_ops(main_fn, job["ops"], 1, job["report_dir"], recorder, calibrated=True)
    result = {
        **timing,
        "setup_s": ready - job["spawned"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcomes": outcomes,
    }
    if recorder is not None:
        recorder.uninstall()
        spans = recorder.spans
        codes = {o["key"]: o["code"] for o in outcomes}
        result["layers"] = layer_metrics(spans, codes, stderr_lines)
        result["span_cover"] = sum(layer_self_times(spans).values()) / timing["run_s"]
        if job["spans_out"]:
            with open(job["spans_out"], "w") as fh:
                json.dump(spans, fh)
    if job["extras"]:
        result["extras"], result["extra_outcomes"] = growth_and_speedup(job, cli, outcomes[0])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
