"""Reference outputs for every benchmark op, and the check against them.

A reference is recorded from one run of the program and then re-verified
along routes that avoid the package's scans:

- triple scans at kappa = 0 are redone by a separate numpy min-max with
  law-of-sines model radii; curved witnesses are re-measured with a direct
  min over all points and `tests/oracles.minmax_grid_model`;
- the skipped count of kappa > 0 scans is recounted from perimeters;
- the four-point delta is redone by a separate scan of all quadruples on
  Floyd-Warshall distances of the edge list;
- `l_p` margins come from an mpmath search on the triangle's symmetry axis;
- violation counts of non-metrics are recounted with numpy.

The table for the benchmark's seeds is stored in `references.json`;
regenerate it with `python3 bench/refs.py` from the repository root.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "references.json")
SEEDS = 24  # stored seeds; run.py reads the inputs of seed mod SEEDS
TOL = 1e-9  # allowed difference of epsilon_needed, delta and margin
ORACLE_TOL = 1e-7  # allowed gap between a grid-search oracle and a closed form
# the package's documented tolerances: right-or-obtuse classification and the
# relative triangle-inequality slack 1e-9 * (1 + scale)
OBTUSE_REL = 1e-12
TRIANGLE_TOL = 1e-9


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def input_files(op_list) -> list[str]:
    files = []
    for op in op_list:
        for arg in op.argv:
            if arg.endswith((".csv", ".edges")) and arg not in files:
                files.append(arg)
    return files


# ---------------------------------------------------------------------------
# Independent routes


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().split()
    n = int(lines[0])
    return np.array([[float(x) for x in row.split(",")] for row in lines[1 : n + 1]])


def read_graph(path) -> np.ndarray:
    """Floyd-Warshall distances, vertices indexed by first appearance."""
    index, edges = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].split()
            if line:
                u, v, w = line
                for x in (u, v):
                    index.setdefault(x, len(index))
                edges.append((index[u], index[v], float(w)))
    n = len(index)
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        d[u, v] = d[v, u] = min(d[u, v], w)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d


def law_of_sines(a, b, c):
    """Vectorized planar enclosing radius for sorted sides a >= b >= c."""
    cos_alpha = (b * b + c * c - a * a) / (2.0 * b * c)
    sin_alpha = np.sqrt(np.maximum(1.0 - cos_alpha * cos_alpha, 0.0))
    obtuse = (b * b + c * c - a * a <= OBTUSE_REL * a * a) | (sin_alpha == 0.0)
    with np.errstate(divide="ignore"):
        return np.where(obtuse, a / 2.0, a / (2.0 * np.where(obtuse, 1.0, sin_alpha)))


@functools.lru_cache(maxsize=4)
def flat_scan_file(path, betas=()):
    return flat_scan(read_graph(path) if path.endswith(".edges") else read_matrix(path), betas)


def flat_scan(d, betas=()):
    """Worst upper and lower kappa = 0 defects over all triples, the first
    triples attaining them, and max(0, worst upper defect) per beta."""
    n = d.shape[0]
    up = [0.0, None]
    lo = [0.0, None]
    curve = [0.0] * len(betas)
    for i in range(n):
        for j in range(i + 1, n - 1):
            ks = np.arange(j + 1, n)
            sides = np.sort(np.stack([np.full(ks.size, d[i, j]), d[i, ks], d[j, ks]]), axis=0)
            r_model = law_of_sines(sides[2], sides[1], sides[0])
            r_space = np.min(np.maximum(np.maximum(d[:, i], d[:, j])[:, None], d[:, ks]), axis=0)
            defect = r_space - r_model
            top, bottom = int(np.argmax(defect)), int(np.argmin(defect))
            if defect[top] > up[0]:
                up = [float(defect[top]), (i, j, int(ks[top]))]
            if -defect[bottom] > lo[0]:
                lo = [float(-defect[bottom]), (i, j, int(ks[bottom]))]
            for b, beta in enumerate(betas):
                keep = defect[sides[0] >= beta]
                if keep.size:
                    curve[b] = max(curve[b], float(keep.max()))
    return up, lo, curve


def direct_r_space(d, triple) -> float:
    i, j, k = triple
    return float(np.min(np.maximum(np.maximum(d[:, i], d[:, j]), d[:, k])))


def model_vertices(sides, kappa) -> np.ndarray:
    """The comparison triangle placed in the model plane's embedding (unit
    curvature radius coordinates scaled back), for the grid oracle."""
    a, b, c = sorted(sides, reverse=True)
    if kappa == 0:
        x = (b * b + a * a - c * c) / (2.0 * a)
        return np.array([[0.0, 0.0], [a, 0.0], [x, math.sqrt(max(b * b - x * x, 0.0))]])
    radius = 1.0 / math.sqrt(abs(kappa))
    a, b, c = a / radius, b / radius, c / radius
    if kappa > 0:
        cos_g = (math.cos(c) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b))
        sin_g = math.sqrt(max(1.0 - cos_g * cos_g, 0.0))
        pts = [[0, 0, 1], [math.sin(a), 0, math.cos(a)], [math.sin(b) * cos_g, math.sin(b) * sin_g, math.cos(b)]]
    else:
        cos_g = (math.cosh(a) * math.cosh(b) - math.cosh(c)) / (math.sinh(a) * math.sinh(b))
        sin_g = math.sqrt(max(1.0 - cos_g * cos_g, 0.0))
        pts = [[0, 0, 1], [math.sinh(a), 0, math.cosh(a)], [math.sinh(b) * cos_g, math.sinh(b) * sin_g, math.cosh(b)]]
    return np.array(pts, dtype=float) * radius


@functools.cache
def _oracles():
    sys.path.insert(0, os.path.join(HERE, "..", "tests"))
    import oracles

    return oracles


def grid_r_model(sides, kappa) -> float:
    if kappa == 0:
        return _oracles().law_of_sines_circumradius(*sides)
    return _oracles().minmax_grid_model(model_vertices(sides, kappa), kappa)


def perimeter_skips(d, kappa) -> int:
    if kappa <= 0:
        return 0
    bound = 2.0 * math.pi / math.sqrt(kappa)
    cap = bound - TRIANGLE_TOL * (1.0 + bound)
    i, j, k = np.array(list(itertools.combinations(range(d.shape[0]), 3))).T
    return int(np.count_nonzero(d[i, j] + d[i, k] + d[j, k] >= cap))


def four_point(d):
    """Largest four-point value over ordered quadruples, floored at 0."""
    best = 0.0
    for w in range(d.shape[0]):
        g = (d[:, [w]] + d[[w], :] - d) / 2.0
        best = max(best, float((np.minimum(g[:, :, None], g[None, :, :]).max(axis=1) - g).max()))
    return best


def four_point_value(d, quad) -> float:
    x, y, z, w = quad

    def gp(a, b):
        return (d[a, w] + d[b, w] - d[a, b]) / 2.0

    return min(gp(x, z), gp(z, y)) - gp(x, y)


def violation_count(d) -> int:
    tau = TRIANGLE_TOL * (1.0 + float(d.max()))
    n = d.shape[0]
    count = 0
    for k in range(n):
        bad = d > d[:, [k]] + d[[k], :] + tau
        bad[:, k] = bad[k, :] = False
        np.fill_diagonal(bad, False)
        count += int(np.count_nonzero(np.triu(bad, 1)))
    off = ~np.eye(n, dtype=bool)
    count += int(np.count_nonzero(np.triu(d != d.T, 1)))
    count += int(np.count_nonzero(np.triu(d < 0, 1)))
    count += int(np.count_nonzero(np.diag(d) != 0))
    count += int(np.count_nonzero(np.triu((d == 0) & off, 1)))
    return count


def mp_margin(p: float) -> float:
    """Circumradius of the l_p counterexample triangle minus 1, by bisection
    on its symmetry axis at 40 digits. The optimum lies on the axis because
    the min-max objective is convex and the triangle is mirror-symmetric."""
    if math.isinf(p) or p == 2.0:
        return 0.0
    import mpmath as mp

    mp.mp.dps = 40
    P = mp.mpf(p)

    def bisect(f, lo, hi, steps=200):
        # f increasing with f(lo) <= 0 <= f(hi)
        for _ in range(steps):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
        return (lo + hi) / 2

    if P > 2:
        # B = (-1, 0), C = (1, 0), A' = (0, y); centers (0, t), 0 <= t <= y
        y = (2 ** (P / 2) - 1) ** (1 / P)

        def g(t):
            return (1 + abs(t) ** P) ** (1 / P)

        t = bisect(lambda t: g(t) - (y - t), mp.mpf(0), y)
        return float(g(t) - 1)
    # B = (-r, r), C = (r, -r), A' = (s, s); centers (u, u), 0 <= u <= s
    r = 2 ** (-1 / P)
    s = bisect(lambda s: (s + r) ** P + (s - r) ** P - 2 ** (P / 2), r, mp.mpf(10))

    def g(u):
        return ((u + r) ** P + abs(u - r) ** P) ** (1 / P)

    def h(u):
        return 2 ** (1 / P) * abs(s - u)

    if h(0) <= g(0):
        return float(g(0) - 1)
    u = bisect(lambda u: g(u) - h(u), mp.mpf(0), s)
    return float(g(u) - 1)


# ---------------------------------------------------------------------------
# Recording and checking


def _load_report(outcome):
    # the report writer prints an infinite p as a bare `inf`, which JSON lacks
    with open(outcome["report"]) as fh:
        return json.loads(re.sub(r"\binf\b", "Infinity", fh.read()))


def observed(op, outcome) -> dict:
    """The fields of an op's output that a reference fixes."""
    kind = op.argv[0]
    seen = {"exit": outcome["code"]}
    if kind == "validate":
        seen["violations"] = outcome["stderr_lines"]
        return seen
    report = _load_report(outcome)
    if kind == "certify":
        seen["holds"] = report["verdict"]["holds"]
        seen["epsilon_needed"] = report["verdict"]["epsilon_needed"]
        seen["witness"] = report["witnesses"][0]["triple"] if report["witnesses"] else None
        seen["skipped"] = report["skipped"]
    elif kind == "defect":
        seen["epsilon_star_upper"] = report["epsilon_star_upper"]
        seen["epsilon_star_lower"] = report["epsilon_star_lower"]
        seen["witnesses"] = [w["triple"] for w in report["witnesses"]]
        seen["beta_curve"] = [eps for _, eps in report["beta_curve"]]
        seen["skipped"] = report["skipped"]
    elif kind == "hyperbolicity":
        seen["delta"] = report["delta"]
        seen["epsilon_star_upper"] = report["epsilon_star_upper"]
        seen["witness"] = report["witnesses"][0]["quadruple"] if report["witnesses"] else None
    elif kind == "counterexample":
        seen["margin"] = report["verdict"]["margin"]
    return seen


NUMERIC = ("epsilon_needed", "epsilon_star_upper", "epsilon_star_lower", "delta", "margin", "beta_curve")


def compare(expected: dict, outcome, op) -> tuple[bool, bool, str]:
    """(correct, ok, reason) for one op.

    `correct` is false when the op raised or an output differs from its
    reference: a number by more than TOL, a witness, verdict or count at all.
    `ok` is also false when only the exit code differs from the expected
    one, which is how the counterexample gate's known defect shows.
    """
    if outcome["error"] is not None:
        return False, False, outcome["error"]
    try:
        seen = observed(op, outcome)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, False, f"unreadable report: {exc!r}"
    for key, want in expected.items():
        got = seen.get(key)
        if key == "exit":
            pass
        elif key in NUMERIC:
            wants, gots = (want, got) if isinstance(want, list) else ([want], [got])
            close = isinstance(gots, list) and len(gots) == len(wants) and all(
                isinstance(g, (int, float)) and abs(g - w) <= TOL for g, w in zip(gots, wants)
            )
            if not close:
                return False, False, f"{key}: {got!r} != {want!r}"
        elif got != want:
            return False, False, f"{key}: {got!r} != {want!r}"
    if seen["exit"] != expected["exit"]:
        return True, False, f"exit {seen['exit']} != {expected['exit']}"
    return True, True, ""


def reference_for(table: dict, stored: dict, op) -> dict:
    """The expected output of `op`; `stored` is the table entry of its workload and seed."""
    if op.argv[0] == "counterexample":
        # the paper's violation is strict for every p != 2, inf, so every p should exit 0
        return {"exit": 0, "margin": table["margins"][op.argv[2]]}
    return stored["ops"][op.key]


class MismatchError(Exception):
    """The program's output disagrees with an independent route."""


def _check(ok, *detail):
    if not ok:
        raise MismatchError(*detail)


def verify(op, seen: dict) -> dict:
    """Re-derive an op's recorded output independently; return the reference.

    Raises MismatchError when the program's output disagrees.
    """
    kind = op.argv[0]
    ref = dict(seen)
    if kind == "counterexample":
        p = float(op.argv[2])
        margin = mp_margin(p)
        _check(abs(seen["margin"] - margin) <= TOL, (p, seen["margin"], margin))
        return {"exit": 0, "margin": margin}
    if kind == "validate":
        count = violation_count(read_matrix(op.argv[1]))
        _check(seen["violations"] == count, (seen["violations"], count))
        _check(seen["exit"] == 2)
        return ref
    if kind == "hyperbolicity":
        d = read_graph(op.argv[1])
        _check(abs(seen["delta"] - four_point(d)) <= TOL, seen["delta"])
        if seen["witness"] is not None:
            _check(abs(four_point_value(d, seen["witness"]) - seen["delta"]) <= 1e-12)
        up, _, _ = flat_scan_file(op.argv[1])
        _check(abs(seen["epsilon_star_upper"] - up[0]) <= TOL, (seen["epsilon_star_upper"], up))
        _check(seen["exit"] == 0)
        return ref
    d = read_matrix(op.argv[1])
    kappa = op.kappa
    _check(seen["skipped"] == perimeter_skips(d, kappa), seen["skipped"])
    if kind == "defect":
        betas = tuple(float(b) for b in op.argv[op.argv.index("--beta-grid") + 1].split(","))
        up, lo, curve = flat_scan_file(op.argv[1], betas)
        _check(abs(seen["epsilon_star_upper"] - up[0]) <= TOL)
        _check(abs(seen["epsilon_star_lower"] - lo[0]) <= TOL)
        _check(all(abs(a - b) <= TOL for a, b in zip(seen["beta_curve"], curve)))
        for triple, sign, eps in zip(seen["witnesses"], (1, -1), (up[0], lo[0])):
            _verify_witness(d, triple, 0.0, sign * eps)
        return ref
    upper = op.argv[op.argv.index("--direction") + 1] == "upper"
    sign = 1 if upper else -1
    if kappa == 0:
        up, lo, _ = flat_scan_file(op.argv[1])
        _check(abs(seen["epsilon_needed"] - (up if upper else lo)[0]) <= TOL)
    if seen["witness"] is not None:
        _verify_witness(d, seen["witness"], kappa, sign * seen["epsilon_needed"])
    else:
        # a verdict that holds has no witness: spot-check triples against the oracle
        rng = np.random.default_rng(0)
        for _ in range(12):
            triple = tuple(sorted(rng.choice(d.shape[0], 3, replace=False).tolist()))
            sides = [d[triple[0], triple[1]], d[triple[0], triple[2]], d[triple[1], triple[2]]]
            if kappa > 0 and sum(sides) >= 2 * math.pi / math.sqrt(kappa) - 1e-6:
                continue
            defect = direct_r_space(d, triple) - grid_r_model(sides, kappa)
            _check(sign * defect <= seen["epsilon_needed"] + ORACLE_TOL, (triple, defect))
    return ref


def _verify_witness(d, triple, kappa, defect):
    i, j, k = triple
    sides = [d[i, j], d[i, k], d[j, k]]
    got = direct_r_space(d, triple) - grid_r_model(sides, kappa)
    tol = TOL if kappa == 0 else ORACLE_TOL
    _check(abs(got - defect) <= tol, (triple, got, defect))


def build_reference(workload, seed, work_dir, margins, sizes=None):
    """Run the workload once through the program, verify every output
    independently, and return {"digest": ..., "ops": {key: reference}}.
    Counterexample margins, which no seed changes, go into `margins`."""
    import run

    in_dir = os.path.join(work_dir, "inputs")
    os.makedirs(in_dir, exist_ok=True)
    op_list, warmup = run.write_inputs(workload, seed, in_dir, sizes)
    result = run.run_worker(workload, op_list, warmup, os.path.join(work_dir, "reports"))
    entry = {}
    for op, outcome in zip(op_list, result["outcomes"]):
        _check(outcome["error"] is None, op.key, outcome["error"])
        if op.argv[0] == "counterexample" and op.argv[2] in margins:
            continue
        ref = verify(op, observed(op, outcome))
        if op.argv[0] == "counterexample":
            margins[op.argv[2]] = ref["margin"]
        else:
            entry[op.key] = ref
    return {"digest": digest(input_files(op_list)), "ops": entry}


def main() -> int:
    import inputs

    margins = {}
    table = {"margins": margins}
    for workload in inputs.WORKLOADS:
        table[workload] = {}
        for seed in range(SEEDS):
            work_dir = os.path.join(".bench_out", "refs", workload, str(seed))
            table[workload][str(seed)] = build_reference(workload, seed, work_dir, margins)
            print(workload, seed, flush=True)
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
