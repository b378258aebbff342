"""Outside-in spans around the package's public functions.

Wrappers are installed on module attributes, where callers look the
function up, so nothing inside the package changes. Spans stay in memory as
tuples and are summarised into per-layer metrics after the pass.
"""
from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict


def _size(args, kwargs, result):
    return len(args[0])


def _n(args, kwargs, result):
    return args[0].n


def _scan(args, kwargs, result):
    return (args[0].n, result.skipped)


def _evaluations(args, kwargs, result):
    return result.evaluations


# (module, attribute, span name, work recorder). The span name's prefix is
# the layer that owns the function.
WRAP_POINTS = (
    ("curvcomp.cli", "certify", "certify.certify", _scan),
    ("curvcomp.cli", "defect_profile", "certify.defect_profile", _scan),
    ("curvcomp.cli", "delta_four_point", "hyperbolicity.delta_four_point", _n),
    ("curvcomp.cli", "relaxed_npc_bound_check", "hyperbolicity.relaxed_npc_bound_check", None),
    ("curvcomp.cli", "check_counterexample", "counterexamples.check_counterexample", None),
    ("curvcomp.cli", "load_space", "metricspace.load_space", None),
    ("curvcomp.cli", "dumps_report", "report.dumps_report", None),
    ("curvcomp.metricspace", "validate_metric", "metricspace.validate_metric", None),
    ("curvcomp.metricspace", "parse_distance_matrix", "metricspace.parse_distance_matrix", None),
    ("curvcomp.metricspace", "parse_edge_list", "metricspace.parse_edge_list", None),
    ("curvcomp.metricspace", "from_graph", "metricspace.from_graph", None),
    ("curvcomp.certify", "model_circumradius_batch", "modelplane.model_circumradius_batch", _size),
    ("curvcomp.certify", "candidate_rows", "circumradius.candidate_rows", None),
    ("curvcomp.hyperbolicity", "certify", "certify.certify", _scan),
    ("curvcomp.hyperbolicity", "delta_four_point", "hyperbolicity.delta_four_point", _n),
    ("curvcomp.counterexamples", "lp_circumradius", "circumradius.lp_circumradius", _evaluations),
    ("curvcomp.circumradius", "minimize", "circumradius.minimize", None),
    ("curvcomp.circumradius", "linprog", "circumradius.linprog", None),
)

NAME, START, END, PARENT, OP, WORK, ERROR = range(7)


class Recorder:
    """Collects spans as (name, start, end, parent, op, work, error) tuples.

    `parent` is the index of the enclosing span or -1; `error` is the
    exception class name, or None. Spans are numbered on entry and stored on
    exit as tuples of plain values, which the garbage collector stops
    tracking, so a pass with 10^5 spans does not slow collections.
    """

    def __init__(self):
        self._done: list[tuple] = []
        self._next = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    @property
    def spans(self) -> list[tuple]:
        """Finished spans in entry order, so a span's index is its number."""
        return sorted(self._done, key=lambda s: s[-1])

    def span(self, name, fn, work=None):
        done, stack, clock = self._done, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            number = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(number)
            count, error = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error, count = type(exc).__name__, len(getattr(exc, "violations", ()))
                raise
            finally:
                end = clock()
                stack.pop()
                if error is not None:
                    done.append((name, start, end, parent, self.op, count, error, number))
            if work is not None:
                count = work(args, kwargs, result)
            done.append((name, start, end, parent, self.op, count, None, number))
            return result

        return wrapper

    def install(self):
        # `import curvcomp.certify` would give the re-exported function, not
        # the module, so modules come from importlib
        for module_name, attr, name, work in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, work))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_times(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s[NAME].split(".", 1)[0]] += own
    return dict(totals)


def layer_metrics(spans, op_codes, stderr_lines) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `op_codes` maps op key to exit code; `stderr_lines` is the pass total.
    Metrics of a layer the workload does not call read 0.
    """
    own = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s, o in zip(spans, own):
        dur[s[NAME]] += s[END] - s[START]
        calls[s[NAME]] += 1
        self_s[s[NAME]] += o

    def works(name):
        return [s[WORK] for s in spans if s[NAME] == name and s[ERROR] is None]

    def per(total_s, count):
        return total_s / count * 1e9 if count else 0.0

    triangles = sum(works("modelplane.model_circumradius_batch"))
    scans = works("certify.certify") + works("certify.defect_profile")
    skipped = sum(k for _, k in scans)
    triples = sum(math.comb(n, 3) - k for n, k in scans)
    scan_s = dur["certify.certify"] + dur["certify.defect_profile"]
    quadruples = sum(n**4 for n in works("hyperbolicity.delta_four_point"))
    rejects = [s for s in spans if s[NAME] == "metricspace.validate_metric" and s[ERROR]]
    return {
        "modelplane.batch_s": dur["modelplane.model_circumradius_batch"],
        "modelplane.batch_calls": calls["modelplane.model_circumradius_batch"],
        "modelplane.triangles": triangles,
        "modelplane.ns_per_triangle": per(dur["modelplane.model_circumradius_batch"], triangles),
        "certify.scan_self_s": self_s["certify.certify"] + self_s["certify.defect_profile"],
        "certify.defect_profile_s": dur["certify.defect_profile"],
        "certify.triples": triples,
        "certify.skipped": skipped,
        "certify.ns_per_triple": per(scan_s, triples),
        "hyperbolicity.delta_s": dur["hyperbolicity.delta_four_point"],
        "hyperbolicity.delta_calls": calls["hyperbolicity.delta_four_point"],
        "hyperbolicity.quadruples": quadruples,
        "hyperbolicity.ns_per_quadruple": per(dur["hyperbolicity.delta_four_point"], quadruples),
        "hyperbolicity.bound_check_self_s": self_s["hyperbolicity.relaxed_npc_bound_check"],
        "circumradius.candidate_rows_s": dur["circumradius.candidate_rows"],
        "circumradius.lp_s": dur["circumradius.lp_circumradius"],
        "circumradius.lp_calls": calls["circumradius.lp_circumradius"],
        "circumradius.slsqp_s": dur["circumradius.minimize"],
        "circumradius.slsqp_iters": sum(works("circumradius.lp_circumradius")),
        "circumradius.certificate_s": dur["circumradius.linprog"],
        "counterexamples.check_s": dur["counterexamples.check_counterexample"],
        "counterexamples.self_s": self_s["counterexamples.check_counterexample"],
        "counterexamples.unreproduced": sum(
            1 for key, code in op_codes.items() if key.startswith("counterexample") and code == 1
        ),
        "metricspace.parse_s": dur["metricspace.parse_distance_matrix"] + dur["metricspace.parse_edge_list"],
        "metricspace.validate_s": dur["metricspace.validate_metric"],
        "metricspace.from_graph_s": self_s["metricspace.from_graph"],
        "metricspace.reject_s": sum(s[END] - s[START] for s in rejects),
        "metricspace.violations": sum(s[WORK] for s in rejects),
        "cli.self_s": self_s["cli.main"],
        "cli.stderr_lines": stderr_lines,
        "report.dumps_s": dur["report.dumps_report"],
    }
