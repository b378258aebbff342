"""Machine-readable reports: JSON with 17-significant-digit numerics.

Reports are byte-identical across runs for fixed inputs, except the
timing_ms field. Non-finite floats, which JSON lacks, are written as the
strings "inf", "-inf" and "nan".
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote  # json.dumps(str) under its defaults

from . import __version__
from .certify import TriangleDefect, Verdict
from .metricspace import FiniteMetricSpace

REPORT_FIELDS = (
    "version",
    "input_digest",
    "query",
    "verdict",
    "epsilon_star_upper",
    "epsilon_star_lower",
    "delta",
    "witnesses",
    "skipped",
    "beta_curve",
    "timing_ms",
)


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format(obj, ".17g") if math.isfinite(obj) else _quote(str(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for idx, key in enumerate(sorted(obj)):
            if idx:
                out.append(", ")
            out.append(_quote(str(key)))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for idx, item in enumerate(obj):
            if idx:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(report: dict) -> str:
    out: list[str] = []
    _emit(report, out)
    return "".join(out) + "\n"


def witness_entry(space: FiniteMetricSpace, td: TriangleDefect) -> dict:
    t = td.triple.as_tuple()
    return {
        "triple": list(t),
        "labels": [space.label(i) for i in t],
        "sides": list(td.sides.as_tuple()),
        "r_space": td.r_space,
        "r_model": td.r_model,
        "defect": td.defect,
    }


def base_report(space: FiniteMetricSpace | None, query: dict | None = None) -> dict:
    report = {name: None for name in REPORT_FIELDS}
    report["version"] = __version__
    report["witnesses"] = []
    if space is not None:
        report["input_digest"] = space.digest()
    if query is not None:
        report["query"] = query
    return report


def verdict_fields(space: FiniteMetricSpace, verdict: Verdict) -> dict:
    fields = {
        "holds": verdict.holds,
        "epsilon_needed": verdict.epsilon_needed,
    }
    witnesses = []
    if verdict.witness is not None:
        witnesses.append(witness_entry(space, verdict.witness))
    return {"verdict": fields, "witnesses": witnesses, "skipped": verdict.skipped}
