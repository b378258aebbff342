"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py
"""
import copy
import json
import os

import pytest

import refs
import run
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = {
    "flat_scan": {"box": 14, "dense": 12},
    "curved_scan": {"sphere": 10, "hyperboloid": 10, "dense": 9},
    "graph_delta": {"graph": 14, "tree_nodes": 5, "subdivide": 3},
    "lp_and_reject": {"p_below_2": 3, "p_above_2": 3, "nonmetric": 12},
}


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _tiny(workload, tmp_path):
    margins = {}
    stored = refs.build_reference(workload, 5, str(tmp_path / "ref"), margins, TINY)
    ops, warmup = run.write_inputs(workload, 5, str(tmp_path / "ref" / "inputs"), TINY)
    table = {"margins": margins}
    return ops, warmup, table, stored


def _one_pass(workload, ops, warmup, table, stored, tmp_path, trace=False):
    return run.measure(
        workload, ops, warmup, 0.0, trace, lambda op: refs.reference_for(table, stored, op), str(tmp_path / "out")
    )


@pytest.mark.parametrize("workload", ["flat_scan", "graph_delta"])
def test_matching_references_pass_and_a_wrong_one_fails(workload, tmp_path):
    ops, warmup, table, stored = _tiny(workload, tmp_path)
    _, _, tally = _one_pass(workload, ops, warmup, table, stored, tmp_path)
    assert (tally.correct, tally.attempted, tally.failed) == (True, len(ops), 0)

    wrong = copy.deepcopy(stored)
    key = ops[-1].key
    field = "delta" if workload == "graph_delta" else "epsilon_star_upper"
    wrong["ops"][key][field] += 1e-6
    _, _, tally = _one_pass(workload, ops, warmup, table, wrong, tmp_path)
    assert (tally.correct, tally.failed) == (False, 1)
    assert key in tally.reasons


def test_wrong_exit_code_fails_without_marking_outputs_incorrect(tmp_path):
    ops, warmup, table, stored = _tiny("lp_and_reject", tmp_path)
    _, _, tally = _one_pass("lp_and_reject", ops, warmup, table, stored, tmp_path)
    # exponents near 1, near 2 and above 5.25 exit 1 although their margins are right
    unreproduced = [key for key, reason in tally.reasons.items() if reason == "exit 1 != 0"]
    assert tally.correct and tally.failed == len(unreproduced) > 0

    wrong = copy.deepcopy(stored)
    wrong["ops"]["validate_nonmetric"]["violations"] += 1
    _, _, tally = _one_pass("lp_and_reject", ops, warmup, table, wrong, tmp_path)
    assert not tally.correct and tally.failed == len(unreproduced) + 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_spans_cover_the_pass_and_nest(workload, tmp_path):
    ops, warmup, table, stored = _tiny(workload, tmp_path)
    _, traced, tally = _one_pass(workload, ops, warmup, table, stored, tmp_path, trace=True)
    assert tally.correct
    result = traced[0]
    # layer self times, cli.main's own time included, account for the pass
    assert result["span_cover"] >= 0.95

    with open(tmp_path / "out" / "spans.json") as fh:
        recorded = json.load(fh)
    roots = [s for s in recorded if s[spans.PARENT] < 0]
    assert [s[spans.NAME] for s in roots] == ["cli.main"] * len(ops)
    for s in recorded:
        if s[spans.PARENT] >= 0:
            parent = recorded[s[spans.PARENT]]
            assert parent[spans.START] <= s[spans.START] <= s[spans.END] <= parent[spans.END]
            assert parent[spans.OP] == s[spans.OP]


def test_layer_metrics_sum_self_times():
    # cli.main(10) > load_space(4) > validate_metric(3); cli.main > certify(5) > batch(2)
    recorded = [
        ("cli.main", 0.0, 10.0, -1, 0, None, None, 0),
        ("metricspace.load_space", 1.0, 5.0, 0, 0, None, None, 1),
        ("metricspace.validate_metric", 2.0, 5.0, 1, 0, None, None, 2),
        ("certify.certify", 5.0, 10.0, 0, 0, (4, 0), None, 3),
        ("modelplane.model_circumradius_batch", 6.0, 8.0, 3, 0, 3, None, 4),
    ]
    assert spans.self_times(recorded) == [1.0, 1.0, 3.0, 3.0, 2.0]
    layers = spans.layer_self_times(recorded)
    assert layers == {"cli": 1.0, "metricspace": 4.0, "certify": 3.0, "modelplane": 2.0}
    metrics = spans.layer_metrics(recorded, {}, 0)
    assert metrics["certify.scan_self_s"] == 3.0
    assert metrics["certify.triples"] == 4
    assert metrics["modelplane.ns_per_triangle"] == pytest.approx(2.0 / 3 * 1e9)


@pytest.mark.parametrize("p, margin", [(2.0, 0.0), (float("inf"), 0.0), (4.0, None), (1.5, None)])
def test_margin_oracle_is_positive_off_the_controls(p, margin):
    got = refs.mp_margin(p)
    if margin is None:
        assert 1e-4 < got < 0.05
    else:
        assert got == margin
