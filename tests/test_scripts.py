"""The experiment scripts run end to end on tiny inputs."""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["lp_margin_sweep.py", "--steps", "3"],
        ["defect_scan.py", "random_graph:n=12,seed=3", "--betas", "0,1"],
        ["tree_discretization.py", "--n", "6", "--depth", "1", "--seeds", "1"],
    ],
    ids=["lp_margin_sweep", "defect_scan", "tree_discretization"],
)
def test_script_exits_zero(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_lp_margin_sweep_reports_the_margin_error(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run(["lp_margin_sweep.py", "--steps", "2", "--csv", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == ["p", "r_space", "r_model", "margin", "margin_error"]
    header, *rows = out.read_text().splitlines()
    assert header == "p,r_space,r_model,margin,margin_error"
    assert len(rows) == 2 and all(len(row.split(",")) == 5 for row in rows)


def test_compare_outputs_finds_no_difference_against_itself():
    proc = _run(["compare_outputs.py", "--base", str(ROOT), "--seeds", "0", "--workloads", "graph_delta"])
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines() == ["workload graph_delta, seed 0: 2 ops match", "extras, seed 0: 68 ops match"]


def test_compare_outputs_reports_a_changed_float_format(tmp_path):
    # reports print floats with .17g; at .16g most of them read differently
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    report = tmp_path / "src" / "curvcomp" / "report.py"
    text = report.read_text()
    assert 'format(obj, ".17g")' in text
    report.write_text(text.replace('format(obj, ".17g")', 'format(obj, ".16g")'))
    proc = _run(["compare_outputs.py", "--base", str(tmp_path), "--seeds", "0", "--workloads", "graph_delta"])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == "difference: workload graph_delta, seed 0, op hyperbolicity_graph: the report"


def _run(argv):
    """Run a script under the runtime's debug checks, with a RuntimeWarning as an
    error as in the tier-1 tests; a clean exit must leave stderr empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode == 0:
        assert proc.stderr == ""
    return proc
