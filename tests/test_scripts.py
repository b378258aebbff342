"""The experiment scripts run end to end on tiny inputs."""
import os
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


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
