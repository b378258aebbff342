"""Exit codes, report fields, and byte-level determinism of the CLI."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from curvcomp.cli import EXIT_FAILS, EXIT_INTERNAL, EXIT_INVALID_METRIC, EXIT_OK, EXIT_USAGE, main
from curvcomp.hyperbolicity import delta_four_point
from curvcomp.metricspace import format_distance_matrix
from curvcomp.report import REPORT_FIELDS, dumps_report
from oracles import random_metric_matrix

PATH4_TEXT = "4\n0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n"


@pytest.fixture
def path4_file(tmp_path):
    f = tmp_path / "path4.csv"
    f.write_text(PATH4_TEXT)
    return str(f)


@pytest.fixture
def random_file(tmp_path):
    m = random_metric_matrix(np.random.default_rng(13), 9)
    f = tmp_path / "random.csv"
    f.write_text(format_distance_matrix(m))
    return str(f)


def test_validate_ok(path4_file, capsys):
    assert main(["validate", path4_file]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_invalid_metric_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("3\n0,1,5\n1,0,1\n5,1,0\n")
    assert main(["validate", str(f)]) == EXIT_INVALID_METRIC
    assert "triangle" in capsys.readouterr().err


def test_missing_file_exits_three(capsys):
    assert main(["validate", "/nonexistent/nowhere.csv"]) == EXIT_USAGE


def test_bad_usage_exits_three(path4_file, capsys):
    assert main(["certify"]) == EXIT_USAGE  # missing path
    assert main(["frobnicate", "x"]) == EXIT_USAGE
    capsys.readouterr()
    for threads in ("0", "-3"):
        assert main(["certify", path4_file, "--threads", threads]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert main(["--threads", threads, "certify", path4_file]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--kappa", "nan"],
        ["certify", "--kappa", "inf"],
        ["certify", "--beta", "inf"],
        ["certify", "--epsilon", "inf"],
        ["defect", "--beta-grid", "nan,1"],
        ["defect", "--beta-grid", "0,inf"],
        ["defect", "--beta-grid=-1,1"],
        ["hyperbolicity", "--allowance", "nan"],
        ["hyperbolicity", "--allowance", "inf"],
    ],
    ids=[
        "kappa-nan",
        "kappa-inf",
        "beta-inf",
        "epsilon-inf",
        "beta-grid-nan",
        "beta-grid-inf",
        "beta-grid-negative",
        "allowance-nan",
        "allowance-inf",
    ],
)
def test_non_finite_query_exits_three(argv, path4_file, capsys):
    # path4 fails at kappa = 0, so an exit 0 here would be a false certificate
    assert main([argv[0], path4_file, *argv[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_internal_error_exits_four(monkeypatch, capsys):
    def broken(p):
        raise RuntimeError("certificate gap too large")

    monkeypatch.setattr("curvcomp.cli.check_counterexample", broken)
    assert main(["counterexample", "--p", "4"]) == EXIT_INTERNAL
    assert "internal error: RuntimeError: certificate gap too large" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK


def test_certify_path_fails_with_witness(path4_file, capsys):
    code = main(["certify", path4_file, "--kappa", "0", "--direction", "upper"])
    out = capsys.readouterr().out
    assert code == EXIT_FAILS
    assert "0,1,3" in out  # worst triple labels


def test_certify_with_slack_holds(path4_file, capsys):
    code = main(["certify", path4_file, "--epsilon", "0.5"])
    assert code == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_certify_lower_direction_holds(path4_file):
    # graph metrics embed in l_1-like trees; path is CBB(0) as a subset of R
    assert main(["certify", path4_file, "--direction", "lower"]) == EXIT_OK


def test_certify_json_report_fields(path4_file, tmp_path):
    out = tmp_path / "report.json"
    main(["certify", path4_file, "--json", str(out)])
    report = json.loads(out.read_text())
    assert set(report) == set(REPORT_FIELDS)
    assert report["version"] == "0.1.0"
    assert report["verdict"]["holds"] is False
    assert report["witnesses"][0]["triple"] == [0, 1, 3]
    assert report["query"]["direction"] == "upper"
    assert isinstance(report["timing_ms"], float)


def test_certify_json_byte_identical_except_timing(random_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["certify", random_file, "--json", str(a)])
    main(["certify", random_file, "--json", str(b), "--threads", "4"])
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    ra.pop("timing_ms"), rb.pop("timing_ms")
    assert dumps_report(ra) == dumps_report(rb)


def test_defect_writes_csv_outputs(path4_file, tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = main(["defect", path4_file, "--beta-grid", "0,1,2", "--csv", prefix])
    assert code == EXIT_OK
    curve = (tmp_path / "out_beta_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "beta,epsilon_star"
    assert len(curve) == 4
    hist = (tmp_path / "out_histogram.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    assert "epsilon_star_upper=0.5" in capsys.readouterr().out


def test_hyperbolicity_reports_delta_and_slack(path4_file, tmp_path, capsys):
    out = tmp_path / "h.json"
    code = main(["hyperbolicity", path4_file, "--allowance", "1.0", "--json", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["delta"] == 0.0
    assert report["epsilon_star_upper"] == 0.5
    assert report["verdict"]["slack"] >= 0.0


def test_hyperbolicity_computes_delta_once(monkeypatch, path4_file, capsys):
    calls = []

    def counted(space, threads=None):
        calls.append(space.n)
        return delta_four_point(space, threads=threads)

    for target in ("curvcomp.cli.delta_four_point", "curvcomp.hyperbolicity.delta_four_point"):
        monkeypatch.setattr(target, counted)
    assert main(["hyperbolicity", path4_file, "--allowance", "1.0"]) == EXIT_OK
    assert len(calls) == 1


def test_sample_roundtrips_through_validate(tmp_path, capsys):
    out = tmp_path / "sampled.csv"
    assert main(["sample", "euclidean:n=12,seed=3", "--out", str(out)]) == EXIT_OK
    assert main(["validate", str(out)]) == EXIT_OK


def test_sample_bad_spec_exits_three(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sample", "euclidean:warp=9", "--out", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize("p,code", [(4.0, EXIT_OK), (1.5, EXIT_OK), (2.0, EXIT_OK)])
def test_counterexample_reproduction_codes(p, code, capsys, tmp_path):
    out = tmp_path / "c.json"
    assert main(["counterexample", "--p", str(p), "--json", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["verdict"]["reproduced"] is True
    if p != 2.0:
        assert report["verdict"]["margin"] >= 1e-3
    else:
        assert abs(report["verdict"]["margin"]) <= 1e-9


def test_report_floats_serialized_at_full_precision():
    text = dumps_report({"x": 1.0 / 3.0, "y": [2.0 ** -52]})
    parsed = json.loads(text)
    assert parsed["x"] == 1.0 / 3.0
    assert parsed["y"][0] == 2.0 ** -52


def test_report_non_finite_floats_are_strict_json(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = tmp_path / "c.json"
    assert main(["counterexample", "--p", "inf", "--json", str(out)]) == EXIT_OK
    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["query"]["p"] == "inf"
    text = dumps_report({"x": [math.inf, -math.inf, math.nan, 0.1]})
    assert json.loads(text, parse_constant=reject) == {"x": ["inf", "-inf", "nan", 0.1]}


def test_report_keys_sorted():
    text = dumps_report({"zeta": 1, "alpha": 2})
    assert text.index("alpha") < text.index("zeta")


def test_console_script_entry_point(path4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "curvcomp.cli", "certify", path4_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_FAILS
    assert "fails" in proc.stdout


def test_threads_env_default(monkeypatch, path4_file, capsys):
    monkeypatch.setenv("CURV_THREADS", "2")
    assert main(["certify", path4_file, "--epsilon", "0.5"]) == EXIT_OK
    for bad in ("two", "0", "-1"):
        monkeypatch.setenv("CURV_THREADS", bad)
        assert main(["certify", path4_file, "--epsilon", "0.5"]) == EXIT_USAGE
        assert "error: CURV_THREADS" in capsys.readouterr().err
