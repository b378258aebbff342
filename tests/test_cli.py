"""Exit codes, report fields, and byte-level determinism of the CLI."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvcomp
from curvcomp import cli
from curvcomp.certify import certify
from curvcomp.cli import (
    EXIT_FAILS,
    EXIT_INTERNAL,
    EXIT_INVALID_METRIC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from curvcomp.hyperbolicity import delta_four_point
from curvcomp.metricspace import MetricValidationError, format_distance_matrix, metric_tolerance, validate_metric
from curvcomp.report import REPORT_FIELDS, dumps_report
from oracles import random_metric_matrix, violation_listing

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


def test_validate_stderr_lists_every_violation_in_order(tmp_path, capsys):
    # every kind of violation, each several times
    m = np.array(
        [
            [0.5, 1.0, 9.0, 0.0, 2.0],
            [1.0, 0.0, -1.0, 1.0, 1.0],
            [9.0, -1.0, 0.0, 1.0, 8.0],
            [0.0, 1.5, 1.0, 0.0, -2.0],
            [2.0, 1.0, 8.0, -2.0, 0.25],
        ]
    )
    f = tmp_path / "bad.csv"
    f.write_text(format_distance_matrix(m))
    n = len(m)
    tau = 1e-9 * (1.0 + m.max())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    expected = [f"nonzero_diagonal({i},)" for i in range(n) if m[i, i] != 0.0]
    expected += [f"asymmetry({i}, {j})" for i, j in pairs if m[i, j] != m[j, i]]
    expected += [f"negative_entry({i}, {j})" for i, j in pairs if m[i, j] < 0.0]
    expected += [f"zero_off_diagonal({i}, {j})" for i, j in pairs if m[i, j] == 0.0]
    expected += [
        f"triangle({i}, {j}, {k})"
        for k in range(n)
        for i, j in pairs
        if k not in (i, j) and m[i, j] > m[i, k] + m[k, j] + tau
    ]
    assert {line.split("(")[0] for line in expected} == {
        "nonzero_diagonal", "asymmetry", "negative_entry", "zero_off_diagonal", "triangle"
    }
    assert main(["validate", str(f)]) == EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"violation: {line}\n" for line in expected)


@pytest.mark.parametrize("chunk", [1, 7, "triangles", 4096])
def test_validate_writes_large_rejections_in_bounded_chunks(chunk, tmp_path, monkeypatch):
    # the nonzero diagonal (arity 1, 110 lines) and the triangles (about 97k lines)
    # each span several chunks at 1 and 7; "triangles" is that group's exact length
    rng = np.random.default_rng(4)
    m = np.triu(rng.uniform(0.1, 3.0, size=(110, 110)), 1)
    m = m + m.T + np.diag(rng.uniform(0.1, 1.0, size=110))
    f = tmp_path / "bad.csv"
    f.write_text(format_distance_matrix(m))
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    sizes = {kind: len(idx) for kind, idx in exc.value.groups}
    assert sizes["nonzero_diagonal"] == 110 and sizes["triangle"] > 90_000
    lines = sizes["triangle"] if chunk == "triangles" else chunk
    monkeypatch.setattr(cli, "_CHUNK_LINES", lines)
    writes = []
    monkeypatch.setattr(sys, "stderr", SimpleNamespace(write=writes.append))
    assert main(["validate", str(f)]) == EXIT_INVALID_METRIC
    assert "".join(writes) == "".join(f"violation: {v}\n" for v in exc.value.violations)
    assert len(writes) == sum(math.ceil(size / lines) for size in sizes.values())
    for text in writes:
        assert text.count("\n") <= lines
        assert len({line.partition("(")[0] for line in text.splitlines()}) == 1


# few distinct values, so that many sums tie with an entry, and any float in between;
# entries of 0 and -1 alone keep tau = 1e-9 * max at 0, so ties survive the tolerance
_ENTRIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0]), st.floats(-2.0, 4.0))
_TIES = st.sampled_from([0.0, 0.0, 0.0, -1.0])


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 12))
    entries = draw(st.sampled_from([_ENTRIES, _TIES]))
    m = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        m = np.triu(m) + np.triu(m, 1).T
    if draw(st.booleans()):
        np.fill_diagonal(m, 0.0)
    return m


@settings(max_examples=150, deadline=None)
@example(np.zeros((6, 6)))  # tau = 0 and every two-step sum ties with its entry
@example(np.where(np.eye(6, k=1, dtype=bool), -1.0, 0.0))  # the same ties, and triangles to list
@given(_square_matrices())
def test_rejection_matches_the_row_pass_listing(m):
    # symmetric and asymmetric, with zero, negative and nonzero-diagonal entries: the
    # groups, count, message and stderr against the row pass that sorts every hit by k
    want = violation_listing(m, metric_tolerance(float(m.max())))
    lines = [f"{kind}({', '.join(map(str, row))}{',' * (len(row) == 1)})" for kind, idx in want for row in idx.tolist()]
    try:
        validate_metric(m)
    except MetricValidationError as exc:
        assert [kind for kind, _ in exc.groups] == [kind for kind, _ in want]
        for (_, got), (_, idx) in zip(exc.groups, want):
            assert got.dtype == idx.dtype and np.array_equal(got, idx)
        assert exc.count == len(lines)
        more = f" (+{len(lines) - 8} more)" if len(lines) > 8 else ""
        assert str(exc) == f"invalid metric: {', '.join(lines[:8])}{more}"
    else:
        assert not want
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.csv")
        with open(path, "w") as fh:
            fh.write(format_distance_matrix(m))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    assert code == (EXIT_INVALID_METRIC if want else EXIT_OK)
    assert err.getvalue() == "".join(f"violation: {line}\n" for line in lines)


class _LineSink(io.TextIOBase):
    """A text stream that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def writable(self):
        return True

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_validate_lists_a_large_rejection_in_bounded_memory(tmp_path, monkeypatch):
    # about 2.0M triangle violations at n = 300: their (i, j, k) rows alone would take
    # 48 MB as int64, and the listing's text about 60 MB
    rng = np.random.default_rng(7)
    m = np.triu(rng.uniform(0.1, 3.0, size=(300, 300)), 1)
    m = m + m.T
    f = tmp_path / "big.csv"
    f.write_text(format_distance_matrix(m))
    with pytest.raises(MetricValidationError) as exc:
        validate_metric(m)
    sink = _LineSink()
    monkeypatch.setattr(sys, "stderr", sink)
    tracemalloc.start()
    try:
        assert main(["validate", str(f)]) == EXIT_INVALID_METRIC
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == exc.value.count > 1_900_000
    assert peak < 16_000_000


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0"])
def test_edge_weight_that_is_not_positive_and_finite_exits_three(weight, tmp_path, capsys):
    f = tmp_path / "g.edges"
    f.write_text(f"a b 1\nb c {weight}\na c 5\n")
    for argv in (["validate", str(f)], ["hyperbolicity", str(f), "--allowance", "1.0"]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "edge ('b', 'c') has weight" in captured.err


# Runs in a fresh interpreter: no command imports scipy or concurrent.futures, matrix
# inputs do not load the graph kernel, graph inputs do not load numpy.ma, and the general
# l_p solver reads scipy.optimize on first use.
_COLD_START = textwrap.dedent(
    """
    import sys
    from curvcomp.cli import main

    def scipy_modules():
        return {m for m in sys.modules if m.split(".")[0] == "scipy"}

    def run(argv):
        code = main(argv)
        assert "concurrent.futures" not in sys.modules, argv
        return code

    valid, invalid, edges, inexact_edges, out = sys.argv[1:]
    codes = [
        run(["certify", valid]),
        run(["defect", valid]),
        run(["validate", valid]),
        run(["validate", invalid]),
        run(["sample", "sphere:kappa=1,n=12,seed=3", "--out", out]),
        # p = 4 bisects for the axis crossing, p = 1.5 also for the apex
        run(["counterexample", "--p", "4"]),
        run(["counterexample", "--p", "1.5"]),
    ]
    assert codes == [1, 0, 0, 2, 0, 0, 0], codes
    assert "curvcomp.pathsums" not in sys.modules
    # shortest paths of an edge list and of a graph sampler
    assert run(["hyperbolicity", edges, "--allowance", "1.0"]) == 0
    # 0.3 edges: the four-point delta cuts nothing and scans every base point
    assert run(["--threads", "4", "hyperbolicity", inexact_edges, "--allowance", "0.3"]) == 0
    assert run(["sample", "tree:n=8,seed=1", "--out", out]) == 0
    assert not scipy_modules(), sorted(scipy_modules())
    assert "numpy.ma" not in sys.modules  # loaded by np.unique, not by import numpy

    import curvcomp.circumradius
    import scipy.optimize

    assert curvcomp.circumradius.minimize is scipy.optimize.minimize
    assert curvcomp.circumradius.linprog is scipy.optimize.linprog
    """
)


def test_commands_import_only_the_scipy_modules_they_call(path4_file, tmp_path):
    invalid = tmp_path / "bad.csv"
    invalid.write_text("3\n0,1,5\n1,0,1\n5,1,0\n")
    edges = tmp_path / "path.edges"
    edges.write_text("a b 1\nb c 1\nc d 1\n")
    inexact_edges = tmp_path / "path03.edges"
    inexact_edges.write_text("a b 0.3\nb c 0.3\nc d 0.3\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, path4_file, *map(str, (invalid, edges, inexact_edges, tmp_path / "s.csv"))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_validate_reads_a_zero_point_file_and_refuses_a_negative_size(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(format_distance_matrix(np.zeros((0, 0))))
    assert main(["validate", str(empty)]) == EXIT_OK
    assert capsys.readouterr().out == "valid\n"
    negative = tmp_path / "negative.csv"
    negative.write_text("-1\n")
    assert main(["validate", str(negative)]) == EXIT_USAGE
    assert "matrix size must not be negative, got -1" in capsys.readouterr().err


def test_format_option_is_gone(path4_file, capsys):
    # the file's extension alone decides between a distance matrix and an edge list
    assert main(["validate", path4_file, "--format", "matrix"]) == EXIT_USAGE
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_missing_file_exits_three(capsys):
    assert main(["validate", "/nonexistent/nowhere.csv"]) == EXIT_USAGE


def test_bad_usage_exits_three(path4_file, tmp_path, capsys):
    assert main(["certify"]) == EXIT_USAGE  # missing path
    assert main(["frobnicate", "x"]) == EXIT_USAGE
    capsys.readouterr()
    out = tmp_path / "sampled.csv"
    commands = (
        ["validate", path4_file],
        ["certify", path4_file],
        ["defect", path4_file],
        ["hyperbolicity", path4_file],
        ["sample", "sphere:n=4", "--out", str(out)],
        ["counterexample", "--p", "4"],
    )
    for command in commands:
        for threads in ("0", "-3", "abc"):
            for argv in (command + ["--threads", threads], ["--threads", threads] + command):
                assert main(argv) == EXIT_USAGE, argv
                captured = capsys.readouterr()
                assert captured.out == "" and "error:" in captured.err, argv
    assert not out.exists()
    # argparse names the float type, not a helper of this module
    assert main(["certify", path4_file, "--kappa", "abc"]) == EXIT_USAGE
    assert "invalid float value: 'abc'" in capsys.readouterr().err


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
        ["hyperbolicity", "--allowance=-1"],
        ["certify", "--max-perimeter", "nan"],
        ["certify", "--max-perimeter", "inf"],
        ["certify", "--max-perimeter=-1"],
        ["certify", "--max-perimeter", "0"],
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
        "allowance-negative",
        "max-perimeter-nan",
        "max-perimeter-inf",
        "max-perimeter-negative",
        "max-perimeter-zero",
    ],
)
def test_non_finite_query_exits_three(argv, path4_file, capsys, monkeypatch):
    scans = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            scans.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for target, fn in (
        ("curvcomp.cli.delta_four_point", delta_four_point),
        ("curvcomp.hyperbolicity.delta_four_point", delta_four_point),
        ("curvcomp.hyperbolicity.certify", certify),
    ):
        monkeypatch.setattr(target, recorded(target, fn))
    # path4 fails at kappa = 0, so an exit 0 here would be a false certificate
    assert main([argv[0], path4_file, *argv[1:]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""
    if argv[0] == "hyperbolicity":
        # a bad allowance is rejected before either O(n^4) scan starts
        assert scans == []


@pytest.mark.parametrize("command", ("certify", "defect"))
@pytest.mark.parametrize(
    "matrix, kappa",
    [
        (random_metric_matrix(np.random.default_rng(0), 40), "-400"),
        (random_metric_matrix(np.random.default_rng(0), 40), "-1e6"),
        (100.0 * (1.0 - np.eye(3)), "-1"),
        (400.0 * (1.0 - np.eye(3)), "-1"),
        (800.0 * (1.0 - np.eye(3)), "-1"),
    ],
    ids=["random40-kappa-400", "random40-kappa-1e6", "side100", "side400", "side800"],
)
def test_model_kernel_overflow_exits_three(command, matrix, kappa, tmp_path, capsys):
    f = tmp_path / "space.csv"
    f.write_text(format_distance_matrix(matrix))
    out = tmp_path / "report.json"
    # caught during the scan: an error, never a verdict
    assert main([command, str(f), f"--kappa={kappa}", "--json", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"kappa={float(kappa)}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("kappa", ("-1e-200", "1e-200", "5e-324"))
def test_tiny_curvature_gives_the_plane_verdict(kappa, tmp_path, capsys):
    # exited 3 (divide by zero) at +-1e-200 and read epsilon_needed = 0.5 at 5e-324
    f = tmp_path / "eq.csv"
    f.write_text("3\n0,1,1\n1,0,1\n1,1,0\n")
    assert main(["certify", str(f), "--kappa=0"]) == EXIT_FAILS
    flat = capsys.readouterr()
    assert main(["certify", str(f), f"--kappa={kappa}"]) == EXIT_FAILS
    assert capsys.readouterr() == flat


@pytest.mark.parametrize(
    "argv, code",
    [
        (["certify", "{eq}", "--kappa", "-1e-200"], EXIT_FAILS),
        (["certify", "{eq}", "--kappa", "-1", "--direction", "lower"], EXIT_OK),
        (["certify", "{eq}", "--epsilon", "-0e0"], EXIT_FAILS),
        (["defect", "{eq}", "--kappa", "-1e-200", "--beta-grid", "0,1"], EXIT_OK),
        (["certify", "{eq}", "--beta", "-1e-3"], EXIT_USAGE),
        (["certify", "{eq}", "--epsilon", "-1e-3"], EXIT_USAGE),
        (["certify", "{eq}", "--max-perimeter", "-1e-3"], EXIT_USAGE),
        (["hyperbolicity", "{eq}", "--allowance", "-1e-3"], EXIT_USAGE),
        (["counterexample", "--p", "-1e-3"], EXIT_USAGE),
        (["counterexample", "--p", "-inf"], EXIT_USAGE),
        (["defect", "{eq}", "--beta-grid", "-0.0,1"], EXIT_OK),
        (["defect", "{eq}", "--beta-grid", "-1,2"], EXIT_USAGE),
    ],
)
def test_float_options_take_values_that_start_with_a_minus(argv, code, tmp_path, capsys):
    # "--kappa -1e-200" exited 3 with "expected one argument": argparse took -1e-200 for an
    # option, and "--beta-grid -0.0,1" likewise. Both forms now give the same exit code,
    # output and report, and a negative value that the library refuses exits 3 with the
    # library's own message
    eq = tmp_path / "eq.csv"
    eq.write_text("3\n0,1,1\n1,0,1\n1,1,0\n")
    argv = [str(eq) if a == "{eq}" else a for a in argv]
    option = next(t for t, a in enumerate(argv) if a.startswith("-") and argv[t + 1].startswith("-"))
    joined = [*argv[:option], f"{argv[option]}={argv[option + 1]}", *argv[option + 2 :]]
    runs = []
    for form in (argv, joined):
        out = tmp_path / "report.json"
        assert main([*form, "--json", str(out)]) == code, form
        captured = capsys.readouterr()
        report = json.loads(out.read_text()) if out.exists() else None
        if report is not None:
            report.pop("timing_ms")
            out.unlink()
        runs.append((captured.out, captured.err, report))
    assert runs[0] == runs[1]
    out, err, report = runs[0]
    assert "expected one argument" not in err
    if code == EXIT_USAGE:
        assert out == "" and report is None and err.startswith("error: ") and "usage:" not in err
    else:
        assert err == "" and report is not None


def test_obtuse_hyperbolic_triangle_takes_half_its_longest_side(tmp_path, capsys):
    # at kappa = -1 the sides 400, 250, 200 overflowed the four sinh's product (exit 3,
    # "overflow encountered in multiply"); the triangle takes the half-side branch, so
    # r_model = 200 against r_space = 250 at the vertex between the two shorter sides
    f = tmp_path / "obt.csv"
    f.write_text("3\n0,250,400\n250,0,200\n400,200,0\n")
    out = tmp_path / "report.json"
    assert main(["certify", str(f), "--kappa", "-1", "--json", str(out)]) == EXIT_FAILS
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["verdict"]["epsilon_needed"] == 50.0
    assert main(["certify", str(f), "--kappa", "-1", "--direction", "lower"]) == EXIT_OK


def test_verdict_tolerance_scales_with_the_sample(tmp_path, capsys):
    # an absolute tolerance of 1e-12 passed the box=1e-12 sample (epsilon* 2.6e-13)
    for box in ("1", "1e-12"):
        out = tmp_path / f"box{box}.csv"
        assert main(["sample", f"euclidean:n=12,seed=0,box={box}", "--out", str(out)]) == EXIT_OK
        assert main(["certify", str(out)]) == EXIT_FAILS


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
    assert report["version"] == "0.1.0" == curvcomp.__version__
    assert report["verdict"]["holds"] is False
    assert report["witnesses"][0]["triple"] == [0, 1, 3]
    assert report["query"]["direction"] == "upper"
    assert isinstance(report["timing_ms"], float)


def test_certify_json_byte_identical_except_timing(random_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["certify", random_file, "--json", str(a)])
    main(["--threads", "4", "certify", random_file, "--json", str(b)])
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


def test_defect_json_is_the_same_with_and_without_csv(random_file, tmp_path, capsys):
    # --csv adds a histogram scan of its own; the report and the printed line stay the same
    runs = []
    for extra in ([], ["--csv", str(tmp_path / "out")]):
        out = tmp_path / "d.json"
        argv = ["defect", random_file, "--beta-grid", "0,1.2,1.5", "--degenerate", "--json", str(out), *extra]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text())
        report.pop("timing_ms")
        runs.append((dumps_report(report), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert (tmp_path / "out_histogram.csv").exists()


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

    def counted(space, threads=1):
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


def test_sample_rejects_a_parameter_the_kind_never_reads(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sample", "sphere:kappa=1,n=5,box=3", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "'box' for kind 'sphere'" in captured.err
    assert not out.exists()


def test_sample_rejects_a_repeated_parameter(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sample", "sphere:kappa=1,n=3,n=5", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: generator parameter 'n' given twice\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,rule",
    [
        # both sides are 1: the check that fails is the one on the vertex count
        ("grid:width=1,height=1", "width*height >= 2"),
        ("tree:n=3,subdivision=-1", "subdivision>=0"),
        # a negative box once reached numpy's "high - low < 0", a zero one gave zero distances
        ("lp_plane:n=3,box=-1", "box>0"),
        ("lp_plane:n=3,box=0", "box>0"),
        # a negative chart radius once sampled the reflected disk, a zero one a single point
        ("hyperbolic:n=3,kappa=-1,chart_radius=-1", "chart_radius>0"),
        ("hyperbolic:n=3,kappa=-1,chart_radius=0", "chart_radius>0"),
    ],
)
def test_sample_names_the_rule_it_breaks(spec, rule, tmp_path, capsys):
    # the messages once read "grid needs width, height >= 1", "tree needs n>=2, edge_length>0",
    # "lp_plane needs n>=1 and p>1" and "hyperbolic needs n >= 1", none of which these specs break
    out = tmp_path / "x.csv"
    assert main(["sample", spec, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and rule in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec,message",
    [
        ("euclidean:n=3,box=inf", "euclidean parameter box must be finite, got inf"),
        ("euclidean:n=3,box=nan", "euclidean parameter box must be finite, got nan"),
        ("random_graph:n=3,weight_min=1,weight_max=inf", "random_graph parameter weight_max must be finite"),
        ("tree:n=3,edge_length=inf", "tree parameter edge_length must be finite"),
        ("hyperbolic:n=3,kappa=-inf", "hyperbolic parameter kappa must be finite"),
        # 1 / sqrt|kappa| is finite, its square is not
        ("sphere:n=3,kappa=1e-320", "sphere sample leaves the float64 range"),
        ("hyperbolic:n=3,kappa=-1e-320", "hyperbolic sample leaves the float64 range"),
        # sinh(1000) overflows
        ("hyperbolic:n=3,kappa=-1,chart_radius=1000", "hyperbolic sample leaves the float64 range"),
        # |x - y|^p overflows inside scipy's cdist, past np.errstate's reach
        ("euclidean:n=3,box=1e300", "euclidean sample leaves the float64 range"),
        ("lp_plane:n=3,box=1e300,p=3", "lp_plane sample leaves the float64 range"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_sample_out_of_range_float_parameter_exits_three(spec, message, tmp_path, capsys):
    # some exited 4 (an OverflowError inside the sampler), others printed numpy warnings first
    out = tmp_path / "x.csv"
    assert main(["sample", spec, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_max_norm_sample_of_a_huge_box_stays_in_range(tmp_path, capsys):
    # chebyshev distances take no power, so box 1e300 leaves them finite
    out = tmp_path / "x.csv"
    assert main(["sample", "lp_plane:n=3,box=1e300,p=inf", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(["validate", str(out)]) == EXIT_OK


def test_sample_whose_distances_vanish_exits_two(tmp_path, capsys):
    # box 1e-200: the squared coordinate differences underflow, so every distance
    # is 0; the sample is refused as validate refuses the matrix, and nothing is written
    out = tmp_path / "z.csv"
    assert main(["sample", "euclidean:n=4,box=1e-200", "--out", str(out)]) == EXIT_INVALID_METRIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"violation: zero_off_diagonal({i}, {j})" for i in range(4) for j in range(i + 1, 4)
    ]
    assert not out.exists()


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


@pytest.mark.parametrize(
    "p,code,statement",
    [
        ("4", EXIT_OK, "Curv <= 0 fails"),
        # margin 2.7e-11: resolved, but under the 1e-3 reproduction gate
        ("24", EXIT_FAILS, "Curv <= 0 fails"),
        # margin ~1.5e-21, printed as 4.441e-16 by an earlier solver
        ("50", EXIT_FAILS, "violation below float64 resolution"),
        ("2", EXIT_OK, "no violation"),
        ("inf", EXIT_OK, "no violation"),
    ],
)
def test_counterexample_statement_is_honest_about_resolution(p, code, statement, capsys, tmp_path):
    out = tmp_path / "c.json"
    assert main(["counterexample", "--p", p, "--json", str(out)]) == code
    verdict = json.loads(out.read_text())["verdict"]
    assert verdict["statement"] == statement
    assert verdict["margin_error"] < 1e-14
    resolved = verdict["margin"] > verdict["margin_error"]
    assert resolved == (statement == "Curv <= 0 fails")


@pytest.mark.parametrize("p", ("2000", "2100", "1e308"))
def test_counterexample_overflowing_p_exits_three(p, capsys):
    assert main(["counterexample", "--p", p]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: p={float(p)} is too large" in captured.err


def test_negative_infinite_p_exits_three(tmp_path, capsys):
    # -inf is no norm exponent: no sup-norm triangle, no Chebyshev matrix
    out = tmp_path / "lp.csv"
    assert main(["counterexample", "--p=-inf"]) == EXIT_USAGE
    assert main(["sample", "lp_plane:p=-inf,n=4", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("error: ") == 2


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


def _json_dumps_rendering(obj) -> str:
    """dumps_report's layout, each string, key, bool, int and null written by json.dumps."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_json_dumps_rendering(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(map(_json_dumps_rendering, obj)) + "]"
    if isinstance(obj, float):
        return format(obj, ".17g")
    return json.dumps(obj)


# a quote, a backslash, a control character and a non-ASCII letter
_ODD_LABELS = ['a"b', "\x01", "back\\slash", "é"]


@pytest.mark.parametrize(
    "argv,edges,witness",
    [
        # the path's triple (0, 1, 3) has r_space 2 against r_model 1.5
        (["certify"], list(zip(_ODD_LABELS, _ODD_LABELS[1:])), [_ODD_LABELS[i] for i in (0, 1, 3)]),
        # the unit 4-cycle's quadruple holds every vertex
        (["hyperbolicity"], list(zip(_ODD_LABELS, _ODD_LABELS[1:] + _ODD_LABELS[:1])), _ODD_LABELS),
    ],
)
def test_report_quotes_labels_as_json_dumps_does(argv, edges, witness, tmp_path):
    f = tmp_path / "odd.edges"
    f.write_text("".join(f"{u} {v} 1\n" for u, v in edges))
    out = tmp_path / "r.json"
    assert main([*argv, str(f), "--json", str(out)]) in (EXIT_OK, EXIT_FAILS)
    text = out.read_text()
    assert text.isascii()
    report = json.loads(text)
    assert text == _json_dumps_rendering(report) + "\n"
    assert sorted(report["witnesses"][0]["labels"]) == sorted(witness)


def test_console_script_entry_point(path4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "curvcomp.cli", "certify", path4_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_FAILS
    assert "fails" in proc.stdout


def test_parser_is_built_once_and_keeps_no_state(path4_file):
    parser = build_parser()
    assert parser is build_parser()
    argv = ["hyperbolicity", path4_file]
    assert [parser.parse_args(["--threads", "2", *argv]).threads, parser.parse_args(argv).threads] == [2, 1]


def test_threads_is_given_once_before_the_subcommand(monkeypatch, path4_file, capsys):
    # every command runs on the calling thread: certify and the delta are never handed a thread count
    monkeypatch.setattr("curvcomp.cli.certify", lambda space, query: certify(space, query))
    monkeypatch.setattr("curvcomp.cli.delta_four_point", lambda space: delta_four_point(space))
    assert main(["--threads", "2", "certify", path4_file, "--epsilon", "0.5"]) == EXIT_OK
    assert main(["--threads", "2", "hyperbolicity", path4_file]) == EXIT_OK
    capsys.readouterr()
    assert main(["certify", path4_file, "--threads", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --threads 2" in captured.err


def test_validate_accepts_what_every_other_command_accepts(tmp_path, capsys):
    # no --pseudo-ok: a zero distance between distinct points is rejected everywhere
    f = tmp_path / "pseudo.csv"
    f.write_text("2\n0,0\n0,0\n")
    assert main(["validate", str(f), "--pseudo-ok"]) == EXIT_USAGE
    assert "unrecognized arguments: --pseudo-ok" in capsys.readouterr().err
    for argv in (["validate", str(f)], ["certify", str(f)], ["defect", str(f)], ["hyperbolicity", str(f)]):
        assert main(argv) == EXIT_INVALID_METRIC, argv
        assert capsys.readouterr().err == "violation: zero_off_diagonal(0, 1)\n"


def test_commands_accept_a_triangle_validated_within_the_diameter_tolerance(tmp_path, capsys):
    # d(0, 1) exceeds d(0, 2) + d(2, 1) by 2e-8: inside the tolerance of the
    # diameter 1000 (about 1e-6), outside that of the longest side 1 (2e-9)
    a = 0.5 - 1e-8
    m = [[0, 1, a, 1000], [1, 0, a, 1000], [a, a, 0, 1000], [1000, 1000, 1000, 0]]
    f = tmp_path / "near.csv"
    f.write_text(format_distance_matrix(np.array(m, dtype=float)))
    assert main(["validate", str(f)]) == EXIT_OK
    assert main(["certify", str(f), "--direction", "lower"]) == EXIT_FAILS
    assert "witness=0,1,2" in capsys.readouterr().out
    assert main(["defect", str(f)]) == EXIT_OK
    assert capsys.readouterr().err == ""
