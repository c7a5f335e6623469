import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from dottrees import cli
from dottrees.cli import build_parser, cli_main
from dottrees.trees import make_path


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def subprocess_env():
    """The environment of a CLI subprocess, this checkout's src on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))


@pytest.fixture
def columns_pts(tmp_path):
    out = tmp_path / "out.pts"
    code, stdout, _ = run_cli(
        "generate",
        "--construction",
        "columns",
        "--tree",
        "builtin:path:2",
        "--n",
        "9",
        "-o",
        str(out),
    )
    assert code == 0
    return out


class TestGenerate:
    def test_columns_with_sidecar(self, tmp_path, columns_pts):
        sidecar = columns_pts.with_suffix(".json")
        assert columns_pts.exists() and sidecar.exists()
        text = columns_pts.read_text()
        assert text.startswith("d 2\n")
        assert len(text.strip().splitlines()) == 10  # header + 9 points
        payload = json.loads(sidecar.read_text())
        assert payload["predicted_count"] == 16
        assert payload["weights"] == ["2", "6"]
        assert payload["vertex_assignment"]["2"] == [["2", "0"]]

    @pytest.mark.parametrize("construction", [
        ["columns", "--tree", "builtin:path:2", "--n", "9"],
        ["random", "--n", "5", "--seed", "1"],
        ["lattice", "--q", "2"],
    ])
    def test_output_must_not_be_its_sidecar(self, tmp_path, construction):
        out = tmp_path / "x.json"
        code, stdout, err = run_cli("generate", "--construction", *construction, "-o", str(out))
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_n_is_usage_error(self, tmp_path):
        code, _, err = run_cli(
            "generate",
            "--construction",
            "columns",
            "--tree",
            "builtin:path:2",
            "-o",
            str(tmp_path / "x.pts"),
        )
        assert code == 2
        assert err == "error: the columns construction needs --n\n"

    def test_random_requires_seed(self, tmp_path):
        code, _, err = run_cli(
            "generate",
            "--construction",
            "random",
            "--n",
            "10",
            "-o",
            str(tmp_path / "r.pts"),
        )
        assert code == 2
        assert err == "error: the random construction needs --seed\n"

    def test_random_dimension_checked_before_box(self, tmp_path):
        code, out, err = run_cli(
            "generate", "--construction", "random", "--n", "3", "--seed", "1", "--d", "0",
            "-o", str(tmp_path / "r.pts"),
        )
        assert (code, out, err) == (2, "", "error: dimension must be at least 2, got 0\n")
        assert list(tmp_path.iterdir()) == []

    def test_random_deterministic(self, tmp_path):
        a = tmp_path / "a.pts"
        b = tmp_path / "b.pts"
        for path in (a, b):
            code, _, _ = run_cli(
                "generate",
                "--construction",
                "random",
                "--n",
                "12",
                "--seed",
                "9",
                "-o",
                str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lattice_writes_both_sets(self, tmp_path):
        out = tmp_path / "lat.pts"
        code, _, _ = run_cli(
            "generate",
            "--construction",
            "lattice",
            "--d",
            "2",
            "--q",
            "3",
            "-o",
            str(out),
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "lat_F.pts").exists()
        payload = json.loads((tmp_path / "lat.json").read_text())
        assert payload["parameters"]["e_size"] == 27

    @pytest.mark.parametrize(
        "construction, unread",
        [
            (["columns", "--tree", "builtin:path:2", "--n", "9", "--d", "3"], "--d"),
            (["perplines", "--tree", "builtin:path:2", "--n", "9", "--mode", "paper"], "--mode"),
            (["random", "--n", "5", "--seed", "1", "--tree", "builtin:path:2", "--q", "3"],
             "--tree, --q"),
            (["lattice", "--q", "2", "--n", "5", "--tree", "builtin:path:2", "--low", "9"],
             "--tree, --n, --low"),
            (["columns", "--tree", "builtin:path:2", "--n", "9", "--seed", "1"], "--seed"),
            (["lattice", "--q", "2", "--seed", "1"], "--seed"),
            (["columns", "--tree", "builtin:path:2", "--n", "9", "--low", "3", "--high", "1"],
             "--low, --high"),
        ],
        ids=["columns-d", "perplines-mode", "random-tree-q", "lattice-tree-n-low",
             "columns-seed", "lattice-seed", "columns-empty-box"],
    )
    def test_unread_flag_exits_2(self, tmp_path, construction, unread):
        code, out, err = run_cli(
            "generate", "--construction", *construction, "-o", str(tmp_path / "c.pts")
        )
        assert (code, out) == (2, "")
        assert err == f"error: the {construction[0]} construction does not read {unread}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_construction_rejected(self, tmp_path):
        code, _, _ = run_cli(
            "generate", "--construction", "bogus", "-o", str(tmp_path / "x.pts")
        )
        assert code == 2

    def test_missing_output_dir(self):
        code, _, err = run_cli(
            "generate",
            "--construction",
            "columns",
            "--tree",
            "builtin:path:2",
            "--n",
            "9",
            "-o",
            "/no/such/dir/out.pts",
        )
        assert code == 2


class TestCount:
    def test_count_matches_sidecar(self, columns_pts):
        code, out, _ = run_cli(
            "count",
            "--tree",
            "builtin:path:2",
            "--weights",
            "2,6",
            "--points",
            str(columns_pts),
        )
        assert code == 0
        assert out.strip() == "16"

    def test_homomorphisms_at_least_embeddings(self, columns_pts):
        _, emb, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts),
        )
        _, hom, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts), "--homomorphisms",
        )
        assert int(hom) >= int(emb)

    def test_count_without_weights_usage_error(self, columns_pts):
        code, _, err = run_cli(
            "count", "--tree", "builtin:path:2", "--points", str(columns_pts)
        )
        assert code == 2
        assert "weights" in err

    def test_weight_arity_checked(self, columns_pts):
        code, _, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2",
            "--points", str(columns_pts),
        )
        assert code == 2

    def test_json_report(self, columns_pts, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts), "--json", str(report_path),
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["counts"]["count"] == 16
        assert payload["elapsed_ms"] is None
        assert payload["operation"] == "count_embeddings"

    def test_json_byte_identical_across_threads(self, columns_pts, tmp_path):
        # count's --threads has no effect: stdout and JSON match a run without it.
        outputs = []
        for extra in ([], ["--threads", "4"]):
            path = tmp_path / f"r{len(extra)}.json"
            code, out, _ = run_cli(
                "count", "--tree", "builtin:path:2", "--weights", "2,6",
                "--points", str(columns_pts), "--json", str(path), *extra,
            )
            outputs.append((code, out, path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_tree_file_input(self, columns_pts, tmp_path):
        tree_file = tmp_path / "p.tree"
        tree_file.write_text("k 2\n2 3 6\n1 2 2\n")
        code, out, _ = run_cli(
            "count", "--tree", str(tree_file), "--points", str(columns_pts)
        )
        assert code == 0 and out.strip() == "16"

    def test_timings_flag_fills_elapsed(self, columns_pts, tmp_path):
        path = tmp_path / "timed.json"
        code, _, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts), "--json", str(path), "--timings",
        )
        assert code == 0
        assert json.loads(path.read_text())["elapsed_ms"] is not None

    @pytest.mark.parametrize("tree", ["builtin:binary:0", "k0.tree"])
    @pytest.mark.parametrize("extra", [[], ["--homomorphisms"]], ids=["embeddings", "homs"])
    def test_edgeless_tree_counts_the_points(self, monkeypatch, columns_pts, tree, extra):
        # A single vertex maps to any point: 9 maps, with no weight to give.
        monkeypatch.chdir(columns_pts.parent)
        Path("k0.tree").write_text("k 0\n")
        argv = ["count", "--tree", tree, "--points", str(columns_pts), *extra]
        assert run_cli(*argv) == (0, "9\n", "")

    def test_zero_weight_needs_include_zero(self, tmp_path):
        pts = tmp_path / "z.pts"
        pts.write_text("d 2\n1 0\n0 1\n")
        code, _, err = run_cli(
            "count", "--tree", "builtin:path:1", "--weights", "0",
            "--points", str(pts),
        )
        assert code == 2 and "include_zero" in err
        code, out, _ = run_cli(
            "count", "--tree", "builtin:path:1", "--weights", "0",
            "--points", str(pts), "--include-zero",
        )
        assert code == 0 and out.strip() == "2"


class TestDistinct:
    def test_dot_products(self, columns_pts):
        code, out, _ = run_cli("distinct", "--points", str(columns_pts))
        assert code == 0
        assert out.startswith("distinct ")

    def test_weight_tuples(self, columns_pts):
        code, out, _ = run_cli(
            "distinct", "--points", str(columns_pts), "--tree", "builtin:path:2"
        )
        assert code == 0
        assert int(out.strip()) > 0


class TestPinned:
    def test_max_pin(self, columns_pts):
        code, out, _ = run_cli("pinned", "--points", str(columns_pts))
        assert code == 0
        assert "pinned count" in out

    def test_pin_index(self, columns_pts):
        code, out, _ = run_cli("pinned", "--points", str(columns_pts), "--pin-index", "1")
        assert code == 0
        assert int(out.strip()) >= 1

    def test_pin_index_range_checked(self, columns_pts):
        code, _, _ = run_cli("pinned", "--points", str(columns_pts), "--pin-index", "99")
        assert code == 2

    def test_pinned_tuples(self, columns_pts):
        code, out, _ = run_cli(
            "pinned", "--points", str(columns_pts), "--tree", "builtin:path:2",
            "--vertex", "1", "--pin-index", "1",
        )
        assert code == 0
        assert int(out.strip()) >= 1

    @pytest.mark.parametrize("extra", [
        ["--pin-index", "99"],
        ["--pin-index", "1"],
        ["--tree", "builtin:path:2"],
        ["--vertex", "1"],
        ["--tree", "builtin:path:2", "--vertex", "1", "--pin-index", "1"],
    ])
    def test_descent_takes_no_pin_flags(self, tmp_path, extra):
        grid = tmp_path / "g.pts"
        grid.write_text("d 3\n" + "".join(
            f"{x} {y} {z}\n" for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 2, 3)
        ))
        code, out, err = run_cli("pinned", "--points", str(grid), "--descent", *extra)
        assert (code, out) == (2, "")
        assert err == "error: --descent takes none of --pin-index, --tree and --vertex\n"

    @pytest.mark.parametrize("extra", [[], ["--pin-index", "1"]])
    def test_vertex_needs_tree(self, columns_pts, extra):
        code, out, err = run_cli("pinned", "--points", str(columns_pts), "--vertex", "1", *extra)
        assert (code, out, err) == (2, "", "error: --vertex needs --tree\n")

    def test_descent_needs_3d(self, columns_pts):
        code, _, _ = run_cli("pinned", "--points", str(columns_pts), "--descent")
        assert code == 2

    def test_descent_on_grid(self, tmp_path):
        grid = tmp_path / "g.pts"
        lines = ["d 3"] + [
            f"{x} {y} {z}" for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 2, 3)
        ]
        grid.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("pinned", "--points", str(grid), "--descent")
        assert code == 0
        assert "reported count" in out


class TestIncidence:
    def test_pins_and_alpha(self, tmp_path, columns_pts):
        pins = tmp_path / "pins.pts"
        pins.write_text("d 2\n1 0\n0 1\n")
        code, out, _ = run_cli(
            "incidence", "--points", str(columns_pts), "--pins", str(pins),
            "--alpha", "2",
        )
        assert code == 0
        assert int(out.strip()) >= 0

    def test_lines_file(self, tmp_path):
        pts = tmp_path / "p.pts"
        pts.write_text("d 2\n1 0\n2 0\n3 0\n")
        lines = tmp_path / "l.lines"
        lines.write_text("0 1 0\n")  # the x-axis
        code, out, _ = run_cli(
            "incidence", "--points", str(pts), "--lines", str(lines)
        )
        assert code == 0
        assert out.strip() == "3"

    def test_spatial_lines_file(self, tmp_path):
        pts = tmp_path / "p.pts"
        pts.write_text("d 3\n1 0 0\n2 0 0\n1 1 0\n0 0 1\n")
        lines = tmp_path / "l.lines"
        lines.write_text("1 0 0 1\n0 0 1 1\n")  # the planes x = 1 and z = 1
        code, out, _ = run_cli("incidence", "--points", str(pts), "--lines", str(lines))
        assert (code, out) == (0, "3\n")

    def test_pins_of_another_dimension(self, tmp_path, columns_pts):
        pins = tmp_path / "pins.pts"
        pins.write_text("d 3\n1 0 0\n")
        code, out, err = run_cli(
            "incidence", "--points", str(columns_pts), "--pins", str(pins), "--alpha", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: dimension mismatch: hyperplane 3, points 2\n"

    def test_zero_normal_names_file_and_line(self, tmp_path, columns_pts):
        lines = tmp_path / "l.lines"
        lines.write_text("# a valid line, then one with no normal\n0 1 0\n0 0 1\n")
        code, out, err = run_cli("incidence", "--points", str(columns_pts), "--lines", str(lines))
        assert (code, out) == (2, "")
        assert err == f"error: {lines}: line 3: hyperplane normal must not be the origin\n"

    def test_origin_pin_names_file_and_line(self, tmp_path, columns_pts):
        pins = tmp_path / "pins.pts"
        pins.write_text("d 2\n1 0\n# a comment\n\n   # an indented one\n0 0\n")
        code, out, err = run_cli(
            "incidence", "--points", str(columns_pts), "--pins", str(pins), "--alpha", "1",
        )
        assert (code, out) == (2, "")
        assert err == f"error: {pins}: line 6: hyperplane normal must not be the origin\n"

    def test_needs_some_lines(self, columns_pts):
        code, _, _ = run_cli("incidence", "--points", str(columns_pts))
        assert code == 2

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--lines", "l.lines", "--pins", "pins.pts", "--alpha", "2"],
             "give exactly one of --lines and --pins"),
            (["--lines", "l.lines", "--alpha", "zzz"],
             "--alpha is required with --pins and not allowed with --lines"),
            (["--lines", "l.lines", "--alpha", "1"],
             "--alpha is required with --pins and not allowed with --lines"),
            (["--pins", "pins.pts"],
             "--alpha is required with --pins and not allowed with --lines"),
        ],
        ids=["lines-and-pins", "lines-bad-alpha", "lines-alpha", "pins-no-alpha"],
    )
    def test_one_source_of_lines(self, tmp_path, monkeypatch, columns_pts, extra, message):
        monkeypatch.chdir(tmp_path)
        Path("l.lines").write_text("0 1 0\n")
        Path("pins.pts").write_text("d 2\n1 0\n")
        code, out, err = run_cli("incidence", "--points", str(columns_pts), *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_timings_leave_out_reading(self, tmp_path, monkeypatch, columns_pts):
        # A clock that jumps 1000 s while any input file is read: the lines,
        # pins and .tree files are read before the clock starts, so the
        # computation alone reads 0 ms.
        now = [0.0]
        read_file = cli._read_file

        def slow_read(*args):
            now[0] += 1000.0
            return read_file(*args)

        monkeypatch.setattr(cli, "_read_file", slow_read)
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.chdir(tmp_path)
        Path("l.lines").write_text("0 1 0\n")
        Path("pins.pts").write_text("d 2\n1 0\n")
        Path("T.tree").write_text("k 2\n1 2 1\n2 3 1\n")
        for argv in (
            ["incidence", "--lines", "l.lines"],
            ["incidence", "--pins", "pins.pts", "--alpha", "1"],
            ["count", "--tree", "T.tree"],
            ["distinct", "--tree", "T.tree"],
            ["pinned", "--tree", "T.tree", "--vertex", "1", "--pin-index", "1"],
        ):
            code, _, _ = run_cli(
                *argv, "--points", str(columns_pts), "--timings", "--json", "r.json"
            )
            assert code == 0
            assert json.loads(Path("r.json").read_text())["elapsed_ms"] == 0.0


class TestRadial:
    def test_histogram_and_cap(self, tmp_path):
        pts = tmp_path / "p.pts"
        pts.write_text("d 2\n1 0\n2 0\n3 3\n")
        code, out, _ = run_cli("radial", "--points", str(pts))
        assert code == 0
        assert "1,0: 2" in out
        assert "max 2 of 3" in out

    def test_cap_failure_exit_code(self, tmp_path):
        pts = tmp_path / "p.pts"
        rows = "\n".join(f"{i} {i}" for i in range(1, 28))
        pts.write_text("d 2\n" + rows + "\n")
        code, out, _ = run_cli("radial", "--points", str(pts))
        assert code == 1
        assert "FAIL" in out

    def test_overlong_coordinate_names_file_and_line(self, tmp_path):
        # int() refuses more than 4,300 digits; the refusal is a parse error.
        pts = tmp_path / "big.pts"
        pts.write_text("d 2\n" + "1" * 5000 + " 1\n")
        code, out, err = run_cli("radial", "--points", str(pts))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {pts}: line 2: bad rational: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-1", "-1/2"])
    def test_cap_constant_must_be_positive(self, tmp_path, cap):
        pts = tmp_path / "p.pts"
        pts.write_text("d 2\n1 0\n2 0\n3 3\n")
        code, out, err = run_cli("radial", "--points", str(pts), f"--cap-c={cap}")
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestProofgraph:
    def test_worked_example(self, tmp_path):
        pts = tmp_path / "p.pts"
        pts.write_text("d 2\n1 0\n2 0\n1 1\n")
        code, out, _ = run_cli("proofgraph", "--points", str(pts))
        assert code == 0
        assert "edges 3" in out
        assert "max multiplicity 2" in out
        assert "t = max pinned cardinality (per proof usage): 2" in out


class TestReport:
    def test_columns_report(self, tmp_path):
        out_json = tmp_path / "rep.json"
        code, out, _ = run_cli(
            "report", "--experiment", "columns", "--tree", "builtin:path:2",
            "--n", "8,12,16", "--json", str(out_json),
        )
        assert code == 0
        assert "PASS" in out
        payload = json.loads(out_json.read_text())
        assert payload["pass"] is True

    def test_perplines_report_notes(self, tmp_path):
        code, out, _ = run_cli(
            "report", "--experiment", "perplines", "--tree", "builtin:path:2",
            "--n", "9,12",
        )
        assert code == 0
        assert "note:" in out

    def test_lattice_report(self):
        code, out, _ = run_cli(
            "report", "--experiment", "lattice", "--q", "4,5", "--d", "2"
        )
        assert code == 0
        assert "4/3" in out

    def test_report_needs_args(self):
        code, out, err = run_cli("report", "--experiment", "columns")
        assert (code, out, err) == (2, "", "error: the columns experiment needs --tree and --n\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["columns", "--tree", "builtin:path:2", "--n", "9,12", "--d", "3"],
             "the columns experiment does not read --d"),
            (["perplines", "--tree", "builtin:path:2", "--n", "9", "--q", "4"],
             "the perplines experiment does not read --q"),
            (["lattice", "--q", "4,5", "--tree", "builtin:path:2", "--n", "9"],
             "the lattice experiment does not read --tree, --n"),
            (["lattice", "--q", "4,5", "--n", "9"], "the lattice experiment does not read --n"),
            (["columns", "--tree", "builtin:path:2", "--n", "8,12", "--threshold-c", ""],
             "bad --threshold-c: ''"),
            (["lattice", "--q", "4,,5,"], "bad --q: empty item in '4,,5,'"),
            (["columns", "--tree", "builtin:path:2", "--n", "8,,12"],
             "bad --n: empty item in '8,,12'"),
            (["perplines", "--tree", "builtin:path:2", "--n", ",9"],
             "bad --n: empty item in ',9'"),
        ],
        ids=["columns-d", "perplines-q", "lattice-tree-n", "lattice-n", "empty-threshold",
             "q-empty-item", "n-empty-item", "n-leading-empty-item"],
    )
    def test_unread_or_empty_flag_exits_2(self, argv, message):
        code, out, err = run_cli("report", "--experiment", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


# The required-flag errors of the flag table on both subcommands.  A missing
# flag is reported before the output path, its sidecar and --threshold-c.
MISSING_FLAGS = {
    "random-n-seed": (
        ["generate", "--construction", "random", "-o", "r.pts"],
        "the random construction needs --n and --seed",
    ),
    "lattice-q-before-sidecar": (
        ["generate", "--construction", "lattice", "-o", "l.json"],
        "the lattice construction needs --q",
    ),
    "columns-tree-before-output-dir": (
        ["generate", "--construction", "columns", "--n", "9", "-o", "no/dir/c.pts"],
        "the columns construction needs --tree",
    ),
    "report-lattice-q": (
        ["report", "--experiment", "lattice", "--d", "3"], "the lattice experiment needs --q",
    ),
    "report-columns-n-before-threshold": (
        ["report", "--experiment", "columns", "--tree", "builtin:path:2", "--threshold-c", "x"],
        "the columns experiment needs --n",
    ),
}


@pytest.mark.parametrize("argv, message", MISSING_FLAGS.values(), ids=MISSING_FLAGS.keys())
def test_missing_flag_exits_2(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


class TestVerifySubset:
    def test_single_criterion(self):
        code, out, _ = run_cli("verify", "--criteria", "9")
        assert code == 0
        assert "PASS  9" in out
        assert "1/1 criteria passed" in out

    def test_timings_add_elapsed_ms_only(self, tmp_path):
        plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
        runs = [run_cli("verify", "--criteria", "3,9", "--json", str(plain)),
                run_cli("verify", "--criteria", "3,9", "--timings", "--json", str(timed))]
        assert runs[0] == runs[1]
        entries = json.loads(timed.read_text())
        assert [e.pop("elapsed_ms") >= 0 for e in entries] == [True, True]
        assert entries == json.loads(plain.read_text())
        assert "elapsed_ms" not in plain.read_text()

    def test_unknown_criterion(self):
        code, _, _ = run_cli("verify", "--criteria", "77")
        assert code == 2

    def test_criterion_named_twice(self):
        code, out, err = run_cli("verify", "--criteria", "9,9")
        assert (code, out) == (2, "")
        assert err == "error: --criteria names a criterion twice: '9,9'\n"

    @pytest.mark.parametrize("criteria", [",9,,", "9,", ",9", "3,,9"])
    def test_criteria_reject_an_empty_item(self, criteria):
        code, out, err = run_cli("verify", "--criteria", criteria)
        assert (code, out) == (2, "")
        assert err == f"error: bad --criteria: empty item in {criteria!r}\n"

    @pytest.mark.parametrize("criteria", [",", ""])
    def test_criteria_must_name_one(self, criteria):
        code, out, err = run_cli("verify", "--criteria", criteria)
        assert (code, out) == (2, "")
        assert err == "error: --criteria must list at least one criterion\n"


class TestUsage:
    def test_no_subcommand(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_missing_points_file(self):
        code, _, err = run_cli("count", "--tree", "builtin:path:2",
                               "--weights", "2,6", "--points", "missing.pts")
        assert code == 2
        assert "no such file" in err

    def test_points_read_from_stdin(self, columns_pts):
        # Fed through a pipe, /dev/stdin is no regular file.
        argv = ["distinct", "--points", "/dev/stdin", "--tree", "builtin:star:3"]
        proc = subprocess.run(
            [sys.executable, "-m", "dottrees", *argv], input=columns_pts.read_text(),
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        argv[2] = str(columns_pts)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*argv)

    def test_utf8_input_under_c_locale(self, tmp_path):
        # .pts is UTF-8 text whatever the locale's encoding: under the C
        # locale, with UTF-8 mode off, a non-ASCII comment still reads.
        pts = tmp_path / "cafe.pts"
        pts.write_text("d 2\n# café\n1 2\n3 4\n", encoding="utf-8")
        argv = ["distinct", "--points", str(pts)]
        env = dict(subprocess_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "dottrees", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(*argv)[1] == "distinct 1\nmax multiplicity 2\n"

    @pytest.mark.parametrize("flag", ["--points", "--second", "--tree", "--lines", "--pins"])
    def test_byte_order_mark_is_skipped(self, tmp_path, columns_pts, flag):
        # A leading UTF-8 byte-order mark, as some editors write, is no
        # part of the first line.
        files = {
            "--points": ("p.pts", columns_pts.read_text()),
            "--second": ("s.pts", columns_pts.read_text()),
            "--tree": ("t.tree", "k 2\n1 2\n2 3\n"),
            "--lines": ("l.lines", "1 0 2\n0 1 6\n"),
            "--pins": ("pins.pts", "d 2\n1 0\n0 1\n"),
        }
        name, text = files[flag]
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")

        def argv(path):
            return {
                "--points": ["distinct", "--points", path],
                "--second": ["proofgraph", "--points", columns_pts, "--second", path],
                "--tree": ["distinct", "--points", columns_pts, "--tree", path],
                "--lines": ["incidence", "--points", columns_pts, "--lines", path],
                "--pins": ["incidence", "--points", columns_pts, "--pins", path, "--alpha", "2"],
            }[flag]

        expected = run_cli(*map(str, argv(plain)))
        assert expected[0] in (0, 1) and expected[2] == ""
        assert run_cli(*map(str, argv(marked))) == expected

    @pytest.mark.parametrize("argv,expected", [
        (["count", "--tree", "builtin:path:2", "--points", "neg.pts", "--weights", "-1/2,3"],
         (0, "1\n", "")),
        (["count", "--tree", "builtin:path:2", "--points", "neg.pts", "--weig", "-1/2,3"],
         (0, "1\n", "")),
        (["incidence", "--points", "neg.pts", "--pins", "pin.pts", "--alpha", "-1/2"],
         (0, "1\n", "")),
        (["radial", "--points", "neg.pts", "--cap-c", "-1/2"],
         (2, "", "error: cap constant must be positive\n")),
        (["report", "--experiment", "lattice", "--q", "2", "--threshold-c", "-1/2"],
         (2, "", "error: threshold must be positive\n")),
    ], ids=["weights", "weights-abbreviated", "alpha", "cap-c", "threshold-c"])
    def test_negative_rational_after_flag(self, tmp_path, monkeypatch, argv, expected):
        # argparse alone reads -1/2 after a flag as an unknown option; the
        # value reaches the flag as it does spelled --flag=-1/2.
        monkeypatch.chdir(tmp_path)
        Path("neg.pts").write_text("d 2\n1 1\n-1/2 0\n-6 1\n2 3\n")
        Path("pin.pts").write_text("d 2\n1 0\n")
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert run_cli(*argv) == run_cli(*joined) == expected

    def test_directory_as_points_is_one_error_line(self, tmp_path):
        code, out, err = run_cli("distinct", "--points", str(tmp_path), "--tree", "builtin:path:2")
        assert (code, out, err) == (2, "", f"error: {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("flag", ["--points", "--second", "--tree", "--lines", "--pins"])
    def test_undecodable_file_is_one_error_line(self, tmp_path, columns_pts, flag):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\300\200")
        argv = {
            "--points": ["distinct", "--points", bad],
            "--second": ["proofgraph", "--points", columns_pts, "--second", bad],
            "--tree": ["distinct", "--points", columns_pts, "--tree", bad],
            "--lines": ["incidence", "--points", columns_pts, "--lines", bad],
            "--pins": ["incidence", "--points", columns_pts, "--pins", bad, "--alpha", "1"],
        }[flag]
        code, out, err = run_cli(*map(str, argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xc0" in err
        assert err.count("\n") == 1

    def test_bad_builtin_tree(self, columns_pts):
        code, _, _ = run_cli(
            "count", "--tree", "builtin:wheel:4", "--weights", "2",
            "--points", str(columns_pts),
        )
        assert code == 2

    def test_threads_must_be_positive(self, columns_pts):
        code, out, err = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts), "--threads", "0",
        )
        assert (code, out, err) == (2, "", "error: --threads must be at least 1\n")

    def test_malformed_points_file(self, tmp_path):
        bad = tmp_path / "bad.pts"
        bad.write_text("d 2\n1 x\n")
        code, _, err = run_cli("distinct", "--points", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_bad_weight_string(self, columns_pts):
        code, _, err = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,banana",
            "--points", str(columns_pts),
        )
        assert code == 2
        assert "weights" in err

    def test_bad_alpha(self, columns_pts, tmp_path):
        pins = tmp_path / "pins.pts"
        pins.write_text("d 2\n1 0\n")
        code, _, _ = run_cli(
            "incidence", "--points", str(columns_pts), "--pins", str(pins),
            "--alpha", "x",
        )
        assert code == 2

    def test_json_directory_must_exist(self, columns_pts):
        code, _, _ = run_cli(
            "distinct", "--points", str(columns_pts),
            "--json", "/no/such/dir/out.json",
        )
        assert code == 2

    def test_bad_builtin_size(self, columns_pts):
        code, _, _ = run_cli(
            "count", "--tree", "builtin:path:zero", "--weights", "2",
            "--points", str(columns_pts),
        )
        assert code == 2

    def test_oversized_builtin_tree_is_never_built(self, monkeypatch, columns_pts):
        # A builder that records its size and builds a 1-edge path, so no
        # call allocates: heights up to 19 (2^20 - 2 edges) are built, and
        # the sizes past 2^20 edges are rejected before any builder runs.
        built = []

        def recording(size):
            built.append(size)
            return make_path(1)

        for kind in cli.BUILTIN_TREES:
            monkeypatch.setitem(cli.BUILTIN_TREES, kind, recording)
        argv = ["distinct", "--points", str(columns_pts), "--tree"]
        for tree in ("binary:19", "path:1048576", "star:1048576"):
            assert run_cli(*argv, f"builtin:{tree}")[0] == 0
        assert built == [19, 2**20, 2**20]
        for tree in ("binary:20", "binary:40", "binary:" + "9" * 4000, "path:1048577", "star:1048577"):
            code, out, err = run_cli(*argv, f"builtin:{tree}")
            assert (code, out) == (2, "")
            assert err == f"error: builtin tree 'builtin:{tree}' has more than 1048576 edges\n"
        assert len(built) == 3


# The files the rejected inputs below read, written under the test's
# working directory.
REJECT_FILES = {
    "a.pts": "d 2\n1 2\n2 1\n3 1\n",
    "two3.pts": "d 3\n1 0 0\n0 1 0\n",
    "bad-dim.pts": "d x\n1 2\n",
    "k0.tree": "k 0\n",
    "no-header.tree": "# a comment\n",
    "bad-header.tree": "n 2\n1 2\n2 3\n",
    "bad-count.tree": "k two\n",
    "negative-count.tree": "k -1\n",
    "fields.tree": "k 2\n1 2\n2 3 4 5\n",
    "vertex.tree": "k 2\n1 x\n2 3\n",
    "too-few.tree": "k 3\n1 2\n2 3\n",
    "duplicate.tree": "k 2\n1 2\n1 2\n",
    "bad.lines": "1 1 3\n1 x 2\n",
    "short.lines": "1 1 3\n1 2\n",
}

# Inputs that raise a ValueError (or ParseError) inside the engine, a
# constructor, a reader or an argument check, each with its one error line.
# An error in a file names the file, and its line where the error has one.
ENGINE_REJECTS = {
    "tuples_of_edgeless_tree": (
        ["distinct", "--points", "a.pts", "--tree", "k0.tree"],
        "weight tuples need at least one edge",
    ),
    "random_box_too_small": (
        ["generate", "--construction", "random", "--n", "50", "--seed", "1",
         "--low", "0", "--high", "2", "-o", "out.pts"],
        "box holds only 8 distinct points, need 50",
    ),
    "random_dimension_one": (
        ["generate", "--construction", "random", "--n", "5", "--seed", "1",
         "--d", "1", "-o", "out.pts"],
        "dimension must be at least 2, got 1",
    ),
    "random_negative_n": (
        ["generate", "--construction", "random", "--n", "-1", "--seed", "1", "-o", "out.pts"],
        "n must be nonnegative, got -1",
    ),
    "lattice_q_zero": (
        ["generate", "--construction", "lattice", "--q", "0", "-o", "out.pts"],
        "q must be at least 2",
    ),
    "lines_bad_rational": (
        ["incidence", "--points", "a.pts", "--lines", "bad.lines"],
        "bad.lines: line 2: bad rational 'x'",
    ),
    "lines_field_count": (
        ["incidence", "--points", "a.pts", "--lines", "short.lines"],
        "short.lines: line 2: expected 3 rationals",
    ),
    "tree_missing_header": (
        ["distinct", "--points", "a.pts", "--tree", "no-header.tree"],
        "no-header.tree: missing 'k <num_edges>' header",
    ),
    "tree_malformed_header": (
        ["distinct", "--points", "a.pts", "--tree", "bad-header.tree"],
        "bad-header.tree: line 1: expected header 'k <num_edges>', got 'n 2'",
    ),
    "tree_bad_edge_count": (
        ["distinct", "--points", "a.pts", "--tree", "bad-count.tree"],
        "bad-count.tree: line 1: bad edge count 'two'",
    ),
    "tree_negative_edge_count": (
        ["distinct", "--points", "a.pts", "--tree", "negative-count.tree"],
        "negative-count.tree: line 1: edge count must be nonnegative",
    ),
    "tree_field_count": (
        ["distinct", "--points", "a.pts", "--tree", "fields.tree"],
        "fields.tree: line 3: expected 'i j [w]', got '2 3 4 5'",
    ),
    "tree_bad_vertex": (
        ["distinct", "--points", "a.pts", "--tree", "vertex.tree"],
        "vertex.tree: line 2: bad vertex index in '1 x'",
    ),
    "tree_edge_count_mismatch": (
        ["distinct", "--points", "a.pts", "--tree", "too-few.tree"],
        "too-few.tree: expected 3 edges, found 2",
    ),
    "tree_duplicate_edge": (
        ["distinct", "--points", "a.pts", "--tree", "duplicate.tree"],
        "duplicate.tree: line 3: duplicate edge (1, 2)",
    ),
    "points_bad_dimension": (
        ["distinct", "--points", "bad-dim.pts"], "bad-dim.pts: line 1: bad dimension 'x'",
    ),
    "builtin_path_without_size": (
        ["distinct", "--points", "a.pts", "--tree", "builtin:path"],
        "bad builtin tree 'builtin:path'; use builtin:path:2",
    ),
    "criteria_not_a_number": (["verify", "--criteria", "x"], "bad --criteria: 'x'"),
    "pinned_tuples_without_pin_index": (
        ["pinned", "--points", "a.pts", "--tree", "builtin:path:2", "--vertex", "1"],
        "pinned tuple counting needs --vertex and --pin-index",
    ),
    "columns_of_edgeless_tree": (
        ["generate", "--construction", "columns", "--tree", "builtin:binary:0", "--n", "5",
         "-o", "out.pts"],
        "the construction needs at least one edge",
    ),
    "descent_on_fewer_than_d_points": (
        ["pinned", "--points", "two3.pts", "--descent"], "need at least 3 points",
    ),
}


@pytest.mark.parametrize(
    "argv, message", ENGINE_REJECTS.values(), ids=ENGINE_REJECTS.keys()
)
def test_engine_value_errors_exit_2(tmp_path, argv, message):
    for name, text in REJECT_FILES.items():
        (tmp_path / name).write_text(text)
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-c", "from dottrees.cli import main; main()", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("module", ["dottrees", "dottrees.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    env = subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify", "--criteria", "9"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "1/1 criteria passed" in proc.stdout


# Fixed inputs for the pinned-output test, written under the test's working
# directory.  cols.pts is the columns construction of builtin:path:2 at n=9;
# lat.pts and lat_F.pts are the q=2 unit lattice pair.  k2.tree is a path
# whose breadth-first order from vertex 1 (1, 3, 2) is not its labels.
# cat.tree is a caterpillar: spine 1-2, leaves 3 and 4 on 1, leaf 5 on 2.
PINNED_INPUTS = {
    "cols.pts": "d 2\n1 3\n1 4\n1 5\n1 6\n2 0\n3 3\n3 4\n3 5\n3 6\n",
    "g3.pts": "d 3\n" + "".join(
        f"{x} {y} {z}\n" for x in (1, 2, 3) for y in (1, 2, 3) for z in (1, 2, 3)
    ),
    "lat.pts": "d 2\n3/4 17/16\n3/4 9/8\n3/4 19/16\n3/4 5/4\n"
               "1 17/16\n1 9/8\n1 19/16\n1 5/4\n",
    "lat_F.pts": "d 2\n-12/5 16/5\n-2 8/3\n-12/7 16/7\n-3/2 2\n"
                 "-16/5 16/5\n-8/3 8/3\n-16/7 16/7\n-2 2\n",
    # The calibrated d=2, q=4 pair, as `generate` writes it: E holds
    # (a/8, j/64) for a = 5..8 and j = 57..72, F holds (-8g/b, 64/b) for
    # g = 5..8 and b = 17..32.
    "lat4.pts": "d 2\n" + "".join(
        f"{Fraction(a, 8)} {Fraction(j, 64)}\n" for a in range(5, 9) for j in range(57, 73)
    ),
    "lat4_F.pts": "d 2\n" + "".join(
        f"{Fraction(-8 * g, b)} {Fraction(64, b)}\n" for g in range(5, 9) for b in range(17, 33)
    ),
    "diag.pts": "d 2\n" + "".join(f"{i} {i}\n" for i in range(1, 28)),
    "pins.pts": "d 2\n1 0\n0 1\n",
    "x.lines": "# the x-axis and the line x = 3\n0 1 0\n1 0 3\n",
    "k2.tree": "k 2\n1 3\n2 3\n",
    "cat.tree": "k 4\n1 2\n1 3\n1 4\n2 5\n",
}

# argv, exit code, SHA-256 of stdout, and SHA-256 of every file the call
# writes.  These bytes are the CLI's output contract: a change to any of them
# is a change in behaviour, not a refactor.
PINNED_OUTPUTS = {
    "generate-columns": (
        ["generate", "--construction", "columns", "--tree", "builtin:path:2", "--n", "9", "-o", "out.pts"],
        0, "012cea1ff56c24ba7159f64057fcbaa4ac431a0ba92fac83a80d406c242be87b",
        {
            "out.json": "380359dbbac98340802a180f4fb26f30edc272e0bf55ca54c143760ad64c87a8",
            "out.pts": "be644000df2048dc45a0986e102c889399664c3c2fb1db150b085f0ee5fe0db9",
        },
    ),
    "generate-lattice": (
        ["generate", "--construction", "lattice", "--d", "2", "--q", "3", "-o", "out.pts"],
        0, "e62e40e447c89bd9c08b7b77efda8b5224ddee985fbacb7e977ed742bb77f88f",
        {
            "out.json": "7aec885473cef8f07e135d2075297b085136fb4512f046e263bee84d5a952caa",
            "out.pts": "f5d4936b1fdd49dfdbf7c45d15cc8d5cae5096f6dc88d0166139f36d0aa50485",
            "out_F.pts": "a50619d44475e9719ea701ec2f278808faa69d44552890ea1298a50fc5692fd7",
        },
    ),
    "generate-random": (
        ["generate", "--construction", "random", "--n", "12", "--seed", "9", "-o", "out.pts"],
        0, "1bc2cbaa767ac981711b10c198da87aea670a13488f443b0cb1622a99826cc4f",
        {
            "out.json": "9f31091e0e128d63957a5080cb29930f7252392e9b383ebf6b8fc78833e30926",
            "out.pts": "6f826d3e603c2442879a6b652f98989ea286da73da89c73121a294bbd451ca88",
        },
    ),
    "generate-perplines": (
        ["generate", "--construction", "perplines", "--tree", "builtin:path:2", "--n", "9", "-o", "out.pts"],
        0, "1c0c785ee741993c5b84affe9bd548c53274676ad66fec2ffd74e672060245f1",
        {
            "out.json": "29f1fe55feb502392b95387304193b48d97d92b11218e7c78e8803be18a94949",
            "out.pts": "7dbc55311148b9b2e1a03a694b475a8f5fc4aba2c27b7a22fc4bda83df8e5569",
        },
    ),
    "generate-columns-primes": (
        ["generate", "--construction", "columns", "--tree", "builtin:star:5", "--n", "12", "-o", "out.pts"],
        0, "70dd0983d2b1509ba9fc5b540751580d97c7a4cb0b906e71c8e698a75c6e8677",
        {
            "out.json": "1bf74cef115c4b8c8ec0b70e4132610c4b911fba0cc940452711899f41757a86",
            "out.pts": "d9bb87fc78da427724b320b6863293c38f69fac296d75729161b424e794b0afa",
        },
    ),
    "generate-perplines-primes": (
        ["generate", "--construction", "perplines", "--tree", "builtin:star:5", "--n", "14", "-o", "out.pts"],
        0, "c992603144592b83c96b9d0920a987bf4d7da9000db5868d3eac23216211fba6",
        {
            "out.json": "7fce1c549ffe702e38f777048d874184072112b6f1be63290e779346ae71a6e8",
            "out.pts": "100debd491dedf6b1cc5d7c200f0289217f66f162efe6f448ef96095003f5037",
        },
    ),
    "generate-columns-bfs": (
        ["generate", "--construction", "columns", "--tree", "k2.tree", "--n", "9", "-o", "out.pts"],
        0, "012cea1ff56c24ba7159f64057fcbaa4ac431a0ba92fac83a80d406c242be87b",
        {
            "out.json": "f8e1d92bc1c8423ca5155aca6df3c5dbea4587b256313db4b05a718b88ed2643",
            "out.pts": "a414f2111c6f1547e10e58728d0960191492fa8a519cf7893433a87c8779ae6c",
        },
    ),
    "generate-perplines-bfs": (
        ["generate", "--construction", "perplines", "--tree", "k2.tree", "--n", "9", "-o", "out.pts"],
        0, "1c0c785ee741993c5b84affe9bd548c53274676ad66fec2ffd74e672060245f1",
        {
            "out.json": "e48f8c68512759e296896c0f48e02a82b283d762b5d4b08880abeecc9a5897ea",
            "out.pts": "15abf6e51608232ef288719168b7ebc2ae31a9fc83eccbee464af1592c7681ed",
        },
    ),
    "generate-lattice-paper-3d": (
        ["generate", "--construction", "lattice", "--d", "3", "--q", "2", "--mode", "paper", "-o", "out.pts"],
        0, "6a0c08f57a5938152c093877f585f72bca5ab6781e78690adcd6c43c0b7ca6d0",
        {
            "out.json": "e40477cb1eddd820bc7dc5fc45b056f8c123b70cd96ba0366c73fc9ab502a8e3",
            "out.pts": "e3bac9fc69595f4e3a1ba655ee8cd7f635654e7a0f06a45dc19a4d4ae8eac1cc",
            "out_F.pts": "2e42d586e2e7fbdc0f4652af9417d879fa11ca4ff5c9cc647606bb71bfd4cb77",
        },
    ),
    # Criterion 3's largest lattice pair.
    "generate-lattice-paper-3d-q4": (
        ["generate", "--construction", "lattice", "--d", "3", "--q", "4", "--mode", "paper", "-o", "out.pts"],
        0, "cbf54a152493e83d52086bde21b53ef1c4d7abc2a4a4ec9210562b4df96a7805",
        {
            "out.json": "5dd9affb6a20eb17f88add82d33d30da6ca55ba5d8d7aedd806383dfd8e7ceef",
            "out.pts": "5827c6987620735602130fde1b8aa2af82426184e5ad493c28b69f9790c3177d",
            "out_F.pts": "894fac8c5a78128f74abab76a5b532ddb2e0cd237d229481978f582f96b8ed6b",
        },
    ),
    "generate-lattice-3d": (
        ["generate", "--construction", "lattice", "--d", "3", "--q", "3", "-o", "out.pts"],
        0, "a387b8bc30125c3a25f21ea06d7ddac5b743d1f42d0b2113fccdbd05e291a3b2",
        {
            "out.json": "8685eac031a8fda0d948a8ebdf573dacf78b4ae5919250f7d8276d86c7c41896",
            "out.pts": "a6a283f6e73dbeca270375f0ec3d1b32a28b27b5bfaf42ebb7cb979c5bef918f",
            "out_F.pts": "f2bc4ea38ee75bffda58fe97261f5c5820b4caef409d10e543200ea50c46015f",
        },
    ),
    "count": (
        ["count", "--tree", "builtin:path:2", "--weights", "2,6", "--points", "cols.pts", "--json", "r.json"],
        0, "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
        {
            "r.json": "b81d78eb78f62ca8bfe0ed06b4c3f2ed0070dfb2760f897220f4e829244cbdd2",
        },
    ),
    "count-homomorphisms": (
        ["count", "--tree", "builtin:path:2", "--weights", "2,6", "--points", "cols.pts", "--homomorphisms", "--json", "r.json"],
        0, "e6c21e8d260fe71882debdb339d2402a2ca7648529bc2303f48649bce0380017",
        {
            "r.json": "c1a4cfa65bb76661c02450ef3e7cff67a0f8bbb5c9d784e851121582596f1c20",
        },
    ),
    "count-include-zero": (
        ["count", "--tree", "builtin:path:1", "--weights", "0", "--points", "pins.pts", "--include-zero", "--json", "r.json"],
        0, "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        {
            "r.json": "24adcdc4daae2e68736902081af5354a9315b98a0564e72004290360659b9d8d",
        },
    ),
    "distinct": (
        ["distinct", "--points", "cols.pts", "--json", "r.json"],
        0, "ca3a39df42b715f31d9c151e1fb26690a9c36fa2d2a44284508e480552361620",
        {
            "r.json": "8a3187f8f39c0c060e4311760cb2e7591a6bb19e32befd6aa39e950505247e66",
        },
    ),
    "distinct-tree": (
        ["distinct", "--points", "cols.pts", "--tree", "builtin:path:2", "--json", "r.json"],
        0, "acbf3426054eb2943640b7d941b8181fe3cc9c00a2f396a4ebaa7647d493e420",
        {
            "r.json": "1a65c985308779bdb12be80ecee6c789f84df6bedabdd63917d1c724c54637ab",
        },
    ),
    # Leaf groups of more than one leaf: weight tuples whose heads the
    # kernel enumerates before the last leaf's mask.
    "distinct-tree-star": (
        ["distinct", "--points", "cols.pts", "--tree", "builtin:star:3", "--json", "r.json"],
        0, "c956810869802e2d7ec2ef93a9e3d982ae79270257c370cdc67a46a4829a1505",
        {
            "r.json": "37ccce379fff552c4541c84a6de727a3f436c6f16558594745b755cb8f3acefd",
        },
    ),
    "distinct-tree-caterpillar": (
        ["distinct", "--points", "cols.pts", "--tree", "cat.tree", "--json", "r.json"],
        0, "aa94471a968576a8187040d3b5ebd4e15bd8f41f5e36319450cdac57874f720c",
        {
            "r.json": "d3f1d38d2b0c35f09440613b91d274d80c07b238bf22dbd54ea6658bcee9aea4",
        },
    ),
    "pinned-max": (
        ["pinned", "--points", "cols.pts", "--json", "r.json"],
        0, "2b48fdfd57227001f636ee54d604fae7bee1842ec50cafddd3295739fed774c2",
        {
            "r.json": "de4006895f1f16af58afc76c9d983c06676da694367435db42419d0c64608be6",
        },
    ),
    "pinned-index": (
        ["pinned", "--points", "cols.pts", "--pin-index", "6", "--json", "r.json"],
        0, "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
        {
            "r.json": "b13222b241e2366ba25d95d61ef5c1f7b1a5a129f01051f50218015aa4844f39",
        },
    ),
    "pinned-tuples": (
        ["pinned", "--points", "cols.pts", "--tree", "builtin:path:2", "--vertex", "1", "--pin-index", "6", "--json", "r.json"],
        0, "a5331f18877e9e1543361e44b4cb0a1f5f0ed5f8297d850bf1fcc68bd7a3ab5f",
        {
            "r.json": "3ea4da8d2d81120cd5439e066b952276f70cf3fc5c7b39ea9ad03bb7d6c753f7",
        },
    ),
    "pinned-tuples-star": (
        ["pinned", "--points", "cols.pts", "--tree", "builtin:star:3", "--vertex", "1", "--pin-index", "6", "--json", "r.json"],
        0, "c942bc47f4c98e6bda9666c229c1dced88eec8ee73383d7c75de3dc21a3941f4",
        {
            "r.json": "5fdaf6d163a43ae8b06cf30e651a60ff53f45fa914be4ed13f255bde775bafb2",
        },
    ),
    "pinned-tuples-caterpillar": (
        ["pinned", "--points", "cols.pts", "--tree", "cat.tree", "--vertex", "2", "--pin-index", "6", "--json", "r.json"],
        0, "ddc1e295165f07703977c2f7fce6991541486268bccf43578344c31fcb304050",
        {
            "r.json": "beaf18e80247642c5fbae2e8aa50d4f09da58b7de0975bc7615c125b6a094ab9",
        },
    ),
    "pinned-descent": (
        ["pinned", "--points", "g3.pts", "--descent", "--json", "r.json"],
        0, "96bff0159d2b5ab48205727e1bb17fa17e2b138de4eb2ea8a081968dd076115d",
        {
            "r.json": "a753b5353d87f97946c00772901d4e018252a0f0bfbded6fc7f1bde75388ed7d",
        },
    ),
    "incidence-lines": (
        ["incidence", "--points", "cols.pts", "--lines", "x.lines", "--json", "r.json"],
        0, "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
        {
            "r.json": "79bf731fa7b6e13cd63819a119f8306b6c2f0528727b06028e5a246a3e2ef03e",
        },
    ),
    "incidence-pins": (
        ["incidence", "--points", "cols.pts", "--pins", "pins.pts", "--alpha", "3", "--json", "r.json"],
        0, "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
        {
            "r.json": "1ff3cda8262b6ef4530f38928c11f32795881f8a0763644dd42a727514a1f1aa",
        },
    ),
    "radial": (
        ["radial", "--points", "cols.pts", "--cap-c", "3/2", "--json", "r.json"],
        0, "f4b8c20fc816630b0b41097036918bd05a2f7eb34b0ac5bf76b8e747b07c50ca",
        {
            "r.json": "52a11dd8f0a7594d4b2f27781f892b157e9ac3fbfd2ce53bf03a2b17c75ad3b9",
        },
    ),
    "radial-cap-fails": (
        ["radial", "--points", "diag.pts", "--json", "r.json"],
        1, "cd4637ae27c202f475ef59d59071cafad531a20c7c330e38570de62132b9b7b3",
        {
            "r.json": "dc28fcfc55929f79167cfaebe26eb5dfd195f45d45cd522379625483a980a346",
        },
    ),
    "proofgraph": (
        ["proofgraph", "--points", "cols.pts", "--json", "r.json"],
        0, "7ab0612a48b24e4186e39fb15b0f89dde1e3e99583d5b7476589727551eb68cf",
        {
            "r.json": "cc7a8b993e20ca018a42ece43e276b14c2712ce73887c56cac11ae82dfac9727",
        },
    ),
    "proofgraph-second": (
        ["proofgraph", "--points", "lat.pts", "--second", "lat_F.pts", "--json", "r.json"],
        0, "7482181f143db714b1204682275d02249d4221ecb1c7ed8db4a9b230a09a9c63",
        {
            "r.json": "80cc3b4e5f2dd81ea89d1610761d2b5ffb557da69af4163410f003830e534943",
        },
    ),
    "proofgraph-second-q4": (
        ["proofgraph", "--points", "lat4.pts", "--second", "lat4_F.pts", "--json", "r.json"],
        0, "1314182e452a9a05de3b9ac486d70238d58b420074b51f6ac215859c1629fdce",
        {
            "r.json": "8a5d2f4baf1fbdcbc9a091fa599573f5d0fc21c620aade35c726756c9523964c",
        },
    ),
    "verify": (
        ["verify", "--criteria", "2,9", "--json", "r.json"],
        0, "7b45d64078bbba32e75d75f0b4790bce4ad6c69c7142403bedb5460082273ca5",
        {
            "r.json": "8ed18298a1a718e6e8b84ef53664e224179218b2808bebb36f5db494457b36c0",
        },
    ),
    "report-columns": (
        ["report", "--experiment", "columns", "--tree", "builtin:path:2", "--n", "8,12", "--json", "r.json"],
        0, "f8ae311456a0f7363c6d6201fbb85a21b47f4c882be30e5a82bfd7e640227527",
        {
            "r.json": "f3c0c39fc3e24446dc7702e4ce12c95654c9ea6bc934c6f823dd3e64e7fa3e0d",
        },
    ),
    "report-perplines": (
        ["report", "--experiment", "perplines", "--tree", "builtin:path:2", "--n", "9,12", "--json", "r.json"],
        0, "29606a207ee6d97a7617507f18b84a6817b94472bb7ade0649ea5780bb9ea5b4",
        {
            "r.json": "1540775286a8304a4cfaa1a0d7ed8055d677bb7e3793d6a5df83daf2b11d8b4d",
        },
    ),
    "report-lattice": (
        ["report", "--experiment", "lattice", "--d", "2", "--q", "4,5", "--json", "r.json"],
        0, "3343129bd45042d2efb5c1600d51f351f976c1ee1a00fa4b397330520860df85",
        {
            "r.json": "9766dc164cf3d17ac9c9857beb4e9cbc9593486c9f51ef0bf01b0c6d66a2d787",
        },
    ),
    # Three or more sizes, so the JSON carries fit_slope at full precision.
    "report-columns-fit": (
        ["report", "--experiment", "columns", "--tree", "builtin:path:3", "--n", "16,32,64,128", "--json", "r.json"],
        0, "d506b32b1e10b34403cf32b821cbfcc3c3250a5408b02e7f97f7a5e111e862ec",
        {
            "r.json": "f506827fa6f75c79414406fc1ac2bd2f393e40297b788d98b2f6628ee0323ef1",
        },
    ),
    "report-lattice-fit": (
        ["report", "--experiment", "lattice", "--d", "2", "--q", "4,5,6", "--json", "r.json"],
        0, "f318f306ed699015c64e4b0359953f4ad6b6166966624b5e0e4f69560bc0e068",
        {
            "r.json": "ee454c5e6c7bd0dbf4a56ac74a856b1023dec6233e5ebbd3d0ef282350fedbd0",
        },
    ),
    "report-perplines-fit": (
        ["report", "--experiment", "perplines", "--tree", "builtin:path:2", "--n", "9,12,15", "--json", "r.json"],
        0, "9b8d6f1a4e2399ab2370d8fe1a289d9d075b0e6b4fa98002876913526459a2b9",
        {
            "r.json": "f4957970d4c5121f8e98397ad7ab6af96f0dffbc486657d3ad89c4764b3ef8fc",
        },
    ),
}


@pytest.mark.parametrize(
    "argv, code, stdout_sha, files",
    PINNED_OUTPUTS.values(),
    ids=PINNED_OUTPUTS.keys(),
)
def test_cli_output_bytes_pinned(tmp_path, monkeypatch, argv, code, stdout_sha, files):
    monkeypatch.chdir(tmp_path)
    for name, text in PINNED_INPUTS.items():
        Path(name).write_text(text)
    got_code, out, err = run_cli(*argv)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path.name not in PINNED_INPUTS
    }
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha
    assert written == files


# One valid argv per subcommand, and the flags of SHARED_FLAG_ARGS each one
# declares: --threads is count's alone, --seed generate's.
SUBCOMMAND_ARGV = {
    "generate": ["generate", "--construction", "random", "--n", "5", "-o", "out.pts"],
    "count": ["count", "--tree", "builtin:path:1", "--weights", "1", "--points", "a.pts"],
    "distinct": ["distinct", "--points", "a.pts"],
    "pinned": ["pinned", "--points", "a.pts"],
    "incidence": ["incidence", "--points", "a.pts", "--pins", "a.pts", "--alpha", "1"],
    "radial": ["radial", "--points", "a.pts"],
    "proofgraph": ["proofgraph", "--points", "a.pts"],
    "verify": ["verify", "--criteria", "9"],
    "report": ["report", "--experiment", "lattice", "--q", "4"],
}
SHARED_FLAG_ARGS = {
    "--threads": ["--threads", "3"],
    "--seed": ["--seed", "7"],
    "--include-zero": ["--include-zero"],
    "--json": ["--json", "out.json"],
    "--timings": ["--timings"],
}
DECLARED_FLAGS = {
    "generate": {"--seed"},
    "count": {"--threads", "--include-zero", "--json", "--timings"},
    "distinct": {"--include-zero", "--json", "--timings"},
    "pinned": {"--include-zero", "--json", "--timings"},
    "incidence": {"--json", "--timings"},
    "radial": {"--json", "--timings"},
    "proofgraph": {"--include-zero", "--json", "--timings"},
    "verify": {"--json", "--timings"},
    "report": {"--json"},
}
UNDECLARED = [
    (sub, flag)
    for sub in SUBCOMMAND_ARGV
    for flag in SHARED_FLAG_ARGS
    if flag not in DECLARED_FLAGS[sub]
]


@pytest.mark.parametrize(
    "sub, flag", UNDECLARED, ids=[f"{sub}{flag}" for sub, flag in UNDECLARED]
)
def test_undeclared_shared_flag_exits_2(sub, flag):
    code, out, err = run_cli(*SUBCOMMAND_ARGV[sub], *SHARED_FLAG_ARGS[flag])
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("sub", DECLARED_FLAGS)
def test_declared_shared_flags_accepted(sub):
    flags = sorted(DECLARED_FLAGS[sub])
    argv = SUBCOMMAND_ARGV[sub] + [a for flag in flags for a in SHARED_FLAG_ARGS[flag]]
    args = build_parser().parse_args(argv)
    if "--threads" in flags:
        assert args.threads == 3
    if "--seed" in flags:
        assert args.seed == 7
    if "--json" in flags:
        assert args.json == "out.json"
    if "--include-zero" in flags:
        assert args.include_zero is True
    if "--timings" in flags:
        assert args.timings is True


# The argv shapes perfbench/workloads.py passes to cli_main.
BENCHMARK_ARGV = {
    "embed": ["count", "--tree", "builtin:star:3", "--weights", "5,13,25",
              "--points", "E.pts", "--threads", "2", "--json", "embed.json"],
    "tuples": ["distinct", "--tree", "builtin:path:2", "--points", "G.pts",
               "--json", "tuples.json"],
    "proofgraph-random": ["proofgraph", "--points", "R.pts", "--json", "random.json"],
    "proofgraph-lattice": ["proofgraph", "--points", "E.pts", "--second", "F.pts",
                           "--json", "lattice.json"],
    "verify": ["verify", "--criteria", "1,2,3,6,9", "--json", "verify.json"],
    "verify-all": ["verify", "--json", "verify.json"],
}


@pytest.mark.parametrize("argv", BENCHMARK_ARGV.values(), ids=BENCHMARK_ARGV.keys())
def test_benchmark_argv_accepted(argv):
    args = build_parser().parse_args(argv)
    assert args.subcommand == argv[0]
    assert args.json == argv[-1]


def _parse(parser, argv):
    """(exit code, stdout, stderr, namespace) of one ``parse_args`` call; the
    code is None and the handler left out when it parses."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


# Each subcommand with a required flag left out, or, for verify, which has
# none, with a flag's value left out.
MISSING_REQUIRED = {
    "generate": ["generate", "--construction", "random"],
    "count": ["count", "--tree", "builtin:path:1"],
    "distinct": ["distinct"],
    "pinned": ["pinned", "--descent"],
    "incidence": ["incidence", "--lines", "l.lines"],
    "radial": ["radial", "--allow-origin"],
    "proofgraph": ["proofgraph", "--second", "a.pts"],
    "verify": ["verify", "--criteria"],
    "report": ["report", "--q", "4"],
}
PARSER_ARGV = [
    [], ["--help"], ["-h"], ["bogus"], ["-x", "verify"], ["--threads", "2", "count"],
    ["generate", "--construction", "nope", "-o", "out.pts"],
    ["report", "--experiment", "nope"],
    *([sub, "--help"] for sub in SUBCOMMAND_ARGV),
    *MISSING_REQUIRED.values(),
    *(argv + ["--bogus"] for argv in SUBCOMMAND_ARGV.values()),
    *(argv + ["extra"] for argv in SUBCOMMAND_ARGV.values()),
    *SUBCOMMAND_ARGV.values(),
    *BENCHMARK_ARGV.values(),
]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=[" ".join(a) or "[]" for a in PARSER_ARGV])
def test_parser_for_argv_matches_full_parser(argv):
    # The parser declaring only argv[0]'s subcommand prints the same help and
    # errors, exits with the same code and parses to the same namespace.
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def _declared(parser):
    (action,) = (a for a in parser._actions if isinstance(a.choices, dict))
    return list(action.choices)


def test_parser_declares_only_the_named_subcommand():
    assert _declared(build_parser(["count"])) == ["count"]
    assert _declared(build_parser(["count", "--help"])) == ["count"]
    full = list(cli.SUBCOMMANDS)
    assert len(full) == 9
    for argv in ([], None, ["-h"], ["bogus"], ["-x", "verify"], ["--threads", "2", "count"]):
        assert _declared(build_parser(argv)) == full
