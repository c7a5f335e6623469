import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dottrees.cli import cli_main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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
        assert "--n" in err

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
        assert "seed" in err

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
        blobs = []
        for threads in ("1", "4"):
            path = tmp_path / f"r{threads}.json"
            run_cli(
                "count", "--tree", "builtin:path:2", "--weights", "2,6",
                "--points", str(columns_pts), "--json", str(path),
                "--threads", threads,
            )
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

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

    def test_needs_some_lines(self, columns_pts):
        code, _, _ = run_cli("incidence", "--points", str(columns_pts))
        assert code == 2


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
        code, _, _ = run_cli("report", "--experiment", "columns")
        assert code == 2


class TestVerifySubset:
    def test_single_criterion(self):
        code, out, _ = run_cli("verify", "--criteria", "9")
        assert code == 0
        assert "PASS  9" in out
        assert "1/1 criteria passed" in out

    def test_unknown_criterion(self):
        code, _, _ = run_cli("verify", "--criteria", "77")
        assert code == 2


class TestUsage:
    def test_no_subcommand(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_missing_points_file(self):
        code, _, err = run_cli("count", "--tree", "builtin:path:2",
                               "--weights", "2,6", "--points", "missing.pts")
        assert code == 2
        assert "no such file" in err

    def test_bad_builtin_tree(self, columns_pts):
        code, _, _ = run_cli(
            "count", "--tree", "builtin:wheel:4", "--weights", "2",
            "--points", str(columns_pts),
        )
        assert code == 2

    def test_threads_must_be_positive(self, columns_pts):
        code, _, _ = run_cli(
            "count", "--tree", "builtin:path:2", "--weights", "2,6",
            "--points", str(columns_pts), "--threads", "0",
        )
        assert code == 2

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


# Inputs that raise a ValueError (or ParseError) inside the engine or a
# constructor rather than in the CLI's own checks.
ENGINE_REJECTS = {
    "tuples_of_edgeless_tree": ["distinct", "--points", "a.pts", "--tree", "k0.tree"],
    "random_box_too_small": [
        "generate", "--construction", "random", "--n", "50", "--seed", "1",
        "--low", "0", "--high", "2", "-o", "out.pts",
    ],
    "random_dimension_one": [
        "generate", "--construction", "random", "--n", "5", "--seed", "1",
        "--d", "1", "-o", "out.pts",
    ],
    "lattice_q_zero": ["generate", "--construction", "lattice", "--q", "0", "-o", "out.pts"],
    "lines_bad_rational": ["incidence", "--points", "a.pts", "--lines", "bad.lines"],
}


@pytest.mark.parametrize("argv", ENGINE_REJECTS.values(), ids=ENGINE_REJECTS.keys())
def test_engine_value_errors_exit_2(tmp_path, argv):
    (tmp_path / "a.pts").write_text("d 2\n1 2\n2 1\n3 1\n")
    (tmp_path / "k0.tree").write_text("k 0\n")
    (tmp_path / "bad.lines").write_text("1 1 3\n1 x 2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.run(
        [sys.executable, "-c", "from dottrees.cli import main; main()", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
