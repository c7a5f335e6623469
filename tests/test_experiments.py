import json

from dottrees import alpha_hyperplane, incidences, make_path, make_star
from dottrees.experiments import (
    columns_report,
    lattice_report,
    perplines_report,
)
from dottrees.reports import CountReport, digest_inputs, point_set_digest
from dottrees import point_set


class TestColumnsReport:
    def test_oracle_equality_and_bound(self):
        report = columns_report(make_path(2), (8, 12, 16, 20), tree_label="path-2")
        assert report["pass"]
        assert all(c["equal_ok"] for c in report["checks"])
        assert report["predicted_exponent"] == "2"
        assert report["fit_slope"] is not None

    def test_star_series(self):
        report = columns_report(make_star(3), (12, 16), tree_label="star-3")
        assert report["pass"]

    def test_path3_fit_slope_near_exponent(self):
        report = columns_report(make_path(3), (16, 32, 64, 128), tree_label="path-3")
        assert report["pass"]
        assert abs(report["fit_slope"] - 2.0) < 0.15


class TestPerplinesReport:
    def test_notes_flag_discrepancy(self):
        report = perplines_report(make_path(2), (9, 12), tree_label="path-2")
        assert report["pass"]
        assert any("realized exponent" in note for note in report["notes"])
        assert report["predicted_exponent"] == "2"


class TestLatticeReport:
    def test_planar_series(self):
        report = lattice_report(2, (4, 5))
        assert report["pass"]
        assert report["predicted_exponent"] == "4/3"
        counts = {c["n"]: c["count"] for c in report["checks"]}
        assert counts == {64: 130, 125: 320}


class TestUnitPairs:
    def test_small(self):
        e = point_set([(1, 0), (1, 1)])
        f = point_set([(1, 0), (0, 1)])
        assert incidences(e, [alpha_hyperplane(p, 1) for p in f.points]) == 3


class TestCountReport:
    def test_json_roundtrip_and_determinism(self):
        report = CountReport(
            operation="demo",
            parameters={"n": 3},
            input_digest=point_set_digest(point_set([(1, 2), (3, 4)])),
            counts={"count": 7},
        )
        text = report.to_json()
        assert text == report.to_json()
        assert '"elapsed_ms": null' in text
        assert json.loads(report.to_json())["counts"] == {"count": 7}

    def test_digest_separates_parts(self):
        assert digest_inputs("ab", "c") != digest_inputs("a", "bc")
