"""Acceptance suite: every criterion prints one pass/fail line.

Criteria 1-9 run through the library; criterion 10 runs the self-contained
``verify`` command twice with different thread counts and compares the bytes.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dottrees import PointSet, dot, pinned_set, point_set, random_point_set
from dottrees import acceptance, experiments
from dottrees.acceptance import _recount_edges, run_criteria
from dottrees.bounds import meets_power_bound
from dottrees.cli import cli_main
from dottrees.constructions import LatticeSpec, _unit_identity_failures, build_unit_lattice
from dottrees.counting import count_embeddings
from dottrees.experiments import lattice_report
from oracles import reference_unit_identity

_RESULTS = {}


def _run(number):
    if number not in _RESULTS:
        _RESULTS[number] = run_criteria([number])[0]
    result = _RESULTS[number]
    print(result.line())
    return result


def test_criterion_01_column_construction_oracle():
    result = _run(1)
    assert result.passed, result.details
    assert result.elapsed_s < 60.0


def test_criterion_over_its_time_limit_fails(monkeypatch):
    # A clock that reads 0 s at the start and 61 s at the end: criterion 1's
    # counts are all exact, but it "took" more than its 60 s limit.
    clock = SimpleNamespace(perf_counter=iter((0.0, 61.0)).__next__)
    monkeypatch.setattr(acceptance, "time", clock)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.details == "16/16 construction counts exact"
    assert result.elapsed_s == 61


def test_criterion_without_a_time_limit_passes_slowly(monkeypatch):
    clock = SimpleNamespace(perf_counter=iter((0.0, 1000.0)).__next__)
    monkeypatch.setattr(acceptance, "time", clock)
    result = acceptance.criterion_9()
    assert (result.passed, result.elapsed_s) == (True, 1000.0)


def test_criterion_02_perp_lines_oracle():
    result = _run(2)
    assert result.passed, result.details


def test_criterion_02_counts_each_size_once(monkeypatch):
    sizes = []

    def counting(weighted_tree, points, **kwargs):
        sizes.append(len(points))
        return count_embeddings(weighted_tree, points, **kwargs)

    for module in (acceptance, experiments):
        monkeypatch.setattr(module, "count_embeddings", counting)
    result = acceptance.criterion_2()
    assert result.passed, result.details
    assert sizes == [9, 12]


def test_criterion_03_lattice_unit_identity():
    result = _run(3)
    assert result.passed, result.details


def _perturbed(result, at=0, coordinate=-1):
    """The lattice with one coordinate of the dual point at position ``at``
    moved, the last by default, so that point is off its unit hyperplane."""
    points = list(result.f_points.points)
    f = list(points[at])
    f[coordinate] += Fraction(1, 10**6)
    points[at] = tuple(f)
    return _with_dual(result, points)


def _with_dual(result, points):
    """The lattice with its dual set replaced by ``points``."""
    return replace(result, f_points=PointSet(result.f_points.dim, tuple(points)))


def _appended(result):
    """The lattice with one dual point appended that has no recorded (c, b)."""
    extra = tuple(range(7, 7 + 2 * result.f_points.dim, 2))
    return _with_dual(result, result.f_points.points + (extra,))


def test_criterion_03_fails_on_a_perturbed_lattice(monkeypatch):
    # One x per prefix fails in each of the six lattices: q for d=2, q^2 for d=3.
    build = acceptance.build_unit_lattice
    monkeypatch.setattr(acceptance, "build_unit_lattice", lambda spec: _perturbed(build(spec)))
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.details == "5242 exact identity checks, 38 failures"


def test_criterion_03_fails_on_an_appended_dual_point(monkeypatch):
    # Each of the six lattices fails once, by the appended point's index.
    build = acceptance.build_unit_lattice
    monkeypatch.setattr(acceptance, "build_unit_lattice", lambda spec: _appended(build(spec)))
    result = acceptance.criterion_3()
    assert not result.passed
    assert result.details.endswith(" exact identity checks, 6 failures")


def test_unit_identity_fails_an_appended_dual_point():
    # (7, 9) has no (c, b) in the recorded ranges, so it fails by its index
    # alone, with no x; the eight recorded dual points all pass.
    lattice = build_unit_lattice(LatticeSpec(2, 2, mode="paper"))
    result = _appended(lattice)
    assert result.f_points.points[-1] == (7, 9)
    assert _unit_identity_failures(result.f_points, result.metadata) == [(8, None)]
    assert reference_unit_identity(result) == (16, 1)


def test_unit_identity_fails_a_dropped_dual_point():
    # Without the first dual point each later f meets the (c, b) of the one
    # before it: 13 of its 14 points fail, and the eighth (c, b), which no f
    # is left to meet, fails once by its index.
    lattice = build_unit_lattice(LatticeSpec(2, 2, mode="paper"))
    result = _with_dual(lattice, lattice.f_points.points[1:])
    failed = _unit_identity_failures(result.f_points, result.metadata)
    assert (len(failed), failed[-1]) == (14, (7, None))
    assert all(x is not None and dot(result.f_points.points[i], x) != 1 for i, x in failed[:-1])
    assert reference_unit_identity(result) == (14, 14)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("mode", ["paper", "calibrated"])
@pytest.mark.parametrize("part", [None, "point", "head"])
def test_unit_identity_integer_check_matches_fraction_reference(d, q, mode, part):
    lattice = build_unit_lattice(LatticeSpec(d, q, mode=mode))
    # The first, a middle and the last dual point, so every column position
    # of the check is reached; "point" moves the last coordinate, which every
    # x of the hyperplane meets in the last column, and "head" the first,
    # which it meets in the head columns.
    for at in (0, len(lattice.f_points) // 2, -1):
        result = lattice if part is None else _perturbed(lattice, at, {"point": -1, "head": 0}[part])
        failed = _unit_identity_failures(result.f_points, result.metadata)
        checks = len(result.f_points) * q ** (d - 1)
        assert (checks, len(failed)) == reference_unit_identity(result)
        assert len(failed) == (0 if part is None else q ** (d - 1))
        # Each failing pair names its dual point, f-major, and a point of
        # that dual point's hyperplane at which f . x is not 1.
        assert [i for i, _ in failed] == [at % len(result.f_points)] * len(failed)
        assert all(dot(result.f_points.points[i], x) != 1 for i, x in failed)


def test_criterion_04_lattice_unit_richness():
    result = _run(4)
    assert result.passed, result.details
    assert result.elapsed_s < 60.0


def test_criterion_04_reads_lattice_report_at_its_own_constant(monkeypatch):
    # The criterion passes 1/16 itself; raising the report's constant to 1
    # (pairs >= q^4) fails q=4..8 and shows every row.
    calls = []

    def report(d, qs, *, threshold_c):
        calls.append((d, qs, threshold_c))
        return lattice_report(d, qs, threshold_c=1)

    monkeypatch.setattr(acceptance, "lattice_report", report)
    result = acceptance.criterion_4()
    assert calls == [(2, (4, 5, 6, 7, 8), Fraction(1, 16))]
    assert not result.passed
    assert result.details == (
        "unit pairs below threshold: q=4:130 q=5:320 q=6:660 q=7:1233 q=8:2105"
    )


def test_criterion_05_distinct_dot_products():
    result = _run(5)
    assert result.passed, result.details


def test_criterion_06_pinned_grid_check():
    result = _run(6)
    assert result.passed, result.details


def test_criterion_06_counts_match_one_bound_check_per_pin(monkeypatch):
    # Criterion 6 bisects for the least passing size once per grid; checking
    # the bound on every pin's own pinned set must count the same pins.  The
    # grid pins all pass with room to spare, so one more set puts four pins
    # at exactly the least passing size, 4 at n=64, and one pin below it.
    at_threshold = point_set([(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)])
    sets = acceptance._grid_sets() + [(64, at_threshold)]
    monkeypatch.setattr(acceptance, "_grid_sets", lambda: sets)
    rows = []
    for n, points in sets:
        good = sum(
            meets_power_bound(len(pinned_set(p, points)), n, Fraction(2, 3), Fraction(1, 4))
            for p in points.points
        )
        rows.append(f"n={n}:{good}")
    assert rows[-1] == "n=64:4"
    result = acceptance.criterion_6()
    assert result.details == "good pins " + " ".join(rows) + " (fewer than n/2)"


def test_criterion_07_distinct_tuple_growth():
    result = _run(7)
    assert result.passed, result.details
    assert result.elapsed_s < 120.0


def test_criterion_08_proof_multigraph_invariants():
    result = _run(8)
    assert result.passed, result.details


def _nested_recount(ps):
    """Criterion 8's earlier recount: every pinned value, then a full rescan."""
    total = 0
    for p in ps.points:
        for alpha in pinned_set(p, ps):
            on_line = sum(1 for q in ps.points if dot(p, q) == alpha)
            if on_line >= 2:
                total += on_line - 1
    return total


@pytest.mark.parametrize("i", (0, 3, 9))
def test_criterion_08_grouped_recount_matches_nested(i):
    ps = random_point_set(14 + 2 * i, seed=101 + i, low=-25, high=25)
    assert _recount_edges(ps) == _nested_recount(ps)


def test_criterion_08_recount_with_zero_and_rational_products():
    ps = point_set([(1, 0), (0, 1), (2, 0), (1, 1), ("1/2", "-1/2"), ("-3/4", 2), (3, "1/3")])
    assert _recount_edges(ps) == _nested_recount(ps) > 0


def test_criterion_09_exponent_consistency():
    result = _run(9)
    assert result.passed, result.details


# The bytes of the full ``verify`` output and its --json report.
VERIFY_STDOUT_SHA256 = "09ba62e0c2aae26271a0f5c1270024eec652f72e2e909584c7c8fe7840504975"
VERIFY_JSON_SHA256 = "6229b16fb2968fb588db8d6672065f0f2d916d578d732d13962faaedda8bee16"


def test_criterion_10_verify_determinism(tmp_path):
    outputs = []
    for run in (1, 2):
        json_path = tmp_path / f"verify-{run}.json"
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["verify", "--json", str(json_path)])
        assert code == 0, buffer.getvalue()
        outputs.append((buffer.getvalue().encode(), json_path.read_bytes()))
    (stdout_1, json_1), (stdout_2, json_2) = outputs
    assert stdout_1 == stdout_2
    assert json_1 == json_2
    assert hashlib.sha256(stdout_1).hexdigest() == VERIFY_STDOUT_SHA256
    assert hashlib.sha256(json_1).hexdigest() == VERIFY_JSON_SHA256
    payload = json.loads(json_1)
    assert len(payload) == 9 and all(entry["passed"] for entry in payload)
    print("PASS 10 verify-determinism: byte-identical across two runs")
