"""Self-contained acceptance checks.

Each criterion generates its own inputs, performs exact-oracle or explicit
constant-threshold checks at desk scale, and reports a deterministic result
line.  Each check body returns ``(passed, details)``; one decorator,
``_criterion``, times it, applies its time limit and builds the result.
Criteria 2 and 4 read their counts from the report drivers
``perplines_report`` and ``lattice_report``; criterion 3 counts the failures
of the builder's own check, ``constructions._unit_identity_failures``.
``run_criteria`` drives them all; the CLI ``verify`` subcommand and the test
suite both call into this module.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .bounds import (
    distinct_tuples_exponent,
    main_exponents_consistent,
    max_copies_exponent,
    meets_power_bound,
    pinned_exponent,
)
from .constructions import (
    LatticeSpec,
    _unit_identity_failures,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from .counting import (
    DotProductIndex,
    _pinned_sizes,
    count_embeddings,
    distinct_dot_products,
    distinct_weight_tuples,
    proof_multigraph,
    radial_histogram,
)
from .experiments import lattice_report, perplines_report
from .geometry import PointSet, _scaled, integer_grid, point_set, random_point_set
from .trees import bipartition, make_path, make_perfect_binary, make_star

__all__ = ["CriterionResult", "run_criteria", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.number:>2} {self.name}: {self.details}"


def _criterion(number: int, name: str, limit_s: float = math.inf):
    """Decorate a check body, which returns ``(passed, details)``, into
    criterion ``number``: the wrapper times the body, fails it when it takes
    ``limit_s`` seconds or more, and builds the ``CriterionResult``."""
    def wrap(body):
        @functools.wraps(body)
        def criterion() -> CriterionResult:
            start = time.perf_counter()
            passed, details = body()
            elapsed = time.perf_counter() - start
            return CriterionResult(number, name, passed and elapsed < limit_s, details, elapsed)
        return criterion
    return wrap


def _grid_sets() -> list[tuple[int, PointSet]]:
    return [(side * side, integer_grid(side)) for side in (8, 10, 12, 14)]


@_criterion(1, "column-construction-oracle", limit_s=60.0)
def criterion_1():
    """Column construction: engine count equals the predicted product exactly."""
    cases = []
    for tree in (make_path(2), make_path(3), make_star(3), make_perfect_binary(1)):
        u, v = bipartition(tree)
        for n in (8, 12, 16, 20):
            result = build_column_construction(tree, n)
            counted = count_embeddings(result.weighted_tree, result.points)
            formula = ((n - len(v)) // len(u)) ** len(u)
            cases.append(counted == result.predicted_count == formula)
    return all(cases), f"{sum(cases)}/{len(cases)} construction counts exact"


@_criterion(2, "perp-lines-oracle")
def criterion_2():
    """Perpendicular-lines counts, read from ``perplines_report``, plus the
    scaling-note flag on each build's metadata."""
    tree = make_path(2)
    flagged = True
    for n in (9, 12):
        meta = build_perp_lines_3d(tree, n).metadata
        flagged = flagged and (
            meta.get("nominal_exponent") == 2
            and meta.get("realized_exponent") == 3
            and bool(meta.get("scaling_note"))
        )
    report = perplines_report(tree, (9, 12), tree_label="path-2")
    flagged = flagged and any("realized exponent" in note for note in report["notes"])
    # Each count equals 27, 64, floor(n/3)^3 and, by equal_ok, the prediction.
    exact = all(
        check["count"] == expected == (check["n"] // 3) ** 3 and check["equal_ok"]
        for check, expected in zip(report["checks"], (27, 64))
    )
    details = (
        f"counts {'exact' if exact else 'WRONG'} for n=9,12; "
        f"exponent discrepancy {'flagged' if flagged else 'MISSING'}"
    )
    return exact and flagged and report["pass"], details


@_criterion(3, "lattice-unit-identity")
def criterion_3():
    """Unit identity f.x = 1 exactly, for every hyperplane and lattice slice,
    rechecked by the builder's own routine: len(F) q^(d-1) pairs a lattice."""
    checks = failures = 0
    for d in (2, 3):
        for q in (2, 3, 4):
            lattice = build_unit_lattice(LatticeSpec(d, q, mode="paper"))
            checks += len(lattice.f_points) * q ** (d - 1)
            failures += len(_unit_identity_failures(lattice.f_points, lattice.metadata))
    return failures == 0, f"{checks} exact identity checks, {failures} failures"


@_criterion(4, "lattice-unit-richness", limit_s=60.0)
def criterion_4():
    """Calibrated lattice richness: unit pairs >= q^4/16, counted as incidences.

    With N = q^3 points a side, ``lattice_report``'s bound N^(4/3)/16 is
    exactly q^4/16; the constant is passed, not left to the default."""
    qs = (4, 5, 6, 7, 8)
    report = lattice_report(2, qs, threshold_c=Fraction(1, 16))
    rows = " ".join(f"q={q}:{check['count']}" for q, check in zip(qs, report["checks"]))
    if report["pass"]:
        return True, f"unit pairs {rows} all >= q^4/16"
    return False, f"unit pairs below threshold: {rows}"


@_criterion(5, "distinct-dot-products")
def criterion_5():
    """Distinct nonzero dot products on shifted grids: >= n^(2/3)/4."""
    rows = []
    all_ok = True
    for n, grid in _grid_sets():
        summary = distinct_dot_products(grid)
        ok = meets_power_bound(summary.distinct, n, Fraction(2, 3), Fraction(1, 4))
        all_ok = all_ok and ok
        rows.append(f"n={n}:{summary.distinct}")
    details = "distinct " + " ".join(rows)
    if not all_ok:
        details += " (below n^(2/3)/4)"
    return all_ok, details


@_criterion(6, "pinned-grid-check")
def criterion_6():
    """At least half the grid points pin n^(2/3)/4 distinct dot products."""
    rows = []
    all_ok = True
    for n, grid in _grid_sets():
        # The bound is monotone in the size: bisect for its smallest passing
        # size once, then count the pins at or above it.
        least = bisect.bisect_left(
            range(n + 1), True,
            key=lambda size: meets_power_bound(size, n, pinned_exponent(2), Fraction(1, 4)),
        )
        good = sum(size >= least for size in _pinned_sizes(DotProductIndex(grid)))
        ok = good >= math.ceil(n / 2)
        all_ok = all_ok and ok
        rows.append(f"n={n}:{good}")
    details = "good pins " + " ".join(rows)
    if not all_ok:
        details += " (fewer than n/2)"
    return all_ok, details


@_criterion(7, "distinct-tuple-growth", limit_s=120.0)
def criterion_7():
    """Distinct weight 2-tuples of the 2-path on the n=100 grid."""
    count = distinct_weight_tuples(make_path(2), integer_grid(10))
    ok = meets_power_bound(count, 100, distinct_tuples_exponent(2), Fraction(1, 8))
    details = f"{count} distinct 2-tuples on the n=100 grid"
    if not ok:
        details += " (below n^(4/3)/8)"
    return ok, details


def _recount_edges(points: PointSet) -> int:
    """The proof multigraph's edge count, recounted without engine code.

    For a pin p and a value a, the ``count`` points q with p.q = a lie on one
    line and give ``count - 1`` consecutive pairs.  Zero is excluded, as the
    engine does by default.  Products are grouped on ``_scaled``'s integers,
    not on the cached ``PointSet.scaled``, so no code is shared with the table.
    """
    ints, _ = _scaled(points.points)
    total = 0
    for p in ints:
        on_line = Counter(sum(map(mul, p, q)) for q in ints)
        on_line.pop(0, None)
        total += sum(count - 1 for count in on_line.values())
    return total


@_criterion(8, "proof-multigraph-invariants")
def criterion_8():
    """Proof multigraph invariants on the worked example and 20 seeded sets."""
    stats = proof_multigraph(point_set([(1, 0), (2, 0), (1, 1)]))
    worked = (stats.vertices, stats.edges, stats.max_multiplicity, stats.drawing_crossings)
    problems = [] if worked == (3, 3, 2, 0) else ["worked-example"]
    for i in range(20):
        n = 14 + 2 * i
        ps = random_point_set(n, seed=101 + i, low=-25, high=25)
        st = proof_multigraph(ps)
        if st.edges != _recount_edges(ps):
            problems.append(f"seed{101 + i}-edges")
        if radial_histogram(ps).max_count == 1 and st.edges >= 1 and st.max_multiplicity != 1:
            problems.append(f"seed{101 + i}-multiplicity")
        if st.drawing_crossings > n * n * st.max_pinned_size**2:
            problems.append(f"seed{101 + i}-crossings")
        if not st.crossing_bound_ok:
            problems.append(f"seed{101 + i}-bound")
    if problems:
        return False, "failures: " + ",".join(problems)
    return True, "worked example and 20 seeded sets consistent"


@_criterion(9, "exponent-consistency")
def criterion_9():
    """Exponent formula consistency, exact."""
    ok = main_exponents_consistent() and max_copies_exponent(2, 2) == Fraction(2)
    return ok, "exponent identities exact" if ok else "exponent identity broken"


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_criteria(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (all nine by default) and collect results."""
    selected = numbers if numbers is not None else range(1, len(CRITERIA) + 1)
    results = []
    for number in selected:
        if not 1 <= number <= len(CRITERIA):
            raise ValueError(f"no criterion {number}")
        results.append(CRITERIA[number - 1]())
    return results
