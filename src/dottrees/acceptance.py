"""Self-contained acceptance checks.

Each criterion generates its own inputs, performs exact-oracle or explicit
constant-threshold checks at desk scale, and reports a deterministic result
line.  ``run_criteria`` drives them all; the CLI ``verify`` subcommand and the
test suite both call into this module.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, ne, or_

from .bounds import (
    distinct_tuples_exponent,
    main_exponents_consistent,
    max_copies_exponent,
    meets_power_bound,
)
from .constructions import (
    LatticeResult,
    LatticeSpec,
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
    incidences,
    proof_multigraph,
    radial_histogram,
)
from .experiments import perplines_report
from .geometry import PointSet, _dots, _scaled, integer_grid, point_set, random_point_set
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


def _grid_sets() -> list[tuple[int, PointSet]]:
    return [(side * side, integer_grid(side)) for side in (8, 10, 12, 14)]


def criterion_1() -> CriterionResult:
    """Column construction: engine count equals the predicted product exactly."""
    start = time.perf_counter()
    cases = []
    trees = [
        ("path-2", make_path(2)),
        ("path-3", make_path(3)),
        ("star-3", make_star(3)),
        ("binary-1", make_perfect_binary(1)),
    ]
    good = 0
    for label, tree in trees:
        bip = bipartition(tree)
        for n in (8, 12, 16, 20):
            result = build_column_construction(tree, n)
            counted = count_embeddings(result.weighted_tree, result.points)
            formula = ((n - bip.k2) // bip.k1) ** bip.k1
            ok = counted == result.predicted_count == formula
            good += ok
            cases.append(ok)
    elapsed = time.perf_counter() - start
    passed = all(cases) and elapsed < 60.0
    details = f"{good}/{len(cases)} construction counts exact"
    return CriterionResult(1, "column-construction-oracle", passed, details, elapsed)


def criterion_2() -> CriterionResult:
    """Perpendicular-lines construction counts, plus the scaling-note flag."""
    start = time.perf_counter()
    tree = make_path(2)
    ok_counts = []
    flagged = True
    for n, expected in ((9, 27), (12, 64)):
        result = build_perp_lines_3d(tree, n)
        counted = count_embeddings(result.weighted_tree, result.points)
        formula = (n // 3) ** 3
        ok_counts.append(counted == expected == formula == result.predicted_count)
        meta = result.metadata
        flagged = flagged and (
            meta.get("nominal_exponent") == 2
            and meta.get("realized_exponent") == 3
            and bool(meta.get("scaling_note"))
        )
    report = perplines_report(tree, (9, 12), tree_label="path-2")
    flagged = flagged and any("realized exponent" in note for note in report["notes"])
    elapsed = time.perf_counter() - start
    passed = all(ok_counts) and flagged and report["pass"]
    details = (
        f"counts {'exact' if all(ok_counts) else 'WRONG'} for n=9,12; "
        f"exponent discrepancy {'flagged' if flagged else 'MISSING'}"
    )
    return CriterionResult(2, "perp-lines-oracle", passed, details, elapsed)


def _unit_identity_failures(result: LatticeResult) -> tuple[int, int]:
    """(checks, failures) of f.x = 1 and plane.normal.x = plane.value, with
    (c, b) from the recorded numerator ranges in the builder's order, not
    from f.  Every x is X/L for integers X and L = lcm(da^2, db).  One prefix
    x' at a time, every dual point is checked at once over columns: the last
    coordinates c . x' + b, then F . X and N . X; a pair fails when either
    identity does."""
    meta = result.metadata
    a_lo, a_hi = meta["a_numerators"]
    b_lo, b_hi = meta["f_b_numerators"]
    da, db = meta["a_denominator"], meta["b_denominator"]
    scale = math.lcm(da * da, db)
    prefixes = list(itertools.product(range(a_lo, a_hi + 1), repeat=meta["dim"] - 1))
    params = itertools.product(prefixes, range(b_lo, b_hi + 1))
    f_ints, f_scale = _scaled(result.f_points.points)
    n_ints, n_scale = _scaled([plane.normal for plane in result.hyperplanes])
    f_ints, n_ints, planes, params = zip(*zip(f_ints, n_ints, result.hyperplanes, params))
    *f_cols, f_last = zip(*f_ints)
    *n_cols, n_last = zip(*n_ints)
    gamma_beta = list(zip(*(gamma + (beta,) for gamma, beta in params)))
    dens = [plane.value.denominator for plane in planes]
    values = [plane.value.numerator * n_scale * scale for plane in planes]
    kc, kb = scale // (da * da), scale // db
    failures = 0
    for xi in prefixes:
        head = tuple(v * (scale // da) for v in xi)
        lasts = list(_dots(tuple(v * kc for v in xi) + (kb,), gamma_beta))
        fx = map(add, _dots(head, f_cols), map(mul, f_last, lasts))
        nx = map(add, _dots(head, n_cols), map(mul, n_last, lasts))
        failures += sum(map(or_, map(ne, fx, itertools.repeat(f_scale * scale)),
                            map(ne, map(mul, nx, dens), values)))
    return len(planes) * len(prefixes), failures


def criterion_3() -> CriterionResult:
    """Unit identity f.x = 1 exactly, for every hyperplane and lattice slice."""
    start = time.perf_counter()
    checks, failures = map(sum, zip(*(
        _unit_identity_failures(build_unit_lattice(LatticeSpec(d, q, mode="paper")))
        for d in (2, 3) for q in (2, 3, 4)
    )))
    elapsed = time.perf_counter() - start
    passed = failures == 0
    details = f"{checks} exact identity checks, {failures} failures"
    return CriterionResult(3, "lattice-unit-identity", passed, details, elapsed)


def criterion_4() -> CriterionResult:
    """Calibrated lattice richness: unit pairs >= q^4/16, counted as incidences."""
    start = time.perf_counter()
    rows = []
    all_ok = True
    for q in (4, 5, 6, 7, 8):
        result = build_unit_lattice(LatticeSpec(2, q, mode="calibrated"))
        pairs = incidences(result.e_points, result.hyperplanes)
        ok = 16 * pairs >= q**4
        all_ok = all_ok and ok
        rows.append(f"q={q}:{pairs}")
    elapsed = time.perf_counter() - start
    passed = all_ok and elapsed < 60.0
    details = "unit pairs " + " ".join(rows) + " all >= q^4/16" if all_ok else (
        "unit pairs below threshold: " + " ".join(rows)
    )
    return CriterionResult(4, "lattice-unit-richness", passed, details, elapsed)


def criterion_5() -> CriterionResult:
    """Distinct nonzero dot products on shifted grids: >= n^(2/3)/4."""
    start = time.perf_counter()
    rows = []
    all_ok = True
    for n, grid in _grid_sets():
        summary = distinct_dot_products(grid)
        ok = meets_power_bound(summary.distinct, n, Fraction(2, 3), Fraction(1, 4))
        all_ok = all_ok and ok
        rows.append(f"n={n}:{summary.distinct}")
    elapsed = time.perf_counter() - start
    details = "distinct " + " ".join(rows)
    if not all_ok:
        details += " (below n^(2/3)/4)"
    return CriterionResult(5, "distinct-dot-products", all_ok, details, elapsed)


def criterion_6() -> CriterionResult:
    """At least half the grid points pin n^(2/3)/4 distinct dot products."""
    start = time.perf_counter()
    rows = []
    all_ok = True
    for n, grid in _grid_sets():
        # The bound is monotone in the size: bisect for its smallest passing
        # size once, then count the pins at or above it.
        least = bisect.bisect_left(
            range(n + 1), True,
            key=lambda size: meets_power_bound(size, n, Fraction(2, 3), Fraction(1, 4)),
        )
        good = sum(size >= least for size in _pinned_sizes(DotProductIndex(grid)))
        ok = good >= math.ceil(n / 2)
        all_ok = all_ok and ok
        rows.append(f"n={n}:{good}")
    elapsed = time.perf_counter() - start
    details = "good pins " + " ".join(rows)
    if not all_ok:
        details += " (fewer than n/2)"
    return CriterionResult(6, "pinned-grid-check", all_ok, details, elapsed)


def criterion_7() -> CriterionResult:
    """Distinct weight 2-tuples of the 2-path on the n=100 grid."""
    start = time.perf_counter()
    grid = integer_grid(10)
    n = 100
    count = distinct_weight_tuples(make_path(2), grid)
    ok = meets_power_bound(count, n, distinct_tuples_exponent(2), Fraction(1, 8))
    elapsed = time.perf_counter() - start
    passed = ok and elapsed < 120.0
    details = f"{count} distinct 2-tuples on the n=100 grid"
    if not ok:
        details += " (below n^(4/3)/8)"
    return CriterionResult(7, "distinct-tuple-growth", passed, details, elapsed)


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


def criterion_8() -> CriterionResult:
    """Proof multigraph invariants on the worked example and 20 seeded sets."""
    start = time.perf_counter()
    problems: list[str] = []

    worked = point_set([(1, 0), (2, 0), (1, 1)])
    stats = proof_multigraph(worked)
    if (stats.vertices, stats.edges, stats.max_multiplicity, stats.drawing_crossings) != (
        3,
        3,
        2,
        0,
    ):
        problems.append("worked-example")

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
    elapsed = time.perf_counter() - start
    passed = not problems
    details = (
        "worked example and 20 seeded sets consistent"
        if passed
        else "failures: " + ",".join(problems)
    )
    return CriterionResult(8, "proof-multigraph-invariants", passed, details, elapsed)


def criterion_9() -> CriterionResult:
    """Exponent formula consistency, exact."""
    start = time.perf_counter()
    ok = main_exponents_consistent() and max_copies_exponent(2, 2) == Fraction(2)
    elapsed = time.perf_counter() - start
    details = "exponent identities exact" if ok else "exponent identity broken"
    return CriterionResult(9, "exponent-consistency", ok, details, elapsed)


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
