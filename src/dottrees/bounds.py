"""Exponent formulas, exact power-bound checks, and log-log fitting.

The exponent formulas are exact rationals, and the checks take their inputs
as coordinates are taken (``geometry._coerce``), so a float is a
``ValueError``.  Fitting is the one place in the package where floating
point is allowed, and it stays confined to reporting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .geometry import _check_ints, _coerce

__all__ = [
    "distinct_tuples_exponent",
    "pinned_exponent",
    "column_exponent",
    "lattice_exponent",
    "binary_tree_upper_exponent",
    "max_copies_exponent",
    "main_exponents_consistent",
    "meets_power_bound",
    "loglog_fit",
    "compare_report",
    "format_report_table",
]


def _require_k(k: int) -> None:
    _check_ints(k=k)
    if k < 1:
        raise ValueError("k must be at least 1")


def distinct_tuples_exponent(k: int) -> Fraction:
    """Lower-bound exponent 2k/3 for distinct weight k-tuples in the plane."""
    _require_k(k)
    return Fraction(2 * k, 3)


def pinned_exponent(d: int) -> Fraction:
    """Pinned dot-product exponent 2/(2d-1) in dimension d."""
    _check_ints(dimension=d)
    return Fraction(2, 2 * d - 1)


def column_exponent(k: int) -> Fraction:
    """Copy-count exponent ceil((k+1)/2) realized by the column construction."""
    _require_k(k)
    return Fraction(math.ceil(Fraction(k + 1, 2)))


def lattice_exponent(k: int, d: int) -> Fraction:
    """Copy-count exponent 1 + k(d-1)/(d+1) realized by the unit lattice."""
    _require_k(k)
    _check_ints(dimension=d)
    return 1 + Fraction(k * (d - 1), d + 1)


def binary_tree_upper_exponent(h: int) -> Fraction:
    """Upper-bound exponent 2^h for copies of a perfect binary tree of height h."""
    _check_ints(h=h)
    if h < 0:
        raise ValueError("height must be nonnegative")
    return Fraction(2**h)


def max_copies_exponent(k: int, d: int) -> Fraction:
    """Best known copy-count exponent: the larger of the two constructions."""
    return max(lattice_exponent(k, d), column_exponent(k))


def main_exponents_consistent() -> bool:
    """Exact consistency identities between the exponent formulas.

    The planar case of the pinned exponent must be 2/3, and the column
    exponent for a perfect binary tree of height h = 1..6 (k = 2^(h+1) - 2
    edges) must equal the binary-tree upper-bound exponent 2^h.
    """
    if pinned_exponent(2) != Fraction(2, 3):
        return False
    for h in range(1, 7):
        k = 2 ** (h + 1) - 2
        if column_exponent(k) != binary_tree_upper_exponent(h):
            return False
    return True


def meets_power_bound(value, n: int, exponent: Fraction, c: Fraction | int = 1) -> bool:
    """Exact check of ``value >= c * n**exponent`` for rational exponent and c."""
    value, n, exponent, c = map(_coerce, (value, n, exponent, c))
    if n < 1:
        raise ValueError("n must be positive")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("threshold must be positive")
    exponent = Fraction(exponent)
    value = Fraction(value)
    if value < 0:
        return False
    b = exponent.denominator
    # value >= c * n^(a/b)  <=>  (value/c)^b >= n^a, all quantities positive.
    return (value / c) ** b >= Fraction(n) ** exponent.numerator


def loglog_fit(series: Sequence[tuple[int, int]]) -> float:
    """Least-squares slope of log(count) against log(n) over (n, count) pairs.

    Needs at least three points with distinct n and positive counts.
    """
    for n, c in series:
        _check_ints(n=n, count=c)
    if len({n for n, _ in series}) < 3:
        raise ValueError("need at least three distinct n values")
    for n, c in series:
        if n <= 0 or c <= 0:
            raise ValueError("n and count must be positive")
    xs = [math.log(n) for n, _ in series]
    ys = [math.log(c) for _, c in series]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def compare_report(
    experiment: str,
    params: Mapping,
    runs: Sequence[tuple[int, int, int | None]],
    exponent: Fraction,
    *,
    threshold_c: Fraction | int = Fraction(1, 8),
    notes: Sequence[str] = (),
) -> dict:
    """Side-by-side comparison of empirical counts against a predicted exponent.

    ``params`` are the parameters every run shares; each run is an
    ``(n, count, predicted)`` triple, ``predicted`` None when there is no
    exact prediction.  A run passes when count >= threshold_c * n**exponent
    (checked exactly) and, if ``predicted`` is given, when count equals it.
    The log-log fit slope is reported when at least three distinct n are
    present.
    """
    if not runs:
        raise ValueError("no runs to compare")
    threshold_c = Fraction(_coerce(threshold_c))
    exponent = Fraction(_coerce(exponent))
    checks = []
    for n, count, predicted in runs:
        _check_ints(n=n, count=count)
        if predicted is not None:
            _check_ints(predicted=predicted)
        bound_ok = meets_power_bound(count, n, exponent, threshold_c)
        equal_ok = None if predicted is None else count == predicted
        checks.append({"n": n, "count": count, "bound_ok": bound_ok, "equal_ok": equal_ok})
    series = [(check["n"], check["count"]) for check in checks]
    fit_slope = None
    if len({n for n, _ in series}) >= 3 and all(c > 0 for _, c in series):
        fit_slope = loglog_fit(series)
    return {
        "experiment": experiment,
        "params": {**params, "n": [n for n, _ in series]},
        "empirical": [[n, c] for n, c in series],
        "predicted_exponent": str(exponent),
        "fit_slope": fit_slope,
        "threshold_c": str(threshold_c),
        "checks": checks,
        "notes": list(notes),
        "pass": all(ch["bound_ok"] and ch["equal_ok"] is not False for ch in checks),
    }


def format_report_table(report: Mapping) -> str:
    """Aligned text rendering of a comparison report."""
    lines = [f"experiment: {report['experiment']}"]
    params = report.get("params", {})
    fixed = {key: value for key, value in params.items() if key != "n"}
    if fixed:
        lines.append(
            "params:     "
            + ", ".join(f"{key}={value}" for key, value in sorted(fixed.items()))
        )
    lines.append(
        f"predicted exponent {report['predicted_exponent']}, "
        f"threshold c = {report['threshold_c']}"
    )
    header = f"{'n':>8}  {'count':>14}  {'bound':>6}  {'equal':>6}"
    lines.append(header)
    for check in report["checks"]:
        equal = "-" if check["equal_ok"] is None else ("ok" if check["equal_ok"] else "FAIL")
        bound = "ok" if check["bound_ok"] else "FAIL"
        lines.append(
            f"{check['n']:>8}  {check['count']:>14}  {bound:>6}  {equal:>6}"
        )
    if report.get("fit_slope") is not None:
        lines.append(f"fit slope: {report['fit_slope']:.4f}")
    for note in report.get("notes", ()):
        lines.append(f"note: {note}")
    lines.append("PASS" if report["pass"] else "FAIL")
    return "\n".join(lines) + "\n"
