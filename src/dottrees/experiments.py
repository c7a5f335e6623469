"""Experiment drivers wiring generators, counters, and comparison reports."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .bounds import column_exponent, compare_report, lattice_exponent
from .constructions import (
    PERP_LINES_SCALING_NOTE,
    LatticeSpec,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from .counting import count_embeddings, incidences
from .geometry import AlphaHyperplane
from .trees import Tree

__all__ = [
    "columns_report",
    "perplines_report",
    "lattice_report",
]


def _construction_report(
    experiment, build, d, tree, ns, exponent, *, tree_label, threshold_c, notes=()
) -> dict:
    """Build each size, count its embeddings, and check them against the
    construction's exact predicted count and the power bound n^exponent."""
    runs = []
    for n in ns:
        result = build(tree, n)
        counted = count_embeddings(result.weighted_tree, result.points)
        runs.append((n, counted, result.predicted_count))
    return compare_report(
        experiment, {"k": tree.num_edges, "d": d, "tree": tree_label}, runs, exponent,
        threshold_c=threshold_c, notes=notes,
    )


def columns_report(
    tree: Tree,
    ns: Sequence[int],
    *,
    tree_label: str,
    threshold_c: Fraction | int = Fraction(1, 8),
) -> dict:
    """Column-construction counts against the ceil((k+1)/2) exponent.

    Each run must also count exactly its predicted product, which is the
    construction's oracle-equivalence check.
    """
    return _construction_report(
        "columns", build_column_construction, 2, tree, ns,
        column_exponent(tree.num_edges), tree_label=tree_label, threshold_c=threshold_c,
    )


def perplines_report(
    tree: Tree,
    ns: Sequence[int],
    *,
    tree_label: str,
    threshold_c: Fraction | int = Fraction(1, 8),
) -> dict:
    """Perpendicular-lines counts against the nominal n^k claim.

    The construction genuinely realizes exponent k+1; the notes carry that
    discrepancy so it is surfaced, not silently resolved.
    """
    k = tree.num_edges
    return _construction_report(
        "perp-lines-3d", build_perp_lines_3d, 3, tree, ns, Fraction(k),
        tree_label=tree_label, threshold_c=threshold_c,
        notes=(PERP_LINES_SCALING_NOTE, f"nominal exponent {k}, realized exponent {k + 1}"),
    )


def lattice_report(
    d: int,
    qs: Sequence[int],
    *,
    threshold_c: Fraction | int = Fraction(1, 16),
) -> dict:
    """Unit-pair counts of the lattice/dual pair against N^(2d/(d+1)).

    A unit pair (e, f), a copy of the one-edge tree, is a point-hyperplane
    incidence of e with the hyperplane f.x = 1.  N is the size of each side
    (q^(d+1)); for the plane the exponent is 4/3, the tight point-line
    incidence shape.  The lattices are calibrated: the paper's printed ranges
    put no lattice point of the plane on any hyperplane.
    """
    runs = []
    for q in qs:
        result = build_unit_lattice(LatticeSpec(d, q))
        planes = [AlphaHyperplane(f, 1) for f in result.f_points.points]
        pairs = incidences(result.e_points, planes)
        runs.append((len(result.e_points), pairs, None))
    return compare_report(
        "unit-lattice", {"d": d, "mode": "calibrated"}, runs, lattice_exponent(1, d),
        threshold_c=threshold_c,
    )
