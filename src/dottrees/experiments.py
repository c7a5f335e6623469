"""Experiment drivers wiring generators, counters, and comparison reports."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .bounds import column_exponent, compare_report
from .constructions import (
    LatticeSpec,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from .counting import count_embeddings, incidences
from .trees import Tree

__all__ = [
    "columns_report",
    "perplines_report",
    "lattice_report",
]


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
    runs = []
    for n in ns:
        result = build_column_construction(tree, n)
        counted = count_embeddings(result.weighted_tree, result.points)
        runs.append(
            {
                "params": {"n": n, "k": tree.num_edges, "d": 2, "tree": tree_label},
                "counts": {"embeddings": counted, "predicted": result.predicted_count},
            }
        )
    return compare_report(
        "columns",
        runs,
        column_exponent(tree.num_edges),
        count_key="embeddings",
        threshold_c=threshold_c,
        expect_equal=("embeddings", "predicted"),
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
    runs = []
    notes: list[str] = []
    for n in ns:
        result = build_perp_lines_3d(tree, n)
        counted = count_embeddings(result.weighted_tree, result.points)
        runs.append(
            {
                "params": {"n": n, "k": tree.num_edges, "d": 3, "tree": tree_label},
                "counts": {"embeddings": counted, "predicted": result.predicted_count},
            }
        )
        note = result.metadata["scaling_note"]
        if note not in notes:
            notes.append(note)
    k = tree.num_edges
    notes.append(f"nominal exponent {k}, realized exponent {k + 1}")
    return compare_report(
        "perp-lines-3d",
        runs,
        Fraction(k),
        count_key="embeddings",
        threshold_c=threshold_c,
        expect_equal=("embeddings", "predicted"),
        notes=notes,
    )


def lattice_report(
    d: int,
    qs: Sequence[int],
    *,
    threshold_c: Fraction | int = Fraction(1, 16),
) -> dict:
    """Unit-pair counts of the lattice/dual pair against N^(2d/(d+1)).

    A unit pair (e, f) is a point-hyperplane incidence of e with the
    hyperplane f.x = 1.  N is the size of each side (q^(d+1)); for the plane
    the exponent is 4/3, the tight point-line incidence shape.  The lattices
    are calibrated: the paper's printed ranges put no lattice point of the
    plane on any hyperplane.
    """
    runs = []
    for q in qs:
        result = build_unit_lattice(LatticeSpec(d, q))
        pairs = incidences(result.e_points, result.hyperplanes)
        runs.append(
            {
                "params": {"n": len(result.e_points), "d": d, "q": q, "mode": "calibrated"},
                "counts": {"unit_pairs": pairs},
            }
        )
    return compare_report(
        "unit-lattice",
        runs,
        Fraction(2 * d, d + 1),
        count_key="unit_pairs",
        threshold_c=threshold_c,
        varying=("n", "q"),
    )
