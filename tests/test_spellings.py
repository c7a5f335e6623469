"""One point set, spelled three ways, gives identical results.

A scalar is an int when integral and a Fraction otherwise, but callers may
pass either type, and a ``.pts`` file may write an integer as an unreduced
fraction.  The three spellings of one set: int coordinates, ``Fraction``
coordinates given straight to ``PointSet``, and ``.pts`` text with every
coordinate c written as ``3c/3``.
"""

from fractions import Fraction as Q
from io import StringIO

import pytest

from dottrees import (
    PointSet,
    alpha_hyperplane,
    build_column_construction,
    build_perp_lines_3d,
    count_embeddings,
    distinct_weight_tuples,
    format_point_set,
    format_scalar,
    hyperplane_descent,
    incidences,
    make_path,
    max_pinned,
    proof_multigraph,
    radial_histogram,
    read_point_set,
)
from oracles import engine_weight_tuples


def spellings(points: PointSet) -> list[PointSet]:
    as_fractions = PointSet(points.dim, tuple(tuple(map(Q, p)) for p in points.points))
    text = f"d {points.dim}\n" + "".join(
        " ".join(f"{3 * c}/3" for c in p) + "\n" for p in points.points
    )
    return [points, as_fractions, read_point_set(StringIO(text))]


COLUMNS = build_column_construction(make_path(2), 12)
PERP = build_perp_lines_3d(make_path(2), 12)


def test_parsed_spelling_is_ints():
    ints, as_fractions, parsed = spellings(COLUMNS.points)
    assert all(type(c) is int for p in ints.points for c in p)
    assert all(type(c) is Q for p in as_fractions.points for c in p)
    assert all(type(c) is int for p in parsed.points for c in p)
    assert ints == as_fractions == parsed
    assert format_point_set(ints) == format_point_set(as_fractions) == format_point_set(parsed)


def planar_results(points: PointSet):
    wt = COLUMNS.weighted_tree
    planes = [alpha_hyperplane(p, 6) for p in points.points[:4]]
    pin, size = max_pinned(points)
    return (
        count_embeddings(wt, points),
        distinct_weight_tuples(make_path(2), points),
        engine_weight_tuples(make_path(2), points),
        proof_multigraph(points),
        ([format_scalar(c) for c in pin], size),
        incidences(points, planes),
        radial_histogram(points),
    )


def test_planar_results_identical():
    first, *others = map(planar_results, spellings(COLUMNS.points))
    assert first[0] == COLUMNS.predicted_count
    for other in others:
        assert other == first


def test_descent_identical():
    traces = [hyperplane_descent(points) for points in spellings(PERP.points)]
    assert traces[0].levels
    assert traces[1] == traces[0] and traces[2] == traces[0]
    pins = [[format_scalar(c) for c in trace.final_pin] for trace in traces]
    assert pins[1] == pins[0] and pins[2] == pins[0]


def test_duplicate_across_types_rejected():
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointSet(2, ((2, 1), (Q(2), 1)))
