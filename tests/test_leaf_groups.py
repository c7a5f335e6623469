"""The search kernels against the reference enumerators, and their depth.

``count_embeddings``, ``distinct_weight_tuples`` and ``pinned_weight_tuples``
count the leaves of one vertex by value class instead of placing them point
by point.  The hypothesis tests compare them with ``oracles.reference_*``,
which place every vertex, on point sets with mixed denominators and negative
coordinates.  The depth tests run both kernels with the recursion limit just
above the caller's frame depth, which a search recursing once per vertex
would exceed.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dottrees import (
    PointSet,
    WeightedTree,
    count_embeddings,
    distinct_weight_tuples,
    dot,
    make_path,
    make_perfect_binary,
    make_star,
    pinned_weight_tuples,
)
from dottrees.constructions import build_column_construction
from dottrees.trees import Tree
from oracles import (
    engine_weight_tuples,
    reference_count_embeddings,
    reference_weight_tuples,
    tree_from_edges,
)

DENOMINATORS = (1, 2, 3, 4, 6)


@st.composite
def point_sets(draw, max_size=7):
    dim = draw(st.sampled_from((2, 3)))
    coord = st.builds(Q, st.integers(-3, 3), st.sampled_from(DENOMINATORS))
    points = draw(
        st.lists(st.tuples(*[coord] * dim), min_size=2, max_size=max_size, unique=True)
    )
    return PointSet(dim, tuple(points))


def caterpillar(legs: list[int]) -> Tree:
    """A path on len(legs) spine vertices, spine vertex i carrying legs[i] leaves."""
    edges = [(i, i + 1) for i in range(1, len(legs))]
    label = len(legs)
    for i, count in enumerate(legs, 1):
        for _ in range(count):
            label += 1
            edges.append((i, label))
    return tree_from_edges(label, edges)


@st.composite
def trees(draw, max_edges=4):
    kind = draw(st.sampled_from(["path", "star", "caterpillar", "binary", "random"]))
    if kind == "path":
        return make_path(draw(st.integers(1, max_edges)))
    if kind == "star":
        return make_star(draw(st.integers(1, max_edges)))
    if kind == "binary":
        return make_perfect_binary(1)
    if kind == "caterpillar":
        legs = draw(st.lists(st.integers(0, 2), min_size=2, max_size=3))
        if sum(legs) + len(legs) - 1 > max_edges + 1:  # too many edges to enumerate
            legs = [1] * len(legs)
        return caterpillar(legs)
    k = draw(st.integers(1, max_edges))
    parents = [draw(st.integers(1, v - 1)) for v in range(2, k + 2)]
    labels = draw(st.permutations(range(1, k + 2)))
    return tree_from_edges(
        k + 1, [(labels[p - 1], labels[v - 1]) for v, p in zip(range(2, k + 2), parents)]
    )


@st.composite
def weighted(draw):
    """A tree, a point set, and weights: either those of one injective map,
    or drawn from the set's dot products, so weights repeat and counts vary."""
    tree = draw(trees())
    points = draw(point_sets())
    if draw(st.booleans()) and tree.num_vertices <= len(points):
        image = draw(st.permutations(points.points))
        weights = tuple(dot(image[a - 1], image[b - 1]) for a, b in tree.edges)
    else:
        values = sorted({dot(p, q) for p in points.points for q in points.points if p != q})
        weights = tuple(draw(st.sampled_from(values)) for _ in tree.edges)
    return WeightedTree(tree, weights), points


@settings(max_examples=120, deadline=None)
@given(weighted())
def test_count_embeddings_matches_reference(case):
    wt, points = case
    include_zero = any(w == 0 for w in wt.weights)
    assert count_embeddings(wt, points, include_zero=include_zero) == (
        reference_count_embeddings(wt, points)
    )


@settings(max_examples=120, deadline=None)
@given(trees(), point_sets(), st.booleans())
def test_distinct_weight_tuples_match_reference(tree, points, include_zero):
    expected = reference_weight_tuples(tree, points, include_zero)
    count = distinct_weight_tuples(tree, points, include_zero=include_zero)
    tuples = engine_weight_tuples(tree, points, include_zero)
    assert tuples == expected
    assert count == len(expected)


@settings(max_examples=120, deadline=None)
@given(trees(), point_sets(), st.booleans(), st.data())
def test_pinned_weight_tuples_match_reference(tree, points, include_zero, data):
    vertex = data.draw(st.sampled_from(tree.vertices))
    pin = data.draw(st.sampled_from(points.points))
    expected = reference_weight_tuples(tree, points, include_zero, pinned=(vertex, pin))
    assert pinned_weight_tuples(tree, vertex, pin, points, include_zero=include_zero) == (
        len(expected)
    )


MIXED = PointSet(2, tuple(
    (Q(a, d), Q(b, e))
    for a, d, b, e in [(1, 2, -3, 1), (2, 3, 1, 4), (-1, 1, 1, 1), (1, 1, 7, 9),
                       (3, 2, -1, 3), (-2, 3, 5, 6), (1, 1, 1, 2)]
))


@pytest.mark.parametrize("vertex", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("include_zero", [False, True])
def test_caterpillar_pinned_on_leaves_and_spine(vertex, include_zero):
    tree = caterpillar([2, 1])  # spine 1-2; leaves 3, 4 on 1 and 5 on 2
    for pin in MIXED.points:
        expected = reference_weight_tuples(tree, MIXED, include_zero, pinned=(vertex, pin))
        got = pinned_weight_tuples(tree, vertex, pin, MIXED, include_zero=include_zero)
        assert got == len(expected)


def test_repeated_weights_count_falling_factorials():
    # (a, 1) . (b, 1) = 1 only when ab = 0, so the centre must be (0, 1) and
    # its three leaves take 3 of the other 6 points in order: 6 * 5 * 4.
    points = PointSet(2, tuple((Q(i), Q(1)) for i in range(7)))
    wt = WeightedTree(make_star(3), (Q(1), Q(1), Q(1)))
    assert count_embeddings(wt, points) == 120 == reference_count_embeddings(wt, points)


def test_more_vertices_than_points():
    wt = WeightedTree(make_star(3), (Q(1),) * 3)
    points = PointSet(2, ((Q(0), Q(1)), (Q(1), Q(1)), (Q(2), Q(1))))
    assert count_embeddings(wt, points) == 0
    assert distinct_weight_tuples(make_star(3), points) == 0


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@contextmanager
def shallow_recursion_limit(margin: int = 100):
    """Allow only ``margin`` frames beyond the caller's depth."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + margin)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def test_long_path_embeddings_need_no_recursion():
    result = build_column_construction(make_path(300), 301)
    with shallow_recursion_limit():
        counted = count_embeddings(result.weighted_tree, result.points)
    assert counted == result.predicted_count


def test_long_path_tuples_need_no_recursion():
    # Points e_i + e_(i+1): consecutive points have dot product 1 and all
    # others 0, so a 150-edge path on 151 such points has one map up to
    # reversal and one tuple, and the search never branches far.
    k = 150
    unit = [Q(0)] * (k + 2)
    points = []
    for i in range(k + 1):
        p = list(unit)
        p[i] = p[i + 1] = Q(1)
        points.append(tuple(p))
    with shallow_recursion_limit():
        counted = distinct_weight_tuples(make_path(k), PointSet(k + 2, tuple(points)))
    assert counted == 1


@pytest.mark.parametrize("spare", [0, 1])
def test_heads_use_up_a_value_exactly(spare):
    # The centre (0, 1) has dot product 1 with every (i, 1).  With two such
    # points the 3-star's two heads take both, and its last leaf must take
    # another value; a third such point lets all three leaves take 1.
    tree = make_star(3)
    level = tuple((Q(i), Q(1)) for i in range(1, 3 + spare))
    points = PointSet(2, ((Q(0), Q(1)), *level, (Q(1), Q(2)), (Q(2), Q(3))))
    expected = reference_weight_tuples(tree, points, False)
    count = distinct_weight_tuples(tree, points)
    tuples = engine_weight_tuples(tree, points)
    assert (tuples, count) == (expected, len(expected))
    assert ((1, 1, 1) in tuples) == bool(spare)
    centre = reference_weight_tuples(tree, points, False, pinned=(1, (Q(0), Q(1))))
    assert pinned_weight_tuples(tree, 1, (Q(0), Q(1)), points) == len(centre)


def test_wide_star_heads_need_no_recursion():
    # On the unit vectors every dot product between two of them is 0, so
    # every map of the 150-star gives the all-zero tuple.  Its centre has
    # 149 heads, more than the recursion limit's margin allows frames.
    k = 150
    units = [tuple(Q(int(i == j)) for j in range(k + 1)) for i in range(k + 1)]
    with shallow_recursion_limit():
        counted = distinct_weight_tuples(
            make_star(k), PointSet(k + 1, tuple(units)), include_zero=True
        )
    assert counted == 1


@pytest.mark.parametrize("edges", [3, 4])
@pytest.mark.parametrize("spare", [0, 1])
@pytest.mark.parametrize("include_zero", [False, True])
def test_one_leaf_group_uses_up_a_value_exactly(edges, spare, include_zero):
    # A path's leaf group is one leaf.  With its neighbour on (0, 1), the
    # other path vertices on (1, 1) and (2, 1) take up every point of
    # product 1 (the centre itself included) unless a spare (3, 1) is left.
    level = tuple((Q(i), Q(1)) for i in range(1, 3 + spare))
    points = PointSet(2, ((Q(0), Q(1)), *level, (Q(1), Q(2)), (Q(2), Q(3)), (Q(-1), Q(1, 2))))
    tree = make_path(edges)
    expected = reference_weight_tuples(tree, points, include_zero)
    count = distinct_weight_tuples(tree, points, include_zero=include_zero)
    tuples = engine_weight_tuples(tree, points, include_zero)
    assert (tuples, count) == (expected, len(expected))
