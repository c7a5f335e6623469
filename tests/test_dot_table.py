"""The all-pairs dot-product table behind every counter.

Each all-pairs counter reads one integer table, a ``DotProductIndex``.
The differential tests compare the table and the counters with
references built on ``geometry.dot`` over random rational sets with mixed
denominators and negative coordinates; the call-count tests check that each
all-pairs counter builds the table exactly once, that the fixed-value
counters build none, and that each point set is scaled at most once.
"""

import itertools
import math
import threading
import tracemalloc
from fractions import Fraction as Q
from io import StringIO
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dottrees import (
    DotProductIndex,
    PointSet,
    WeightedTree,
    alpha_hyperplane,
    count_embeddings,
    count_homomorphisms,
    distinct_dot_products,
    distinct_weight_tuples,
    dot,
    hyperplane_descent,
    incidences,
    integer_grid,
    make_path,
    make_star,
    max_pinned,
    meets_power_bound,
    pinned_set,
    pinned_weight_tuples,
    proof_graph_edges,
    proof_multigraph,
    radial_histogram,
    random_point_set,
)
from dottrees import acceptance, constructions, counting, geometry
from dottrees.constructions import (
    LatticeSpec,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from dottrees.geometry import _dots, _scaled, format_point_set, read_point_set
from oracles import (
    reference_incidences,
    reference_pair_counts,
    reference_proof_graph_edges,
    unit_planes,
)

DENOMINATORS = (1, 2, 3, 4, 6, 7, 9)
SCALARS = st.builds(Q, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


def _points(dim, min_size=1):
    return st.lists(
        st.tuples(*[SCALARS] * dim), min_size=min_size, max_size=9, unique=True
    )


@st.composite
def single_sets(draw, dims=(2, 3)):
    dim = draw(st.sampled_from(dims))
    pts = draw(_points(dim, min_size=2))
    origin = (Q(0),) * dim
    if draw(st.booleans()) and origin not in pts:
        pts.append(origin)
    return PointSet(dim, tuple(pts))


@st.composite
def set_pairs(draw, dims=(2, 3)):
    """Two sets of one dimension, sharing some points and some unit products."""
    dim = draw(st.sampled_from(dims))
    left = draw(_points(dim))
    right = draw(_points(dim))
    for p in draw(st.lists(st.sampled_from(left), max_size=3, unique=True)):
        if p not in right:
            right.append(p)
    # The dual of a point with no zero coordinate has dot product 1 with it.
    for p in left[:2]:
        dual = tuple(1 / (dim * c) for c in p) if all(p) else None
        if dual is not None and dual not in right:
            right.append(dual)
    if draw(st.booleans()):
        # A point in both sets with e.e = 1.
        unit = (Q(1),) + (Q(0),) * (dim - 1)
        for side in (left, right):
            if unit not in side:
                side.append(unit)
    return PointSet(dim, tuple(left)), PointSet(dim, tuple(right))


@st.composite
def incidence_instances(draw):
    """Points and hyperplanes of one dimension.  Normals come from a small
    pool, so several hyperplanes share one with different values; they have
    zero coordinates often.  Values are zero, a product with a point, or any
    scalar, which mostly meets no point; some hyperplanes repeat."""
    dim = draw(st.sampled_from((2, 3, 4)))
    pts = draw(_points(dim, min_size=0))
    origin = (Q(0),) * dim
    if draw(st.booleans()) and origin not in pts:
        pts.append(origin)
    coordinate = st.one_of(st.just(Q(0)), SCALARS)
    normal = st.tuples(*[coordinate] * dim).filter(any)
    pool = draw(st.lists(normal, min_size=1, max_size=3))
    planes = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.sampled_from(pool))
        products = st.sampled_from([dot(n, p) for p in pts]) if pts else SCALARS
        planes.append(alpha_hyperplane(n, draw(st.one_of(st.just(0), products, SCALARS))))
    planes += draw(st.lists(st.sampled_from(planes), max_size=3)) if planes else []
    return PointSet(dim, tuple(pts)), planes


@given(incidence_instances())
@settings(max_examples=120, deadline=None)
def test_incidences_match_reference(instance):
    points, planes = instance
    expected = reference_incidences(points, planes)
    assert incidences(points, planes) == expected
    # Forced onto each path of the partner lists: the solve, then the rows.
    for cost in (0, 10**9):
        with mock.patch.object(counting, "_SOLVE_STEP_COST", cost):
            assert incidences(points, planes) == expected


def reference_index(left, right, include_zero):
    """Partner maps and pair lists, in the index's key order, from ``dot``."""
    partners = {}
    pairs = {}
    for p in left.points:
        by_value = {}
        for q in right.points:
            value = dot(p, q)
            if value == 0 and not include_zero:
                continue
            by_value.setdefault(value, []).append(q)
            if p != q:
                pairs.setdefault(value, []).append((p, q))
        partners[p] = by_value
    return partners, pairs


def reference_numbering(left, right, include_zero):
    """Ids numbering the ``dot`` products in row-major order of first
    appearance, the rows of ids, and the id of zero (-1 if absent or kept)."""
    ids = {}
    rows = [[ids.setdefault(dot(p, q), len(ids)) for q in right.points] for p in left.points]
    return ids, rows, -1 if include_zero else ids.get(0, -1)


def assert_numbering_matches(left, right, include_zero):
    index = DotProductIndex(left, right, include_zero=include_zero)
    ids, rows, skip = reference_numbering(left, left if right is None else right, include_zero)
    assert [(Q(k, index.scale), a) for k, a in index.ids.items()] == list(ids.items())
    assert index.rows == rows
    assert index.skip == skip


def reference_distinct(left, right, include_zero):
    counts = reference_pair_counts(left, right, include_zero)
    return (len(counts), max(counts.values())) if counts else (0, 0)


def reference_max_pinned(points, include_zero):
    best = None
    for p in points.points:
        if all(c == 0 for c in p):
            continue
        values = {dot(p, q) for q in points.points}
        if not include_zero:
            values.discard(0)
        if best is None or len(values) > best[1]:
            best = (p, len(values))
    return best


def assert_index_matches(left, right, include_zero):
    index = DotProductIndex(left, right, include_zero=include_zero)
    right = left if right is None else right
    partners, pairs = reference_index(left, right, include_zero)
    for p, row in zip(left.points, index.rows):
        grouped = {}
        for q, a in zip(right.points, row):
            if a != index.skip:
                grouped.setdefault(index.value(a), []).append(q)
        assert list(grouped.items()) == list(partners[p].items())
    counts = {index.value(a): n for a, n in index.pair_counts().items()}
    assert counts == {value: len(found) for value, found in pairs.items()}
    assert sorted(index.values()) == sorted(pairs)
    assert index.pair_total() == sum(counts.values())


@given(single_sets(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_single_set_matches_reference(points, include_zero):
    assert_index_matches(points, None, include_zero)
    assert tuple(distinct_dot_products(points, include_zero=include_zero)) == (
        reference_distinct(points, points, include_zero)
    )
    assert max_pinned(points, include_zero=include_zero) == reference_max_pinned(
        points, include_zero
    )
    ones = sum(1 for p in points.points for q in points.points if dot(p, q) == 1)
    assert incidences(points, unit_planes(points)) == ones


@given(set_pairs(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_two_sets_match_reference(sets, include_zero):
    left, right = sets
    assert_index_matches(left, right, include_zero)
    counts = DotProductIndex(left, right, include_zero=include_zero).pair_counts()
    assert (len(counts), max(counts.values(), default=0)) == (
        reference_distinct(left, right, include_zero)
    )
    ones = sum(1 for e in left.points for f in right.points if dot(e, f) == 1)
    assert incidences(left, unit_planes(right)) == ones


@given(
    st.one_of(single_sets(dims=(2, 3, 4)).map(lambda s: (s, None)), set_pairs(dims=(2, 3, 4))),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_numbering_matches_reference(sets, include_zero):
    assert_numbering_matches(*sets, include_zero)


def _table(index):
    return list(index.ids.items()), index.rows, index.skip


@given(single_sets(dims=(2, 3, 4)), st.booleans())
@settings(max_examples=80, deadline=None)
def test_one_set_table_matches_general_path(points, include_zero):
    # An equal set that is not the same object takes the general path.
    twin = PointSet(points.dim, points.points)
    assert twin == points and twin is not points
    one, same, general = (
        DotProductIndex(points, right, include_zero=include_zero) for right in (None, points, twin)
    )
    assert _table(one) == _table(same) == _table(general)
    assert points.scaled == twin.scaled == _scaled(points.points)
    assert points.scaled is points.scaled


@given(single_sets(dims=(2, 3, 4)))
@settings(max_examples=80, deadline=None)
def test_scaled_and_dots_match_fraction_reference(points):
    ints, scale = _scaled(points.points)
    assert type(ints) is tuple and all(type(p) is tuple for p in ints)
    assert all(type(v) is int for p in ints for v in p)
    assert scale == math.lcm(*(c.denominator for p in points.points for c in p))
    assert tuple(tuple(Q(v, scale) for v in p) for p in ints) == points.points
    columns = list(zip(*ints))
    for p, p_int in zip(points.points, ints):
        products = [Q(v, scale * scale) for v in _dots(p_int, columns)]
        assert products == [dot(p, q) for q in points.points]
    empty = PointSet(points.dim, ())
    assert _scaled(empty.points) == ((), 1)
    assert list(_dots(ints[0], [()] * points.dim)) == []


@pytest.mark.parametrize("include_zero", [False, True])
@pytest.mark.parametrize("dim", [2, 4])
def test_numbering_of_empty_and_one_point_sets(dim, include_zero):
    empty = PointSet(dim, ())
    one = PointSet(dim, ((Q(1, 2),) + (Q(-3),) * (dim - 1),))
    many = PointSet(dim, tuple((Q(i, 3),) + (Q(i % 2),) * (dim - 1) for i in range(-2, 3)))
    for left, right in [(empty, None), (empty, many), (many, empty), (one, None),
                        (one, many), (many, one)]:
        assert_numbering_matches(left, right, include_zero)
    assert DotProductIndex(empty, many).rows == []
    assert DotProductIndex(many, empty).rows == [[]] * len(many)


def test_empty_set_of_high_dimension_allocates_no_columns():
    empty = PointSet(10**6, ())
    tracemalloc.start()
    try:
        summary = distinct_dot_products(empty)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.distinct == 0
    assert peak < 2**20


def test_mismatched_dimensions_raise():
    planar = PointSet(2, ((Q(1), Q(2)), (Q(1, 3), Q(-1))))
    spatial = PointSet(3, ((Q(1), Q(2), Q(3)),))
    with pytest.raises(ValueError):
        DotProductIndex(planar, spatial)
    with pytest.raises(ValueError):
        incidences(planar, unit_planes(spatial))
    with pytest.raises(ValueError):
        incidences(spatial, unit_planes(planar))


@given(st.one_of(single_sets().map(lambda s: (s, None)), set_pairs()))
@settings(max_examples=60, deadline=None)
def test_value_ids_round_trip(sets):
    left, right = sets
    index = DotProductIndex(left, right)
    right = left if right is None else right
    for p, row in zip(left.points, index.rows):
        for q, a in zip(right.points, row):
            assert index.value(a) == dot(p, q)
    # The table is closed once built: a missing product gets no id.
    with pytest.raises(KeyError):
        index.ids[max(index.ids) + 1]
    assert len(index.ids) == len(set(itertools.chain.from_iterable(index.rows)))


@pytest.fixture
def tables(monkeypatch):
    """Record every table build, wherever the table is built from."""
    built = []
    original = DotProductIndex.__init__

    def recording(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DotProductIndex, "__init__", recording)
    return built


_COLUMNS = build_column_construction(make_star(3), 12)
_GRID = integer_grid(4)
_RANDOM = random_point_set(12, seed=3, low=-6, high=6)
_LATTICE = build_unit_lattice(LatticeSpec(2, 3))

ONE_TABLE_CALLS = {
    "distinct_dot_products": lambda: distinct_dot_products(_GRID),
    "distinct_weight_tuples": lambda: distinct_weight_tuples(make_path(2), _GRID),
    "pinned_weight_tuples": lambda: pinned_weight_tuples(
        make_path(2), 2, _GRID.points[5], _GRID
    ),
    "max_pinned": lambda: max_pinned(_GRID),
    "proof_multigraph": lambda: proof_multigraph(_RANDOM),
}
# The fixed-value counters read partner lists, which build no table: the
# column set (n=12) reads rows of products, and the q=3 lattice (27 points
# against 27 normals) is solved by projection.
NO_TABLE_CALLS = {
    "count_embeddings": lambda: count_embeddings(_COLUMNS.weighted_tree, _COLUMNS.points),
    "count_homomorphisms": lambda: count_homomorphisms(
        _COLUMNS.weighted_tree, _COLUMNS.points
    ),
    "incidences": lambda: incidences(_LATTICE.e_points, unit_planes(_LATTICE.f_points)),
}


@pytest.mark.parametrize("name", sorted(ONE_TABLE_CALLS))
def test_one_table_per_call(tables, name):
    ONE_TABLE_CALLS[name]()
    assert len(tables) == 1


@pytest.mark.parametrize("name", sorted(NO_TABLE_CALLS))
def test_no_table_per_fixed_value_call(tables, name):
    NO_TABLE_CALLS[name]()
    assert tables == []


def test_criterion_6_builds_one_table_per_grid(tables):
    assert acceptance.criterion_6().passed
    assert len(tables) == 4


def test_criterion_6_counts_good_pins_per_grid():
    recount = []
    for n, grid in acceptance._grid_sets():
        sizes = counting._pinned_sizes(DotProductIndex(grid))
        good = sum(meets_power_bound(size, n, Q(2, 3), Q(1, 4)) for size in sizes)
        recount.append(f"n={n}:{good}")
    assert acceptance.criterion_6().details == "good pins " + " ".join(recount)


def test_pinned_sizes_match_pinned_set():
    mixed = PointSet(2, ((Q(1, 2), Q(-3)), (Q(2, 3), Q(1, 4)), (Q(-1), Q(0)), (Q(0), Q(7, 9))))
    cases = [(grid, False) for _, grid in acceptance._grid_sets()]
    cases += [(mixed, False), (mixed, True)]
    for points, include_zero in cases:
        sizes = counting._pinned_sizes(DotProductIndex(points, include_zero=include_zero))
        assert sizes == [len(pinned_set(p, points, include_zero)) for p in points.points]


@pytest.fixture
def scalings(monkeypatch):
    """Record the argument of every ``_scaled`` call made by a module that
    imports it: ``PointSet``, the sweep, the incidence normals."""
    calls = []
    original = geometry._scaled

    def recording(points):
        calls.append(points)
        return original(points)

    for module in (geometry, counting, constructions):
        if hasattr(module, "_scaled"):
            monkeypatch.setattr(module, "_scaled", recording)
    return calls


def test_count_embeddings_scales_its_set_once(scalings):
    points = PointSet(2, _COLUMNS.points.points)
    assert count_embeddings(_COLUMNS.weighted_tree, points) == _COLUMNS.predicted_count
    assert len(scalings) == 1 and scalings[0] is points.points


@pytest.mark.parametrize("pair", [False, True])
def test_proof_multigraph_scales_each_set_once(scalings, pair):
    first = PointSet(2, (_LATTICE.e_points if pair else _RANDOM).points)
    second = PointSet(2, _LATTICE.f_points.points) if pair else None
    proof_multigraph(first, second)
    sets = [first] if second is None else [first, second]
    for ps in sets:
        assert sum(points is ps.points for points in scalings) == 1
    # The one other call scales the crossing sweep's segment endpoints.
    assert len(scalings) == len(sets) + 1


@pytest.mark.parametrize("build", [build_column_construction, build_perp_lines_3d])
def test_builders_scale_once_in_their_point_set(scalings, build):
    # The edge-weight check reads the set's ints, sliced by vertex.
    result = build(make_star(3), 16)
    assert len(scalings) == 1 and scalings[0] is result.points.points


def test_descent_scales_each_level_set_once(scalings):
    # Every coordinate over 3: the levels keep 8 and then 3 points.
    ints = random_point_set(40, dim=5, seed=5, low=-1, high=1)
    points = PointSet(5, tuple(tuple(Q(c, 3) for c in p) for p in ints.points))
    scalings.clear()
    trace = hyperplane_descent(points)
    remaining = [level.points_remaining for level in trace.levels]
    assert remaining == [8, 3] and trace.final_pinned_count == 3
    # One scaling per PointSet the descent builds, of each level's points:
    # none in the rank check, none of the given set, none for max_pinned.
    assert list(map(len, scalings)) == remaining


def test_each_set_scaled_once_at_construction(scalings):
    text = "d 2\n1/2 3\n-2/7 5/11\n3 0\n-1/13 -4\n"
    points = read_point_set(StringIO(text))
    assert len(scalings) == 1 and scalings[0] is points.points
    # No table scales the set again, for one set or a pair.
    index = DotProductIndex(points)
    DotProductIndex(points, points)
    assert distinct_dot_products(points) == (len(index.pair_counts()), 2)
    assert len(scalings) == 1
    assert radial_histogram(points).total == 4
    assert format_point_set(points) == text


@pytest.fixture
def fraction_hashes(monkeypatch):
    """Record every ``Fraction`` hashed while the test runs."""
    calls = []
    original = Q.__hash__

    def recording(value):
        calls.append(value)
        return original(value)

    monkeypatch.setattr(Q, "__hash__", recording)
    return calls


# Two rational sets of scales 36 and 90 sharing two points.  At its own
# scale, (1/5, -6/5) has the ints (18, -108) of (1/2, -3) at scale 36.
_RATIONAL = PointSet(2, (
    (Q(1, 2), Q(-3)), (Q(2, 3), Q(1, 4)), (Q(-1), Q(0)), (Q(0), Q(7, 9)), (Q(1, 2), Q(1, 2)),
))
_SHARING = PointSet(2, (
    (Q(0), Q(7, 9)), (Q(3, 5), Q(2)), (Q(1, 2), Q(-3)), (Q(1, 5), Q(-6, 5)), (Q(-1, 6), Q(5)),
))


@pytest.mark.parametrize(
    "left, right",
    [(_RATIONAL, None), (_RATIONAL, _SHARING), (_SHARING, _RATIONAL)],
    ids=["one-set", "pair", "pair-swapped"],
)
@pytest.mark.parametrize("include_zero", [False, True])
def test_pair_counts_hash_no_fraction(fraction_hashes, left, right, include_zero):
    index = DotProductIndex(left, right, include_zero=include_zero)
    counts = index.pair_counts()
    assert fraction_hashes == []
    got = {index.value(a): n for a, n in counts.items()}
    assert got == reference_pair_counts(left, right or left, include_zero)


def test_incidences_scale_only_the_normals(scalings, fraction_hashes):
    # Every hyperplane value is the int 1, so no Fraction is hashed: the
    # normals are grouped on their ints.
    planes = unit_planes(_LATTICE.f_points)
    fraction_hashes.clear()
    count = incidences(_LATTICE.e_points, planes)
    assert fraction_hashes == []
    assert len(scalings) == 1 and list(scalings[0]) == [h.normal for h in planes]
    assert count == reference_incidences(_LATTICE.e_points, planes)


def test_proof_multigraph_counts_vertices_hashing_no_fraction(monkeypatch, fraction_hashes):
    # With no edges the rest of the statistics hash nothing, so any hash
    # would come from matching the shared points.
    monkeypatch.setattr(counting, "proof_graph_edges", lambda *args, **kwargs: {})
    stats = proof_multigraph(_RATIONAL, _SHARING)
    assert fraction_hashes == []
    assert stats.vertices == len(set(_RATIONAL.points) | set(_SHARING.points)) == 8


@given(set_pairs())
def test_shared_matches_set_intersection(sets):
    for left, right in (sets, sets[::-1], (sets[0], sets[0])):
        pairs = counting._shared(left, right)
        assert all(left.points[i] == right.points[j] for i, j in pairs)
        common = set(left.points) & set(right.points)
        assert [left.points[i] for i, _ in pairs] == [p for p in left.points if p in common]


def test_count_embeddings_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("count_embeddings started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    result = build_column_construction(make_star(3), 16)
    counted = count_embeddings(result.weighted_tree, result.points, threads=4)
    assert counted == result.predicted_count


# A = {(1,0), (0,1), (1,1)} has no product 2 between distinct points;
# B = {(2,0), (0,2), (2,2), (1,3)} has two ordered pairs with it.
_A = PointSet(2, ((Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))))
_B = PointSet(2, ((Q(2), Q(0)), (Q(0), Q(2)), (Q(2), Q(2)), (Q(1), Q(3))))


def test_count_embeddings_rejects_index_of_other_sets():
    wt = WeightedTree(make_path(1), (Q(2),))
    assert count_embeddings(wt, _A) == 0
    assert count_embeddings(wt, _A, index=DotProductIndex(_A)) == 0
    for index in (DotProductIndex(_B), DotProductIndex(_A, _B), DotProductIndex(_B, _A)):
        with pytest.raises(ValueError, match="other point sets"):
            count_embeddings(wt, _A, index=index)


def test_proof_graph_edges_reads_and_checks_its_table():
    for left, right in [(_A, None), (_A, _B), (_B, _A)]:
        for include_zero in (False, True):
            index = DotProductIndex(left, right, include_zero=include_zero)
            edges = reference_proof_graph_edges(left, right, include_zero)
            assert proof_graph_edges(index) == edges
    spatial = PointSet(3, ((Q(1), Q(2), Q(3)),))
    origin = PointSet(2, ((Q(0), Q(0)), (Q(1), Q(1))))
    for index, message in [
        (DotProductIndex(spatial), "planar"),
        (DotProductIndex(_A, origin), "origin"),
        (DotProductIndex(origin, _A), "origin"),
    ]:
        with pytest.raises(ValueError, match=message):
            proof_graph_edges(index)
