import random
from contextlib import contextmanager
from fractions import Fraction as Q
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dottrees.trees import Tree

from dottrees import (
    DotProductIndex,
    PointSet,
    WeightedTree,
    alpha_hyperplane,
    count_embeddings,
    dot,
    count_homomorphisms,
    count_segment_crossings,
    distinct_dot_products,
    distinct_weight_tuples,
    hyperplane_descent,
    incidences,
    integer_grid,
    make_path,
    make_perfect_binary,
    make_star,
    max_pinned,
    pinned_set,
    pinned_weight_tuples,
    point,
    point_set,
    proof_graph_edges,
    proof_multigraph,
    radial_histogram,
    random_point_set,
)
from dottrees import counting
from dottrees.constructions import LatticeSpec, build_column_construction, build_unit_lattice
from dottrees.counting import _affine_rank
from dottrees.geometry import _scaled
from oracles import (
    ROTATION_2D,
    apply_matrix,
    engine_weight_tuples,
    naive_count_embeddings,
    naive_count_homomorphisms,
    naive_crossings,
    naive_pinned_weight_tuples,
    naive_weight_tuples,
    reference_affine_rank,
    reference_count_embeddings,
    reference_incidences,
    reference_partner_lists,
    reference_proof_graph_edges,
    scale_points,
    tree_from_edges,
)

pt = point
COLLINEAR = point_set([(1, 0), (2, 0), (3, 0)])


def random_instance(seed, max_points=12, dim=2, low=-4, high=4):
    rng = random.Random(seed)
    n = rng.randint(4, max_points)
    return random_point_set(n, dim, seed=seed * 7 + 1, low=low, high=high)


class TestDotProductIndex:
    def test_pair_total_excludes_diagonal(self):
        ps = point_set([(1, 2), (3, 4), (5, 6), (-1, 1)])
        idx = DotProductIndex(ps, include_zero=True)
        assert idx.pair_total() == len(ps) ** 2 - len(ps)

    def test_disjoint_pair_total(self):
        left = point_set([(1, 2), (3, 4)])
        right = point_set([(5, 6), (7, 8), (9, 1)])
        idx = DotProductIndex(left, right, include_zero=True)
        assert idx.pair_total() == len(left) * len(right)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DotProductIndex(point_set([(1, 2)]), point_set([(1, 2, 3)]))

    def test_pair_total_minus_zeros(self):
        ps = point_set([(1, 0), (0, 1), (1, 1)])
        idx = DotProductIndex(ps)
        zero_pairs = sum(
            1
            for p in ps.points
            for q in ps.points
            if p != q and p[0] * q[0] + p[1] * q[1] == 0
        )
        assert idx.pair_total() == len(ps) ** 2 - len(ps) - zero_pairs

    def test_multiplicity_sum_invariant(self):
        for seed in range(5):
            ps = random_instance(seed)
            idx = DotProductIndex(ps, include_zero=True)
            assert idx.pair_total() == len(ps) ** 2 - len(ps)


class TestPinnedSet:
    def test_basic(self):
        ps = point_set([(1, 0), (2, 0), (0, 5)])
        assert pinned_set(pt(1, 0), ps) == {Q(1), Q(2)}

    def test_include_zero(self):
        ps = point_set([(1, 0), (2, 0), (0, 5)])
        assert pinned_set(pt(1, 0), ps, include_zero=True) == {Q(0), Q(1), Q(2)}

    def test_grid_pin_matches_brute_force(self):
        grid = point_set(product(range(3), repeat=2))
        expected = {
            Q(p[0] + p[1])
            for p in grid.points
            if p[0] + p[1] != 0
        }
        assert pinned_set(pt(1, 1), grid) == expected

    def test_origin_pin_rejected(self):
        with pytest.raises(ValueError):
            pinned_set(pt(0, 0), COLLINEAR)


class TestDistinctDotProducts:
    def test_collinear(self):
        summary = distinct_dot_products(COLLINEAR)
        assert summary.distinct == 3  # {2, 3, 6}
        assert summary.max_multiplicity == 2  # each from both orders

    def test_nonzero_present(self):
        assert distinct_dot_products(point_set([(1, 1), (2, 2)])).distinct >= 1

    def test_all_products_zero_gives_empty_summary(self):
        ps = point_set([(1, 0), (0, 1)])
        assert distinct_dot_products(ps) == (0, 0)
        assert distinct_dot_products(ps, include_zero=True) == (1, 2)

    def test_matches_brute_force(self):
        for seed in range(6):
            ps = random_instance(seed)
            values = {}
            for p in ps.points:
                for q in ps.points:
                    if p == q:
                        continue
                    v = sum(a * b for a, b in zip(p, q))
                    if v == 0:
                        continue
                    values[v] = values.get(v, 0) + 1
            summary = distinct_dot_products(ps)
            assert summary.distinct == len(values)
            assert summary.max_multiplicity == (max(values.values()) if values else 0)


class TestCountEmbeddings:
    def test_single_edge_both_orders(self):
        wt = WeightedTree(make_path(1), (Q(2),))
        assert count_embeddings(wt, point_set([(1, 0), (2, 0)])) == 2

    def test_injectivity_blocks_fold(self):
        wt = WeightedTree(make_path(2), (Q(2), Q(2)))
        assert count_embeddings(wt, point_set([(1, 0), (2, 0)])) == 0

    def test_column_construction_oracle(self):
        result = build_column_construction(make_path(2), 9)
        assert naive_count_embeddings(result.weighted_tree, result.points) == 16
        assert count_embeddings(result.weighted_tree, result.points) == 16

    def test_zero_weight_needs_flag(self):
        wt = WeightedTree(make_path(1), (Q(0),))
        ps = point_set([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            count_embeddings(wt, ps)
        assert count_embeddings(wt, ps, include_zero=True) == 2

    def test_too_few_points(self):
        wt = WeightedTree(make_path(3), (Q(1), Q(1), Q(1)))
        assert count_embeddings(wt, point_set([(1, 0), (2, 0)])) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive_oracle_equivalence(self, seed):
        # Engine == naive enumeration on every small random instance.
        rng = random.Random(seed)
        ps = random_instance(seed)
        tree = [make_path(1), make_path(2), make_path(3), make_star(3)][seed % 4]
        idx = DotProductIndex(ps, include_zero=True)
        values = sorted(idx.values())
        weights = tuple(rng.choice(values) for _ in tree.edges)
        wt = WeightedTree(tree, weights)
        assert count_embeddings(wt, ps, include_zero=True) == naive_count_embeddings(
            wt, ps
        )

    def test_disconnected_edge_prefix(self):
        # Canonical order (1,4),(2,3),(3,4) leaves edge (2,3) with neither
        # endpoint placed after the first edge, forcing the pair-driven
        # branch of the backtracker mid-recursion.
        tree = tree_from_edges(4, [(1, 4), (2, 3), (3, 4)])
        assert tree.edges == ((1, 4), (2, 3), (3, 4))
        for seed in range(4):
            ps = random_instance(seed, max_points=8)
            rng = random.Random(seed + 50)
            idx = DotProductIndex(ps, include_zero=True)
            values = sorted(idx.values())
            weights = tuple(rng.choice(values) for _ in tree.edges)
            wt = WeightedTree(tree, weights)
            assert count_embeddings(
                wt, ps, include_zero=True
            ) == naive_count_embeddings(wt, ps)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_random_trees(self, seed):
        # Random labeled trees with up to 3 edges against random point sets.
        rng = random.Random(seed)
        k = rng.randint(1, 3)
        edges = [(rng.randint(1, i), i + 1) for i in range(1, k + 1)]
        tree = tree_from_edges(k + 1, edges)
        ps = random_point_set(
            rng.randint(k + 1, 9), seed=rng.randint(0, 10**6), low=-3, high=3
        )
        idx = DotProductIndex(ps, include_zero=True)
        values = sorted(idx.values())
        weights = tuple(rng.choice(values) for _ in tree.edges)
        wt = WeightedTree(tree, weights)
        assert count_embeddings(wt, ps, include_zero=True) == naive_count_embeddings(
            wt, ps
        )

    def test_thread_counts_agree(self):
        result = build_column_construction(make_star(3), 16)
        wt, ps = result.weighted_tree, result.points
        counts = {count_embeddings(wt, ps, threads=t) for t in (1, 2, 4)}
        assert counts == {result.predicted_count}

    def test_prebuilt_index_reused(self):
        result = build_column_construction(make_path(2), 12)
        wt, ps = result.weighted_tree, result.points
        idx = DotProductIndex(ps)
        assert count_embeddings(wt, ps, index=idx) == count_embeddings(wt, ps)

    def test_one_vertex_tree_counts_points(self):
        from dottrees.trees import Tree

        wt = WeightedTree(Tree(1, ()), ())
        assert count_embeddings(wt, COLLINEAR) == 3
        assert count_homomorphisms(wt, COLLINEAR) == 3

    def test_rotation_invariance(self):
        ps = random_instance(3)
        tree = make_path(2)
        idx = DotProductIndex(ps, include_zero=True)
        weights = tuple(sorted(idx.values())[:2])
        wt = WeightedTree(tree, weights)
        rotated = apply_matrix(ROTATION_2D, ps)
        assert count_embeddings(wt, ps, include_zero=True) == count_embeddings(
            wt, rotated, include_zero=True
        )

    def test_scaling_covariance(self):
        ps = random_instance(4)
        lam = Q(3, 2)
        idx = DotProductIndex(ps, include_zero=True)
        weights = tuple(sorted(idx.values())[-2:])
        wt = WeightedTree(make_path(2), weights)
        scaled_wt = WeightedTree(make_path(2), tuple(lam * lam * w for w in weights))
        assert count_embeddings(wt, ps, include_zero=True) == count_embeddings(
            scaled_wt, scale_points(ps, lam), include_zero=True
        )


class TestCountHomomorphisms:
    def test_fold_allowed(self):
        wt = WeightedTree(make_path(2), (Q(2), Q(2)))
        assert count_homomorphisms(wt, point_set([(1, 0), (2, 0)])) == 2

    def test_single_edge_equals_embeddings(self):
        wt = WeightedTree(make_path(1), (Q(2),))
        ps = point_set([(1, 0), (2, 0)])
        assert count_homomorphisms(wt, ps) == count_embeddings(wt, ps) == 2

    def test_zero_weight_agrees_with_embeddings(self):
        # A single edge of weight 0: (1,0)-(0,1) in both directions.
        wt = WeightedTree(make_path(1), (Q(0),))
        ps = point_set([(1, 0), (0, 1), (1, 1)])
        homs = count_homomorphisms(wt, ps, include_zero=True)
        assert homs == count_embeddings(wt, ps, include_zero=True) == 2
        # An index built without zero still holds zero's id in its rows.
        assert count_embeddings(wt, ps, include_zero=True, index=DotProductIndex(ps)) == 2

    def test_column_construction_dominates(self):
        result = build_column_construction(make_path(2), 9)
        wt, ps = result.weighted_tree, result.points
        homs = count_homomorphisms(wt, ps)
        assert homs == naive_count_homomorphisms(wt, ps)
        assert homs >= count_embeddings(wt, ps)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_equivalence_and_dominance(self, seed):
        rng = random.Random(seed + 100)
        ps = random_instance(seed, max_points=8)
        tree = [make_path(1), make_path(2), make_star(3)][seed % 3]
        idx = DotProductIndex(ps, include_zero=True)
        values = sorted(idx.values())
        weights = tuple(rng.choice(values) for _ in tree.edges)
        wt = WeightedTree(tree, weights)
        homs = count_homomorphisms(wt, ps, include_zero=True)
        assert homs == naive_count_homomorphisms(wt, ps)
        assert homs >= count_embeddings(wt, ps, include_zero=True)


class TestDistinctWeightTuples:
    def test_single_edge_collinear(self):
        assert distinct_weight_tuples(make_path(1), COLLINEAR) == 3

    def test_path_two_collinear(self):
        count = distinct_weight_tuples(make_path(2), COLLINEAR)
        tuples = engine_weight_tuples(make_path(2), COLLINEAR)
        assert count == 6
        assert tuples == {
            (Q(2), Q(6)),
            (Q(3), Q(6)),
            (Q(2), Q(3)),
            (Q(6), Q(3)),
            (Q(3), Q(2)),
            (Q(6), Q(2)),
        }

    def test_single_point_gives_zero(self):
        solo = point_set([(1, 1)])
        assert distinct_weight_tuples(make_path(1), solo) == 0

    def test_star_versus_path_labelings(self):
        ps = random_instance(9, max_points=7)
        star = distinct_weight_tuples(make_star(2), ps)
        path = distinct_weight_tuples(make_path(2), ps)
        assert star == len(naive_weight_tuples(make_star(2), ps))
        assert path == len(naive_weight_tuples(make_path(2), ps))

    def test_one_vertex_tree_rejected(self):
        from dottrees.trees import Tree

        with pytest.raises(ValueError):
            distinct_weight_tuples(Tree(1, ()), COLLINEAR)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive(self, seed):
        ps = random_instance(seed, max_points=7)
        tree = [make_path(2), make_star(3), make_path(3)][seed % 3]
        if tree.num_vertices > len(ps):
            return
        count = distinct_weight_tuples(tree, ps)
        assert count == len(naive_weight_tuples(tree, ps))

    def test_include_zero(self):
        ps = point_set([(1, 0), (0, 1), (1, 1)])
        with_zero = distinct_weight_tuples(make_path(1), ps, include_zero=True)
        without = distinct_weight_tuples(make_path(1), ps)
        assert with_zero == len(naive_weight_tuples(make_path(1), ps, include_zero=True))
        assert without == len(naive_weight_tuples(make_path(1), ps))
        assert with_zero > without

    def test_scaling_invariance(self):
        ps = random_instance(5, max_points=7)
        tree = make_path(2)
        scaled = scale_points(ps, Q(5, 3))
        assert distinct_weight_tuples(tree, ps) == distinct_weight_tuples(tree, scaled)


class TestPinnedWeightTuples:
    def test_single_edge_pinned(self):
        assert pinned_weight_tuples(make_path(1), 1, pt(1, 0), COLLINEAR) == 2

    def test_path_pinned_at_center(self):
        assert pinned_weight_tuples(make_path(2), 2, pt(2, 0), COLLINEAR) == 2

    def test_pin_not_in_set(self):
        with pytest.raises(ValueError):
            pinned_weight_tuples(make_path(1), 1, pt(9, 9), COLLINEAR)

    def test_float_pin_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            pinned_weight_tuples(make_path(1), 1, (1.0, 0.0), COLLINEAR)

    def test_bounded_by_unpinned(self):
        for seed in range(4):
            ps = random_instance(seed, max_points=7)
            tree = make_path(2)
            total = distinct_weight_tuples(tree, ps)
            for x in list(ps.points)[:3]:
                pinned = pinned_weight_tuples(tree, 1, x, ps)
                assert pinned <= total

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive(self, seed):
        ps = random_instance(seed, max_points=7)
        tree = make_star(3) if seed % 2 else make_path(2)
        if tree.num_vertices > len(ps):
            return
        x = ps.points[seed % len(ps)]
        v = 1 + seed % tree.num_vertices
        assert pinned_weight_tuples(tree, v, x, ps) == len(
            naive_pinned_weight_tuples(tree, v, x, ps)
        )


@pytest.mark.parametrize("tree", [make_path(4), make_star(4)], ids=["path", "star"])
def test_more_vertices_than_points_count_zero_at_once(monkeypatch, tree):
    # No map of 5 vertices into 4 points is injective: no partner list is
    # built and no placement is made.
    original = counting._placements

    def placed_none(*args):
        for _ in original(*args):
            raise AssertionError("a placement was made, yet no map is injective")
        return iter(())

    def refuse(*args):
        raise AssertionError("partner lists were built, yet no map is injective")

    monkeypatch.setattr(counting, "_placements", placed_none)
    monkeypatch.setattr(counting, "_partner_lists", refuse)
    ps = random_point_set(4, seed=3, low=-6, high=6)
    assert distinct_weight_tuples(tree, ps) == 0
    assert engine_weight_tuples(tree, ps) == frozenset()
    assert pinned_weight_tuples(tree, 1, ps.points[0], ps) == 0
    assert count_embeddings(WeightedTree(tree, (1, 1, 1, 1)), ps) == 0


class TestIncidences:
    def test_three_collinear_on_their_line(self):
        line = alpha_hyperplane(pt(0, 1), 0)  # the x-axis
        assert incidences(COLLINEAR, [line]) == 3

    def test_grid_and_axis_lines(self):
        grid = integer_grid(2)  # {1,2}^2
        lines = [
            alpha_hyperplane(pt(1, 0), 1),
            alpha_hyperplane(pt(1, 0), 2),
            alpha_hyperplane(pt(0, 1), 1),
            alpha_hyperplane(pt(0, 1), 2),
        ]
        assert incidences(grid, lines) == 8

    def test_empty_lines(self):
        assert incidences(COLLINEAR, []) == 0

    def test_hyperplane_of_another_dimension_raises(self):
        ps = point_set([(1, 0, 0), (0, 1, 0)])
        with pytest.raises(ValueError, match="hyperplane 2, points 3"):
            incidences(ps, [alpha_hyperplane(pt(1, 0), 1)])


class TestRadialHistogram:
    def test_buckets(self):
        ps = point_set([(1, 0), (2, 0), (3, 3)])
        hist = radial_histogram(ps)
        as_tuples = {d.primitive: c for d, c in hist.buckets.items()}
        assert as_tuples == {(1, 0): 2, (1, 1): 1}
        assert hist.max_count == 2

    def test_counts_sum(self):
        for seed in range(5):
            ps = random_instance(seed)
            hist = radial_histogram(ps)
            assert sum(hist.buckets.values()) == len(ps)

    def test_single_radial_line_fails_cap(self):
        ps = point_set([(i, i) for i in range(1, 28)])
        hist = radial_histogram(ps)
        assert hist.max_count == 27
        assert not hist.within_cap(1)
        assert hist.within_cap(3)

    @pytest.mark.parametrize("c", [0, -1, Q(-1, 3)])
    def test_cap_constant_must_be_positive(self, c):
        hist = radial_histogram(point_set([(1, 0), (2, 0)]))
        with pytest.raises(ValueError, match="positive"):
            hist.within_cap(c)

    def test_origin_guard(self):
        ps = point_set([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            radial_histogram(ps)
        hist = radial_histogram(ps, allow_origin=True)
        assert hist.total == 1

    def test_column_construction_shares_x_axis_direction(self):
        result = build_column_construction(make_path(2), 9)
        hist = radial_histogram(result.points)
        as_tuples = {d.primitive: c for d, c in hist.buckets.items()}
        assert as_tuples[(1, 0)] == 1  # only the V point sits on the x-axis


class TestProofMultigraph:
    def test_worked_example(self):
        ps = point_set([(1, 0), (2, 0), (1, 1)])
        stats = proof_multigraph(ps)
        assert stats.vertices == 3
        assert stats.edges == 3
        assert stats.max_multiplicity == 2
        assert stats.max_pinned_size == 2
        assert stats.drawing_crossings == 0
        double = (pt(1, 0), pt(1, 1))
        edges = proof_graph_edges(ps)
        assert edges[double] == 2

    def test_collinear_points_give_no_edges(self):
        stats = proof_multigraph(COLLINEAR)
        assert stats.edges == 0
        assert stats.max_multiplicity == 0

    def test_multiplicity_one_without_radial_coincidence(self):
        for seed in range(10):
            ps = random_point_set(18, seed=seed + 500, low=-9, high=9)
            if radial_histogram(ps).max_count != 1:
                continue
            stats = proof_multigraph(ps)
            if stats.edges:
                assert stats.max_multiplicity == 1

    def test_edge_total_formula(self):
        for seed in range(5):
            ps = random_instance(seed, max_points=14)
            stats = proof_multigraph(ps)
            expected = 0
            for p in ps.points:
                for alpha in pinned_set(p, ps):
                    members = sum(
                        1 for q in ps.points if sum(a * b for a, b in zip(p, q)) == alpha
                    )
                    if members >= 2:
                        expected += members - 1
            assert stats.edges == expected

    def test_crossing_bound(self):
        for seed in range(5):
            ps = random_point_set(24, seed=seed + 900, low=-12, high=12)
            stats = proof_multigraph(ps)
            assert stats.drawing_crossings <= len(ps) ** 2 * stats.max_pinned_size**2
            assert stats.crossing_bound_ok

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            proof_multigraph(point_set([(0, 0), (1, 0)]))

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            proof_multigraph(point_set([(1, 0, 0), (2, 0, 0)]))

    def test_two_set_form(self):
        # One pin, three second-set points on its value-2 line x=2,
        # sorted along the line into two consecutive segments.
        pins = point_set([(1, 0)])
        targets = point_set([(2, 1), (2, 5), (2, -3)])
        stats = proof_multigraph(pins, targets)
        assert stats.vertices == 4
        assert stats.edges == 2
        assert stats.max_multiplicity == 1
        assert stats.max_pinned_size == 1
        edges = proof_graph_edges(pins, targets)
        assert set(edges) == {
            (pt(2, -3), pt(2, 1)),
            (pt(2, 1), pt(2, 5)),
        }

    def test_builds_one_index(self, monkeypatch):
        built = []
        original = DotProductIndex.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DotProductIndex, "__init__", counting_init)
        ps = random_point_set(12, seed=3, low=-6, high=6)
        stats = proof_multigraph(ps)
        assert len(built) == 1
        assert stats.edges == sum(proof_graph_edges(ps).values())

    def test_two_set_radial_coincidence_multiplicity(self):
        # Two pins on one radial line see the same geometric line x=3
        # (values 3 and 6 respectively), doubling the single segment.
        pins = point_set([(1, 0), (2, 0)])
        targets = point_set([(3, 1), (3, 2)])
        stats = proof_multigraph(pins, targets)
        assert stats.vertices == 4
        assert stats.edges == 2
        assert stats.max_multiplicity == 2
        assert stats.drawing_crossings == 0

    def test_overlapping_sets(self):
        # The shared point (1,1) lies on its own value-2 line of the second
        # pin, so it must appear in that line's point list.
        pins = point_set([(1, 0), (1, 1)])
        targets = point_set([(1, 1), (1, 2), (2, 0)])
        stats = proof_multigraph(pins, targets)
        assert stats.vertices == 4
        assert stats.edges == 2
        assert stats.max_multiplicity == 1
        assert stats.max_pinned_size == 2
        edges = proof_graph_edges(pins, targets)
        assert set(edges) == {
            (pt(1, 1), pt(1, 2)),
            (pt(1, 1), pt(2, 0)),
        }


class TestSegmentCrossings:
    def test_plain_cross(self):
        segs = [(pt(0, 0), pt(2, 2)), (pt(0, 2), pt(2, 0))]
        assert count_segment_crossings(segs) == 1

    def test_shared_endpoint_not_counted(self):
        segs = [(pt(0, 0), pt(2, 2)), (pt(2, 2), pt(4, 0))]
        assert count_segment_crossings(segs) == 0

    def test_touching_not_counted(self):
        segs = [(pt(0, 0), pt(4, 0)), (pt(2, 0), pt(2, 3))]
        assert count_segment_crossings(segs) == 0

    def test_collinear_disjoint(self):
        segs = [(pt(0, 0), pt(1, 0)), (pt(2, 0), pt(3, 0))]
        assert count_segment_crossings(segs) == 0

    @pytest.mark.parametrize(
        "segs",
        [
            # In the plane these cross at (1, 1), but their z values there
            # are 2.5 and -1: the segments do not meet.
            [(pt(0, 0, 0), pt(2, 2, 5)), (pt(0, 2, -3), pt(2, 0, 1))],
            [(pt(0, 0), pt(2, 2)), (pt(0, 2), pt(2, 0, 1))],
            [(pt(0, 0), pt(2, 2)), ((Q(1),), pt(2, 0))],
        ],
        ids=["3d", "one-3d-endpoint", "one-coordinate"],
    )
    def test_non_planar_endpoints_raise(self, segs):
        with pytest.raises(ValueError, match="2 coordinates"):
            count_segment_crossings(segs)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive(self, seed):
        rng = random.Random(seed)
        segs = []
        for _ in range(30):
            a = (Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9)))
            b = (Q(rng.randint(-9, 9)), Q(rng.randint(-9, 9)))
            if a != b:
                segs.append((a, b))
        assert count_segment_crossings(segs) == naive_crossings(segs)


RATIONALS = st.builds(Q, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 7, 9)))
NONZERO_FACTORS = st.builds(
    Q, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 3, 5, 7))
)


@st.composite
def rational_segments(draw):
    """A pool of rational points and segments between them, as index pairs.

    Segments drawn from a small pool share endpoints often; the points placed
    on the line through the first two pool points give collinear overlaps,
    and may be chained into consecutive collinear segments.  Crosses of a
    vertical and a horizontal segment centred on the first pool point tie on
    the sweep's sort key, and some segments are drawn again, as they are or
    reversed.
    """
    pool = draw(
        st.lists(st.tuples(RATIONALS, RATIONALS), min_size=4, max_size=8, unique=True)
    )
    a, b = pool[0], pool[1]
    steps = st.sampled_from((Q(-1), Q(1, 3), Q(1, 2), Q(2, 3), Q(2)))
    line = {a, b}
    for t in draw(st.lists(steps, max_size=3)):
        on_line = tuple(x + t * (y - x) for x, y in zip(a, b))
        line.add(on_line)
        if on_line not in pool:
            pool.append(on_line)
    crosses = []
    for t in draw(st.lists(NONZERO_FACTORS.map(abs), max_size=2, unique=True)):
        ends = [(a[0], a[1] - t), (a[0], a[1] + t), (a[0] - t, a[1]), (a[0] + t, a[1])]
        for q in ends:
            if q not in pool:
                pool.append(q)
        ends = [pool.index(q) for q in ends]
        crosses += [(ends[0], ends[1]), (ends[2], ends[3])]
    index = st.integers(0, len(pool) - 1)
    pair = st.tuples(index, index).filter(lambda ij: ij[0] != ij[1])
    pairs = draw(st.lists(pair, min_size=4, max_size=14)) + crosses
    if draw(st.booleans()):
        chain = sorted(map(pool.index, line), key=pool.__getitem__)
        pairs += zip(chain, chain[1:])
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        pairs.append((j, i) if draw(st.booleans()) else (i, j))
    return PointSet(2, tuple(pool)), pairs


def _segments(points, pairs):
    return [(points.points[i], points.points[j]) for i, j in pairs]


class TestRationalSegmentCrossings:
    @given(rational_segments())
    @settings(max_examples=150, deadline=None)
    def test_matches_naive(self, case):
        points, pairs = case
        segs = _segments(points, pairs)
        assert count_segment_crossings(segs) == naive_crossings(segs)

    @given(rational_segments(), NONZERO_FACTORS)
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_scaling_and_rotation(self, case, factor):
        points, pairs = case
        count = count_segment_crossings(_segments(points, pairs))
        scaled = scale_points(points, factor)
        assert count_segment_crossings(_segments(scaled, pairs)) == count
        rotated = apply_matrix(ROTATION_2D, points)
        assert count_segment_crossings(_segments(rotated, pairs)) == count


PLANAR_POINTS = st.lists(
    st.tuples(RATIONALS, RATIONALS).filter(any), min_size=1, max_size=8, unique=True
)


@st.composite
def proof_graph_cases(draw):
    """Planar inputs of the proof multigraph, mixed denominators, no origin.

    Returns (points, second or None, include_zero, prebuilt).  The second set
    is absent, its own set, or one sharing points with the first.  Points put
    on the perpendicular of the first pin through a target share that pin's
    line, and multiples of the pin on its radial line see the same lines, so
    multiplicities above 1 occur.
    """
    form = draw(st.sampled_from(("one", "two", "overlap")))
    left = draw(PLANAR_POINTS)
    pin = left[0]
    for k in draw(st.lists(st.sampled_from((Q(2), Q(-1), Q(1, 2), Q(3, 2))), max_size=2)):
        multiple = (k * pin[0], k * pin[1])
        if multiple not in left:
            left.append(multiple)
    right = left if form == "one" else draw(PLANAR_POINTS)
    if form == "overlap":
        for p in draw(st.lists(st.sampled_from(left), max_size=3, unique=True)):
            if p not in right:
                right.append(p)
    # Through the origin, the perpendicular is the pin's zero line.
    base = (Q(0), Q(0)) if draw(st.booleans()) else draw(st.sampled_from(right))
    steps = st.sampled_from((Q(1), Q(-1, 2), Q(2, 3), Q(3)))
    for t in draw(st.lists(steps, min_size=2, max_size=3, unique=True)):
        q = (base[0] - t * pin[1], base[1] + t * pin[0])
        if any(q) and q not in right:
            right.append(q)
    second = None if form == "one" else PointSet(2, tuple(right))
    return PointSet(2, tuple(left)), second, draw(st.booleans()), draw(st.booleans())


class TestProofGraphReference:
    @given(proof_graph_cases())
    @settings(max_examples=150, deadline=None)
    def test_edges_match_reference(self, case):
        points, second, include_zero, prebuilt = case
        if prebuilt:
            index = DotProductIndex(points, second, include_zero=include_zero)
            edges = proof_graph_edges(points, second, index=index)
        else:
            edges = proof_graph_edges(points, second, include_zero=include_zero)
        assert edges == reference_proof_graph_edges(points, second, include_zero)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_crossings_match_naive(self, seed):
        ps = random_point_set(40, seed=seed)
        segs = list(proof_graph_edges(ps))
        assert proof_multigraph(ps).drawing_crossings == naive_crossings(segs)


class TestMaxPinned:
    def test_collinear(self):
        pin, count = max_pinned(COLLINEAR)
        assert pin == pt(1, 0) and count == 3

    def test_single_pair(self):
        pin, count = max_pinned(point_set([(1, 1), (2, 3)]))
        assert count >= 1

    def test_shifted_cube_grid(self):
        grid = integer_grid(4, dim=3)
        pin, count = max_pinned(grid)
        brute = max(len(pinned_set(p, grid)) for p in grid.points)
        assert count == brute
        from dottrees import meets_power_bound

        assert meets_power_bound(count, len(grid), Q(2, 5), 1)

    def test_union_bound(self):
        for seed in range(5):
            ps = random_instance(seed)
            summary = distinct_dot_products(ps)
            _, count = max_pinned(ps)
            assert count * len(ps) >= summary.distinct

    def test_too_small(self):
        with pytest.raises(ValueError):
            max_pinned(point_set([(1, 1)]))


class TestHyperplaneDescent:
    def test_cube_grid_trace(self):
        grid = integer_grid(3, dim=3)
        trace = hyperplane_descent(grid)
        assert len(trace.levels) == 1
        level = trace.levels[0]
        # Brute-force recomputation of the first level.
        best = max(len(pinned_set(p, grid)) for p in grid.points)
        assert level.distinct_count == best
        assert level.points_remaining * level.distinct_count >= len(grid)
        assert level.hyperplane.normal == level.pin
        assert trace.reported_count >= max(
            [lvl.distinct_count for lvl in trace.levels] + [trace.final_pinned_count]
        )

    def test_planar_degenerate_stops_immediately(self):
        ps = point_set([(x, y, 1) for x in range(1, 4) for y in range(1, 4)])
        trace = hyperplane_descent(ps)
        assert trace.levels == ()
        assert trace.final_points == len(ps)

    def test_pigeonhole_each_level(self):
        grid = point_set(product(range(2, 5), repeat=4))
        trace = hyperplane_descent(grid)
        remaining = len(grid)
        for level in trace.levels:
            assert level.points_remaining * level.distinct_count >= remaining
            remaining = level.points_remaining

    def test_trace_matches_independent_retrace(self):
        # Replay the descent with nothing but pinned_set and dot.
        grid = point_set(product(range(2, 5), repeat=4))
        trace = hyperplane_descent(grid)
        current = list(grid.points)
        for level in trace.levels:
            sizes = {}
            for p in current:
                sizes[p] = len(pinned_set(p, point_set(current)))
            best = max(sizes.values())
            assert level.distinct_count == best
            assert sizes[level.pin] == best
            members = [
                y for y in current if dot(level.pin, y) == level.hyperplane.value
            ]
            assert len(members) == level.points_remaining
            heaviest = max(
                len([y for y in current if dot(level.pin, y) == a and a != 0])
                for a in pinned_set(level.pin, point_set(current))
            )
            assert len(members) == heaviest
            current = members
        if len(current) >= 2:
            final_best = max(
                len(pinned_set(p, point_set(current))) for p in current
            )
            assert trace.final_pinned_count == final_best

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize(
        "points",
        [
            point_set(product(range(2, 5), repeat=4)),
            point_set(product(range(3), repeat=3)),
            random_point_set(40, dim=4, seed=2, low=-2, high=2),
            random_point_set(40, dim=5, seed=5, low=-1, high=1),
        ],
        ids=["grid4", "grid3-origin", "random4", "random5"],
    )
    def test_ties_break_toward_earliest_point(self, points, include_zero):
        # Replay each level with dot: the pin is the earliest point with the
        # most distinct values, and the hyperplane the heaviest level set
        # whose first point comes earliest.
        trace = hyperplane_descent(points, include_zero=include_zero)
        current = list(points.points)
        for level in trace.levels:
            subset = point_set(current)
            sizes = [
                -1 if all(c == 0 for c in p) else len(pinned_set(p, subset, include_zero))
                for p in current
            ]
            pin = current[sizes.index(max(sizes))]
            buckets = {}
            for y in current:
                if include_zero or dot(pin, y) != 0:
                    buckets.setdefault(dot(pin, y), []).append(y)
            heaviest = max(map(len, buckets.values()))
            value = next(v for v, members in buckets.items() if len(members) == heaviest)
            assert (level.pin, level.distinct_count) == (pin, max(sizes))
            assert level.hyperplane.value == value
            assert level.points_remaining == heaviest
            current = buckets[value]
        assert trace.final_points == len(current)

    @given(
        st.integers(3, 5).flatmap(lambda d: st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=12, unique=True
        )),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_level_shrinks_its_set(self, rows, include_zero):
        # A level set holding every point of a set of two or more would need
        # every pin equal to the best one (Cauchy-Schwarz), so each level
        # keeps fewer points than the set it came from.
        points = point_set(rows)
        remaining = len(points)
        for level in hyperplane_descent(points, include_zero=include_zero).levels:
            assert level.points_remaining < remaining
            remaining = level.points_remaining

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            hyperplane_descent(COLLINEAR)

    def test_huge_integer_coordinate(self):
        # A 400-digit coordinate is past any float; the rank check and the
        # descent stay on integers, and agree with the Fraction spelling.
        huge = 10**400 + 7
        rows = [p for p in integer_grid(3, dim=3).points] + [(huge, 1, 2)]
        ints = point_set(rows)
        fractions = PointSet(3, tuple(tuple(map(Q, p)) for p in rows))
        assert _affine_rank(ints.scaled[0]) == reference_affine_rank(rows) == 3
        trace = hyperplane_descent(ints)
        assert trace == hyperplane_descent(fractions)
        assert trace.levels and trace.levels[0].distinct_count >= 10


SCALARS = st.one_of(st.integers(-6, 6), RATIONALS)


@st.composite
def affine_configurations(draw):
    """Points o + t_1 v_1 + ... + t_k v_k of a random flat of dimension at
    most k <= d, in d = 2..4, int and Fraction coordinates mixed."""
    d = draw(st.integers(2, 4))
    vector = st.tuples(*[SCALARS] * d)
    origin = draw(vector)
    basis = draw(st.lists(vector, max_size=d))
    pts = [origin]
    for ts in draw(st.lists(st.tuples(*[SCALARS] * len(basis)), min_size=1, max_size=7)):
        pts.append(tuple(
            o + sum((t * v[i] for t, v in zip(ts, basis)), 0) for i, o in enumerate(origin)
        ))
    return pts


@given(affine_configurations())
def test_affine_rank_matches_fraction_elimination(pts):
    assert _affine_rank(_scaled(pts)[0]) == reference_affine_rank(pts)


class TestRotationAndScaling:
    def test_counts_rotation_invariant(self):
        ps = random_instance(7, max_points=9)
        rotated = apply_matrix(ROTATION_2D, ps)
        assert distinct_dot_products(ps) == distinct_dot_products(rotated)
        assert max_pinned(ps)[1] == max_pinned(rotated)[1]
        assert radial_histogram(ps).max_count == radial_histogram(rotated).max_count
        tree = make_path(2)
        assert distinct_weight_tuples(tree, ps) == distinct_weight_tuples(tree, rotated)


# ---------------------------------------------------------------------------
# Partner lists P(x, w) = [j : x . q_j = w]: the projection-and-solve kernel
# against the rows of products and the Fraction reference.
# ---------------------------------------------------------------------------

PATHS = ("solve", "table")
# A small pool of mixed denominators, so projections of a set repeat.
POOL = (0, 1, -1, 2, -3, Q(1, 2), Q(-3, 2), Q(2, 3), Q(5, 4), Q(-7, 6))


@contextmanager
def forced(path):
    """Run ``_partner_lists`` on one path whatever its rule says: the solve,
    where reading a row of products fails the test, or the rows."""
    def refuse(row, key):
        raise AssertionError("a row of products was read on the solve path")

    solve = path == "solve"
    with mock.patch.object(counting, "_SOLVE_STEP_COST", 0 if solve else 10**9), \
            mock.patch.object(counting, "_positions", refuse if solve else counting._positions):
        yield


def lattice_pair(q):
    """The calibrated d=2 lattice E and its dual F as one set."""
    lattice = build_unit_lattice(LatticeSpec(2, q))
    return PointSet(2, lattice.e_points.points + lattice.f_points.points)


def pool_sets(dims=(2, 3), max_size=12):
    coordinate = st.sampled_from(POOL)
    return st.sampled_from(dims).flatmap(lambda dim: st.lists(
        st.tuples(*[coordinate] * dim), min_size=1, max_size=max_size, unique=True
    ).map(lambda pts: PointSet(dim, tuple(pts))))


@st.composite
def partner_instances(draw):
    """Normals from the set or off it, the origin at times, each asking for
    zero, products with points of the set, or scalars off the pool, which
    mostly no pair attains or which scale to no int."""
    points = draw(pool_sets())
    extra = st.tuples(*[st.sampled_from(POOL)] * points.dim)
    normals = draw(st.lists(st.one_of(st.sampled_from(points.points), extra),
                            min_size=1, max_size=5, unique=True))
    scalar = st.builds(Q, st.integers(-9, 9), st.sampled_from((1, 2, 5, 7, 11)))
    values = [
        draw(st.lists(st.one_of(st.just(0), st.sampled_from([dot(x, q) for q in points.points]),
                                scalar), max_size=4))
        for x in normals
    ]
    return PointSet(points.dim, tuple(normals)), values, points


# (1, 0) . x = 1 for four points x, itself among them, and (0, 1) . (0, 1) = 1.
SELF_PARTNERS = point_set([(1, 0), (0, 1), (1, 1), (1, -1), (1, Q(1, 2))])


@st.composite
def weighted_instances(draw, max_size=7):
    """A tree of up to 3 edges, a pool set and weights taken from its
    products (zero and repeats included) or, at times, absent."""
    points = draw(pool_sets(max_size=max_size))
    k = draw(st.integers(1, 3))
    tree = tree_from_edges(k + 1, [(draw(st.integers(1, i)), i + 1) for i in range(1, k + 1)])
    products = [dot(p, q) for p in points.points for q in points.points]
    weight = st.one_of(st.sampled_from(products), st.sampled_from(POOL))
    return WeightedTree(tree, tuple(draw(weight) for _ in range(k))), points


class TestPartnerLists:
    @given(partner_instances())
    @settings(max_examples=150, deadline=None)
    def test_solve_and_table_match_reference(self, instance):
        normals, values, points = instance
        expected = reference_partner_lists(normals, values, points)
        for path in PATHS:
            with forced(path):
                assert counting._partner_lists(normals.scaled, values, points) == expected

    @pytest.mark.parametrize(
        "path, steps", [("solve", [5, 2, 2]), ("table", [10, 10, 10])], ids=PATHS
    )
    def test_normal_with_a_zero_in_the_preferred_coordinate(self, monkeypatch, path, steps):
        # Dropping y leaves 2 distinct x values, dropping x leaves 5 distinct
        # y values, so y is preferred; (3, 0) must be solved for x instead,
        # over 5 fibers, and (0, 1/2) and (1, 1) for y over 2.  A row has 10
        # products.
        points = point_set([(a, b) for a in (1, 2) for b in range(1, 6)])
        normals = point_set([(3, 0), (0, Q(1, 2)), (1, 1)])
        values = [[3, 6, 4], [1, Q(5, 2), 3], [3, 7]]
        dots, lengths = counting._dots, []
        monkeypatch.setattr(counting, "_dots", lambda p, columns: (
            lengths.append(len(columns[0])) or dots(p, columns)))
        with forced(path):
            lists = counting._partner_lists(normals.scaled, values, points)
        assert lists == [
            [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], []], [[1, 6], [4, 9], []], [[1, 5], [9]]
        ]
        assert lengths == steps

    @pytest.mark.parametrize("path", PATHS)
    def test_origin_and_weight_zero(self, path):
        points = point_set([(0, 0), (1, 0), (0, 2), (1, 1)])
        with forced(path):
            lists = counting._partner_lists(points.scaled, [[0, 1]] * len(points), points)
            wt = WeightedTree(make_path(2), (0, 0))
            embeddings = count_embeddings(wt, points, include_zero=True)
            homomorphisms = count_homomorphisms(wt, points, include_zero=True)
        # The origin meets every point at 0, itself included, and nothing at 1.
        assert lists[0] == [[0, 1, 2, 3], []]
        assert lists == reference_partner_lists(points, [[0, 1]] * len(points), points)
        assert embeddings == reference_count_embeddings(wt, points) == 10
        assert homomorphisms == naive_count_homomorphisms(wt, points)

    @pytest.mark.parametrize("path", PATHS)
    def test_weight_scaled_off_the_integers(self, path):
        # The points scale by 3 and 2, so a product is a multiple of 1/6;
        # 1/7 scales to 6/7, which no product of ints reaches.
        points = point_set([(Q(1, 3), 1), (1, Q(1, 2)), (2, 3)])
        with forced(path):
            assert counting._partner_lists(points.scaled, [[Q(1, 7)]] * 3, points) == [[[]]] * 3
            assert count_embeddings(WeightedTree(make_path(1), (Q(1, 7),)), points) == 0

    @pytest.mark.parametrize("path", PATHS)
    def test_divisibility_fails_in_a_fiber(self, path):
        # y is preferred (3 distinct x values against 6 y values).  For the
        # normal (1, 2) and w = 5, 2y = 5 - x has no integer y at x = 2.
        points = point_set([(a, b) for a in (1, 2, 3) for b in range(1, 7)])
        normals = point_set([(1, 2)])
        with forced(path):
            assert counting._partner_lists(normals.scaled, [[5]], points) == [[[1, 12]]]

    @pytest.mark.parametrize("path", PATHS)
    def test_weight_no_pair_attains(self, path):
        points = integer_grid(3)
        wt = WeightedTree(make_path(2), (2, 1000))
        with forced(path):
            lists = counting._partner_lists(points.scaled, [[1000]] * len(points), points)
            assert count_embeddings(wt, points) == count_homomorphisms(wt, points) == 0
        assert lists == [[[]]] * len(points)

    @pytest.mark.parametrize("path", PATHS)
    def test_one_vertex_tree(self, path):
        wt = WeightedTree(Tree(1, ()), ())
        points = lattice_pair(2)
        with forced(path):
            assert counting._partner_lists(points.scaled, [[]] * len(points), points) == [[]] * 16
            assert count_embeddings(wt, points) == count_homomorphisms(wt, points) == 16

    def test_empty_set_and_no_normals(self):
        empty = PointSet(2, ())
        assert counting._partner_lists(COLLINEAR.scaled, [[0, 1]] * 3, empty) == [[[], []]] * 3
        assert counting._partner_lists(empty.scaled, [], COLLINEAR) == []

    def test_rule_picks_the_cheaper_path(self, monkeypatch):
        # E u F at q=4: 4 m k = 4 * 32 * 1 = 128 <= n = 128, so it solves.
        # Criterion 1's sets: the path-2 column construction at n=20 has
        # m = 4 and k = 2, and 32 > 20 reads the rows.
        rows = []
        original = counting._positions
        monkeypatch.setattr(counting, "_positions", lambda row, key: rows.append(key) or original(row, key))
        assert count_embeddings(WeightedTree(make_path(3), (1, 1, 1)), lattice_pair(4)) == 484
        assert rows == []
        result = build_column_construction(make_path(2), 20)
        assert count_embeddings(result.weighted_tree, result.points) == result.predicted_count
        assert len(rows) == 2 * 20

    @pytest.mark.parametrize("path", PATHS)
    @given(instance=weighted_instances())
    @settings(max_examples=60, deadline=None)
    def test_count_embeddings_match_reference(self, path, instance):
        wt, points = instance
        with forced(path):
            assert count_embeddings(wt, points, include_zero=True) == (
                reference_count_embeddings(wt, points)
            )

    @given(instance=weighted_instances())
    @settings(max_examples=40, deadline=None)
    def test_count_embeddings_with_lent_index_match_reference(self, instance):
        wt, points = instance
        index = DotProductIndex(points)
        assert count_embeddings(wt, points, include_zero=True, index=index) == (
            reference_count_embeddings(wt, points)
        )

    def test_lent_index_leaves_the_partner_lists_alone(self, monkeypatch):
        # A lent table changes nothing: the search asks for the same lists.
        calls = []
        original = counting._partner_lists

        def recorded(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(counting, "_partner_lists", recorded)
        wt, points = WeightedTree(make_path(3), (1, 1, 1)), lattice_pair(3)
        lent = count_embeddings(wt, points, index=DotProductIndex(points), threads=2)
        assert count_embeddings(wt, points) == lent == 68
        assert len(calls) == 2 and calls[0] == calls[1]

    # Leaf groups of m = 2 or 3 on SELF_PARTNERS, where a weight-1 leaf can
    # share its centre's point, and zero weights with the origin present.
    @pytest.mark.parametrize("path", PATHS)
    @given(instance=weighted_instances(max_size=5))
    @settings(max_examples=40, deadline=None)
    @example(instance=(WeightedTree(make_star(4), (1, 1, 1, 0)), SELF_PARTNERS))
    @example(instance=(WeightedTree(make_perfect_binary(1), (1, 1)), SELF_PARTNERS))
    @example(instance=(WeightedTree(make_perfect_binary(2), (1,) * 6), SELF_PARTNERS))
    @example(instance=(WeightedTree(make_perfect_binary(2), (1, 0, 1, 1, 0, 0)),
                       point_set([(0, 0), (1, 0), (0, 1), (1, 1), (Q(1, 2), Q(-1, 2))])))
    def test_count_homomorphisms_match_naive(self, path, instance):
        wt, points = instance
        with forced(path):
            assert count_homomorphisms(wt, points, include_zero=True) == (
                naive_count_homomorphisms(wt, points)
            )

    @pytest.mark.parametrize("path", PATHS)
    def test_incidences_at_zero_and_on_rational_normals(self, path):
        points = point_set([(0, 0), (1, 2), (2, 4), (Q(1, 2), 1), (3, Q(1, 3))])
        planes = [
            alpha_hyperplane((2, -1), 0),  # the line y = 2x through the origin
            alpha_hyperplane((2, -1), 0),  # repeated: counts again
            alpha_hyperplane((Q(2, 3), Q(-1, 3)), 0),  # the same line, scaled
            alpha_hyperplane((Q(1, 3), 3), 2),  # meets (3, 1/3) only
            alpha_hyperplane((Q(1, 2), Q(1, 4)), Q(1, 2)),  # meets (1/2, 1) only
        ]
        with forced(path):
            assert incidences(points, planes) == reference_incidences(points, planes) == 14


# Unit weights on the calibrated d=2 lattice pair E u F at q = 2..5.
LATTICE_PAIR_COUNTS = {
    "path-2": (make_path(2), (4, 68, 336, 1212)),
    "path-3": (make_path(3), (2, 68, 484, 2524)),
    "star-3": (make_star(3), (0, 12, 228, 1536)),
}


@pytest.mark.parametrize("name", sorted(LATTICE_PAIR_COUNTS))
def test_lattice_pair_unit_counts_on_the_solve_path(name):
    tree, expected = LATTICE_PAIR_COUNTS[name]
    wt = WeightedTree(tree, (1,) * tree.num_edges)
    with forced("solve"):
        counts = tuple(count_embeddings(wt, lattice_pair(q)) for q in (2, 3, 4, 5))
    assert counts == expected
