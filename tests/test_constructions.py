import itertools
from fractions import Fraction as Q

import pytest

from dottrees import constructions, geometry
from dottrees import (
    DotProductIndex,
    LatticeSpec,
    PointSet,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
    count_embeddings,
    dot,
    incidences,
    make_path,
    make_perfect_binary,
    make_star,
    point,
)
from dottrees.trees import bipartition
from oracles import (
    naive_count_embeddings,
    reference_calibrated_window,
    reference_unit_identity,
    tree_from_edges,
    unit_planes,
)

pt = point


class TestColumnConstruction:
    def test_path_two_n_nine(self):
        result = build_column_construction(make_path(2), 9)
        xs = sorted({p[0] for p in result.points.points})
        assert xs == [1, 2, 3]
        assert sum(1 for p in result.points.points if p[0] == 1) == 4
        assert sum(1 for p in result.points.points if p[0] == 3) == 4
        assert pt(2, 0) in result.points.points
        assert result.weights == (2, 6)
        assert all(type(w) is int for w in result.weights)
        assert all(type(c) is int for p in result.points.points for c in p)
        assert result.predicted_count == 16
        assert naive_count_embeddings(result.weighted_tree, result.points) == 16

    def test_single_edge_n_ten(self):
        result = build_column_construction(make_path(1), 10)
        # Labeled embeddings double the column's 9: the single edge's weight-
        # preserving swap maps the column onto the axis point and back.
        assert result.predicted_count == 18
        assert sum(1 for p in result.points.points if p[0] == 1) == 9
        assert pt(2, 0) in result.points.points
        assert result.weights == (Q(2),)
        assert naive_count_embeddings(result.weighted_tree, result.points) == 18

    def test_abscissa_weight_pattern(self):
        # A column at x=8 against an axis point at (6,0) realizes weight 48.
        for y in range(1, 5):
            assert dot(pt(8, y), pt(6, 0)) == 48

    def test_exact_size_with_filler(self):
        for n in (8, 13, 17, 23):
            result = build_column_construction(make_star(3), n)
            assert len(result.points) == n

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            build_column_construction(make_path(3), 3)

    def test_predicted_is_assignment_product(self):
        for tree in (make_path(2), make_path(3), make_star(3), make_perfect_binary(1)):
            result = build_column_construction(tree, 18)
            product = 1
            for v in tree.vertices:
                product *= len(result.vertex_assignment[v])
            assert result.predicted_count == product

    def test_edge_weight_constant_over_assignments(self):
        result = build_column_construction(make_path(3), 16)
        for (a, b), w in zip(result.tree.edges, result.weights):
            for x in result.vertex_assignment[a]:
                for y in result.vertex_assignment[b]:
                    assert dot(x, y) == w

    @pytest.mark.parametrize(
        "tree", [make_path(2), make_path(3), make_star(3), make_perfect_binary(1)]
    )
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_oracle_equivalence(self, tree, n):
        result = build_column_construction(tree, n)
        engine = count_embeddings(result.weighted_tree, result.points)
        assert engine == result.predicted_count
        if len(result.points) <= 12 and tree.num_vertices <= 4:
            assert naive_count_embeddings(result.weighted_tree, result.points) == engine

    def test_scaling_ratio(self):
        tree = make_path(3)
        u, v = bipartition(tree)
        n = 24
        small = build_column_construction(tree, n)
        large = build_column_construction(tree, 2 * n)
        m_small = (n - len(v)) // len(u)
        m_large = (2 * n - len(v)) // len(u)
        assert large.predicted_count * m_small ** len(u) == (
            small.predicted_count * m_large ** len(u)
        )

    def test_filler_never_collides(self):
        result = build_column_construction(make_path(2), 40)
        weights = set(result.weights)
        fillers = [p for p in result.points.points if p[0] < 0]
        assert len(fillers) == 40 - len([p for p in result.points.points if p[0] > 0])
        for f in fillers:
            for p in result.points.points:
                if p != f:
                    assert dot(f, p) not in weights

    def test_metadata_records_choices(self):
        result = build_column_construction(make_path(2), 9)
        meta = result.metadata
        assert meta["construction"] == "columns"
        assert meta["abscissa_scheme"] in ("sequential", "primes")
        assert meta["column_size"] == 4
        assert meta["abscissas"] == {1: 1, 2: 2, 3: 3}

    def test_large_n_stays_exact(self):
        result = build_column_construction(make_path(2), 200)
        assert len(result.points) == 200
        assert count_embeddings(result.weighted_tree, result.points) == (
            result.predicted_count
        )

    def test_deeper_binary_tree_exact(self):
        tree = make_perfect_binary(2)
        result = build_column_construction(tree, 40)
        assert result.predicted_count == 7**5
        assert count_embeddings(result.weighted_tree, result.points) == 7**5
        perp = build_perp_lines_3d(tree, 35)
        assert perp.predicted_count == 5**7
        assert count_embeddings(perp.weighted_tree, perp.points) == 5**7

    def test_prime_fallback_on_product_collision(self):
        # A tree whose sequential BFS abscissas would let a non-edge pair
        # reproduce an edge weight: a star with center first gives products
        # 1*j; build one whose weights collide by construction.
        # Edges (1,2),(1,3),(1,4),(1,5),(1,6),(1,7): sequential abscissas
        # 1..7 give weights {2,...,7}; the non-edge pair {2,3} has product 6,
        # which is the weight of the edge to abscissa 6.
        tree = make_star(6)
        result = build_column_construction(tree, 40)
        meta = result.metadata
        assert meta["abscissa_scheme"] == "primes"
        engine = count_embeddings(result.weighted_tree, result.points)
        assert engine == result.predicted_count


class TestPerpLines:
    def test_path_two_n_nine_layout(self):
        result = build_perp_lines_3d(make_path(2), 9)
        by_x = {}
        for p in result.points.points:
            by_x.setdefault(p[0], []).append(p)
        assert {int(x) for x in by_x} == {1, 2, 3}
        # Odd-vertex lines free in y, the middle line free in z.
        assert all(p[2] == 0 for p in by_x[1])
        assert all(p[1] == 0 for p in by_x[2])
        assert all(p[2] == 0 for p in by_x[3])
        assert result.weights == (2, 6)
        assert all(type(w) is int for w in result.weights)
        assert all(type(c) is int for p in result.points.points for c in p)
        assert result.predicted_count == 27
        assert naive_count_embeddings(result.weighted_tree, result.points) == 27

    def test_n_twelve(self):
        result = build_perp_lines_3d(make_path(2), 12)
        assert result.predicted_count == 64
        assert count_embeddings(result.weighted_tree, result.points) == 64

    def test_single_edge_small(self):
        result = build_perp_lines_3d(make_path(1), 4)
        # The single edge again carries its weight-preserving swap: 2 * 2^2.
        assert result.predicted_count == 8
        assert result.weights == (Q(2),)
        assert naive_count_embeddings(result.weighted_tree, result.points) == 8

    def test_bigger_tree_line_count(self):
        tree = make_star(3)
        result = build_perp_lines_3d(tree, 16)
        lines = {p[0] for p in result.points.points if p[0] > 0}
        assert len(lines) == tree.num_vertices
        free_y = {x for x in lines if any(p[0] == x and p[1] != 0 for p in result.points.points)}
        free_z = {x for x in lines if any(p[0] == x and p[2] != 0 for p in result.points.points)}
        assert free_y.isdisjoint(free_z)
        assert len(free_y) + len(free_z) == len(lines)

    def test_eight_vertex_tree_line_pattern(self):
        # An 8-vertex tree whose color classes are {1,5,7,8} and {2,3,4,6}
        # puts the free y coordinate on lines x = 1,5,7,8 and the free z on
        # x = 2,3,4,6.
        tree = tree_from_edges(
            8, [(1, 2), (2, 5), (3, 5), (4, 5), (5, 6), (6, 7), (6, 8)]
        )
        result = build_perp_lines_3d(tree, 16)
        free_y = {int(p[0]) for p in result.points.points if p[0] > 0 and p[1] != 0}
        free_z = {int(p[0]) for p in result.points.points if p[0] > 0 and p[2] != 0}
        assert free_y == {1, 5, 7, 8}
        assert free_z == {2, 3, 4, 6}

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            build_perp_lines_3d(make_path(2), 5)

    def test_scaling_note_present(self):
        result = build_perp_lines_3d(make_path(2), 9)
        assert result.metadata["nominal_exponent"] == 2
        assert result.metadata["realized_exponent"] == 3
        assert "exponent" in result.metadata["scaling_note"]

    def test_edge_weight_constant(self):
        result = build_perp_lines_3d(make_path(3), 16)
        for (a, b), w in zip(result.tree.edges, result.weights):
            for x in result.vertex_assignment[a]:
                for y in result.vertex_assignment[b]:
                    assert dot(x, y) == w

    def test_prime_fallback(self):
        # Vertex-index abscissas on the 6-star make the non-edge pair {2,3}
        # reproduce the weight 6 of the edge to vertex 6.
        result = build_perp_lines_3d(make_star(6), 28)
        assert result.metadata["abscissa_scheme"] == "primes"
        assert count_embeddings(result.weighted_tree, result.points) == (
            result.predicted_count
        )


@pytest.mark.parametrize(
    "build", [build_column_construction, build_perp_lines_3d], ids=["columns", "perp-lines"]
)
def test_edge_weight_drift_is_value_error(monkeypatch, build):
    # Every integer product the check reads comes out one low, so the first
    # pair of the first edge drifts.
    w = build(make_path(2), 12).weights[0]

    def drifting_dots(p, columns):
        return (v - 1 for v in geometry._dots(p, columns))

    monkeypatch.setattr(constructions, "_dots", drifting_dots)
    with pytest.raises(ValueError) as failure:
        build(make_path(2), 12)
    assert str(failure.value) == f"edge (1,2) weight drifted: {w - 1} != {w}"


def test_edge_weight_check_names_first_drifting_pair_on_rationals():
    # Vertex 1 sits at (1/2, 0) and vertex 2 owns three points: products
    # 1, 1 and then 3/2, so the third partner is the first to drift.
    # The check reads each vertex's slice of the set's ints; a filler after
    # them, at (-1/7, 0), takes the scale from 6 to 42 and is not checked.
    tree = make_path(1)
    assignment = {1: (pt(Q(1, 2), 0),), 2: (pt(2, 1), pt(2, 5), pt(3, Q(1, 3)))}
    good = {1: assignment[1], 2: assignment[2][:2]}
    constructions._check_constant_edge_weights(tree, (1,), PointSet(2, good[1] + good[2]), good)
    points = PointSet(2, assignment[1] + assignment[2] + (pt(Q(-1, 7), 0),))
    with pytest.raises(ValueError) as failure:
        constructions._check_constant_edge_weights(tree, (1,), points, assignment)
    assert str(failure.value) == "edge (1,2) weight drifted: 3/2 != 1"


def _scale_moved_dual_points(monkeypatch, f_pts, moved):
    """Patch the scaling ``PointSet`` runs at construction so that the F set
    ``f_pts``, and no other, is scaled with point i replaced by
    ``moved[i]``: the build check reads the moved ints, while F keeps its
    points and the error names them."""
    original = geometry._scaled

    def scaled_with_moved_points(points):
        if points == f_pts:
            points = [moved.get(i, f) for i, f in enumerate(points)]
        return original(points)

    monkeypatch.setattr(geometry, "_scaled", scaled_with_moved_points)


class TestUnitLattice:
    def test_identity_violation_is_value_error(self, monkeypatch):
        # The build check reads F's scaled form; move the first or last dual
        # point by 1/10^6 in its last coordinate on the way in.
        for spec in (LatticeSpec(2, 2), LatticeSpec(3, 3, mode="paper")):
            f_pts = build_unit_lattice(spec).f_points.points
            for which in (0, len(f_pts) - 1):
                f = f_pts[which]
                _scale_moved_dual_points(monkeypatch, f_pts, {which: f[:-1] + (f[-1] + Q(1, 10**6),)})
                with pytest.raises(ValueError, match="unit identity failed"):
                    build_unit_lattice(spec)
                monkeypatch.undo()

    def test_identity_failure_names_first_failing_dual_point(self, monkeypatch):
        # Dual point 2 is moved along the first x of its hyperplane, so it
        # fails from the second prefix on; the last dual point fails at every
        # prefix.  The report is f-major: point 2, at the second prefix.
        spec = LatticeSpec(2, 3, mode="paper")
        f_pts = build_unit_lattice(spec).f_points.points
        early, late = f_pts[2], f_pts[-1]
        first, second = Q(4, 6), Q(5, 6)  # the first two x' = a/(dq), a = q+1, q+2
        on_plane = [(x0, (1 - early[0] * x0) / early[1]) for x0 in (first, second)]
        eps = Q(1, 10**6)
        x0, x1 = on_plane[0]
        moved = {2: (early[0] + x1 * eps, early[1] - x0 * eps),
                 len(f_pts) - 1: late[:-1] + (late[-1] + eps,)}
        _scale_moved_dual_points(monkeypatch, f_pts, moved)
        with pytest.raises(ValueError) as failure:
            build_unit_lattice(spec)
        assert str(failure.value) == f"unit identity failed for f={early}, x={on_plane[1]}"

    def test_build_hashes_no_fraction_and_makes_each_coordinate_once(self, monkeypatch):
        # d=3, q=4 in paper mode: E's q + q^2 coordinate values and F's
        # q^3 + q^2 (-gamma dq/beta and d^2 q^2/beta), one Fraction each,
        # against 3 (q^4 + q^4) coordinates of E and F.
        q = 4
        reference = build_unit_lattice(LatticeSpec(3, q, mode="paper"))
        made = []
        original = Q.__new__

        def recording(cls, *args, **kwargs):
            made.append(args)
            return original(cls, *args, **kwargs)

        def refuse(value):
            raise AssertionError(f"hashed {value!r}")

        monkeypatch.setattr(Q, "__new__", recording)
        monkeypatch.setattr(Q, "__hash__", refuse)
        result = build_unit_lattice(LatticeSpec(3, q, mode="paper"))
        monkeypatch.undo()
        assert len(made) == q + q**2 + q**3 + q**2
        assert len(set(made)) == len(made)
        assert result.e_points == reference.e_points and result.f_points == reference.f_points

    def test_paper_mode_d2_q2_sets(self):
        result = build_unit_lattice(LatticeSpec(2, 2, mode="paper"))
        a_coords = sorted({p[0] for p in result.e_points.points})
        b_coords = sorted({p[1] for p in result.e_points.points})
        assert a_coords == [Q(3, 4), Q(1)]
        assert b_coords == [Q(5, 16), Q(3, 8), Q(7, 16), Q(1, 2)]
        assert len(result.e_points) == 8
        assert len(result.f_points) == 8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("q", [2, 3])
    def test_sizes(self, d, q):
        result = build_unit_lattice(LatticeSpec(d, q, mode="paper"))
        assert len(result.e_points) == q ** (d + 1)
        assert len(result.f_points) == q ** (d + 1)
        assert len(result.e_points) == q ** (d - 1) * q**2

    @pytest.mark.parametrize("d,q", [(2, 2), (2, 3), (3, 2)])
    def test_unit_identity_on_synthesized_points(self, d, q):
        # (c, b) come from the recorded ranges, not from f, so a dual point
        # off its hyperplane would fail here.
        result = build_unit_lattice(LatticeSpec(d, q, mode="paper"))
        assert reference_unit_identity(result) == (q ** (2 * d), 0)

    def test_hyperplane_membership_matches_unit_product(self):
        result = build_unit_lattice(LatticeSpec(2, 3, mode="calibrated"))
        unit = sum(dot(e, f) == 1 for f in result.f_points.points for e in result.e_points.points)
        assert incidences(result.e_points, unit_planes(result.f_points)) == unit > 0

    def test_paper_mode_misses_lattice(self):
        # With the ranges exactly as printed, no lattice point reaches any
        # hyperplane in the plane; calibrated mode exists for this reason.
        result = build_unit_lattice(LatticeSpec(2, 3, mode="paper"))
        assert incidences(result.e_points, unit_planes(result.f_points)) == 0

    @pytest.mark.parametrize("d,q,pairs", [
        (2, 2, 9), (2, 3, 43), (2, 4, 130), (2, 5, 320), (2, 6, 660), (2, 7, 1233),
        (2, 8, 2105), (3, 2, 26), (3, 3, 283), (3, 4, 1582),
    ])
    def test_calibrated_unit_pairs_match_prediction(self, d, q, pairs):
        # The prediction comes from the window search, not from any dot
        # product; the frozen counts pin this deterministic construction.
        result = build_unit_lattice(LatticeSpec(d, q, mode="calibrated"))
        counted = incidences(result.e_points, unit_planes(result.f_points))
        assert counted == result.metadata["expected_unit_pairs"] == pairs

    def test_calibrated_q4_rich_hyperplanes(self):
        result = build_unit_lattice(LatticeSpec(2, 4, mode="calibrated"))
        rich = 0
        for f in result.f_points.points:
            on_plane = sum(1 for e in result.e_points.points if dot(f, e) == 1)
            if on_plane >= 2:
                rich += 1
        assert 2 * rich >= len(result.f_points)

    def test_calibrated_q4_unit_value_multiplicity(self):
        result = build_unit_lattice(LatticeSpec(2, 4, mode="calibrated"))
        counts = DotProductIndex(result.e_points, result.f_points).pair_counts()
        # The most repeated value is the unit product, at least q^4/2 times.
        assert 2 * max(counts.values()) >= 4**4
        assert max(counts.values()) == 130

    def test_calibrated_window_recorded(self):
        result = build_unit_lattice(LatticeSpec(2, 4, mode="calibrated"))
        lo, hi = result.metadata["e_last_numerators"]
        assert hi - lo + 1 == 16

    @pytest.mark.parametrize("d, q", [(2, q) for q in range(2, 7)] + [(3, q) for q in range(2, 5)])
    def test_calibrated_window_matches_reference(self, d, q):
        meta = build_unit_lattice(LatticeSpec(d, q)).metadata
        lo, hi = meta["e_last_numerators"]
        assert (lo, hi, meta["expected_unit_pairs"]) == reference_calibrated_window(
            d, q * q, range(q + 1, 2 * q + 1), range(q * q + 1, 2 * q * q + 1)
        )

    # Small numerator ranges: the first three have tied best windows, the
    # first two not at the least value; the last window is wider than the
    # values' span.
    @pytest.mark.parametrize(
        "d, width, a_nums, b_nums",
        [
            (2, 2, range(-2, 0), range(-2, 1)),
            (2, 3, range(-2, 0), range(-2, 2)),
            (2, 2, range(0, 1), range(1, 6)),
            (3, 4, range(1, 3), range(2, 6)),
            (2, 20, range(1, 3), range(1, 3)),
        ],
    )
    def test_calibrated_window_keeps_first_best(self, d, width, a_nums, b_nums):
        prefixes = list(itertools.product(a_nums, repeat=d - 1))
        assert constructions._calibrated_window(width, prefixes, b_nums) == (
            reference_calibrated_window(d, width, a_nums, b_nums)
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(1, 4)
        with pytest.raises(ValueError):
            LatticeSpec(2, 1)
        with pytest.raises(ValueError):
            LatticeSpec(2, 4, mode="exotic")

    def test_spec_takes_ints(self):
        for args, message in (
            ((2.0, 4), r"dimension must be an int, got 2\.0"),
            ((2, 4.5), r"q must be an int, got 4\.5"),
            ((1, 4), "dimension must be at least 2, got 1"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                LatticeSpec(*args)
