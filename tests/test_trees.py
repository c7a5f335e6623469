import itertools
import random
from fractions import Fraction as Q
from io import StringIO

import pytest

import dottrees
from dottrees import (
    ParseError,
    Tree,
    WeightedTree,
    bipartition,
    format_tree,
    make_path,
    make_perfect_binary,
    make_star,
    read_tree,
)
from oracles import tree_from_edges


class TestTreeValidation:
    def test_requires_tree_edge_count(self):
        with pytest.raises(ValueError):
            Tree(3, ((1, 2),))

    def test_rejects_cycle(self):
        with pytest.raises(ValueError):
            Tree(3, ((1, 2), (1, 3), (2, 3)))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            Tree(4, ((1, 2), (3, 4), (1, 2)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Tree(3, ((2, 3), (1, 2)))

    def test_single_vertex(self):
        t = Tree(1, ())
        assert t.num_edges == 0

    def test_nonpositive_vertex_count(self):
        with pytest.raises(ValueError):
            Tree(0, ())

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Tree(2, ((1, 3),))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_accepts_exactly_the_connected_edge_lists(self, n):
        # Every strictly increasing list of n - 1 distinct pairs: Tree accepts
        # it exactly when it connects all n vertices, Cayley's n^(n-2) lists.
        def connects(edges):
            reached = {1}
            grown = True
            while grown:
                grown = False
                for a, b in edges:
                    if (a in reached) != (b in reached):
                        reached |= {a, b}
                        grown = True
            return len(reached) == n

        accepted = 0
        pairs = itertools.combinations(range(1, n + 1), 2)
        for edges in itertools.combinations(pairs, n - 1):
            if connects(edges):
                assert Tree(n, edges).edges == edges
                accepted += 1
            else:
                with pytest.raises(ValueError, match="disconnected or contains a cycle"):
                    Tree(n, edges)
        assert accepted == (n ** (n - 2) if n > 1 else 1)

    def test_bfs_root_validated(self):
        with pytest.raises(ValueError):
            make_path(2).bfs_order(9)

    def test_bfs_parents(self):
        parents = make_perfect_binary(2).bfs_parents(2)
        assert list(parents) == [2, 1, 4, 5, 3, 6, 7]
        assert parents == {2: 0, 1: 2, 4: 2, 5: 2, 3: 1, 6: 3, 7: 3}


class TestGenerators:
    def test_path(self):
        t = make_path(3)
        assert t.edges == ((1, 2), (2, 3), (3, 4))

    def test_star(self):
        t = make_star(3)
        assert t.edges == ((1, 2), (1, 3), (1, 4))

    @pytest.mark.parametrize("h,vertices,edges", [(0, 1, 0), (1, 3, 2), (2, 7, 6)])
    def test_perfect_binary_sizes(self, h, vertices, edges):
        t = make_perfect_binary(h)
        assert t.num_vertices == vertices and t.num_edges == edges

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            make_path(bad)
        with pytest.raises(ValueError):
            make_star(bad)
        with pytest.raises(ValueError):
            make_perfect_binary(-1)


class TestBipartition:
    def test_path_three(self):
        assert bipartition(make_path(2)) == (frozenset({1, 3}), frozenset({2}))

    def test_is_no_public_type(self):
        # A bipartition is its pair of frozensets; the package exports no wrapper.
        assert not hasattr(dottrees, "Bipartition")

    def test_star_center_is_small_class(self):
        assert bipartition(make_star(3)) == (frozenset({2, 3, 4}), frozenset({1}))

    def test_perfect_binary_level_parity(self):
        # Levels 0, 1, 2 hold 1, 2, 4 vertices; even levels form the larger
        # class {root, grandchildren}.
        u, v = bipartition(make_perfect_binary(2))
        assert (len(u), len(v)) == (5, 2)
        assert u == frozenset({1, 4, 5, 6, 7})

    def test_proper_coloring_and_sizes(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 12)
            edges = [(rng.randint(1, i), i + 1) for i in range(1, n)]
            t = tree_from_edges(n, edges)
            u, v = bipartition(t)
            assert len(u) + len(v) == t.num_vertices
            assert len(u) >= -(-t.num_vertices // 2)
            for a, c in t.edges:
                assert (a in u) != (c in u)


class TestTreeFormat:
    def test_weighted_path(self):
        wt = read_tree(StringIO("k 2\n1 2 2\n2 3 6\n"))
        assert wt.tree == make_path(2)
        assert wt.weights == (Q(2), Q(6))

    def test_canonicalization_permutes_weights(self):
        a = read_tree(StringIO("k 2\n1 2 2\n2 3 6\n"))
        b = read_tree(StringIO("k 2\n2 3 6\n1 2 2\n"))
        assert a == b

    def test_disconnected_rejected(self):
        with pytest.raises(ParseError):
            read_tree(StringIO("k 2\n1 2\n3 4\n"))  # needs wait: vertex 4 > k+1

    def test_cycle_rejected(self):
        with pytest.raises(ParseError):
            read_tree(StringIO("k 3\n1 2\n1 3\n2 3\n"))

    def test_bad_index(self):
        with pytest.raises(ParseError):
            read_tree(StringIO("k 1\n2 1\n"))
        with pytest.raises(ParseError):
            read_tree(StringIO("k 1\n1 5\n"))

    def test_mixed_weights_rejected(self):
        with pytest.raises(ParseError):
            read_tree(StringIO("k 2\n1 2 5\n2 3\n"))

    def test_unweighted(self):
        wt = read_tree(StringIO("k 2\n1 2\n2 3\n"))
        assert wt.weights is None
        with pytest.raises(ValueError):
            wt.require_weights()

    def test_comments(self):
        wt = read_tree(StringIO("# tree\nk 1\n# edge\n1 2 1/2\n"))
        assert wt.weights == (Q(1, 2),)

    def test_roundtrip(self):
        wt = WeightedTree(make_star(3), (Q(1), Q(2, 3), Q(-5)))
        assert read_tree(StringIO(format_tree(wt))) == wt

    def test_single_vertex_roundtrip(self):
        wt = read_tree(StringIO("k 0\n"))
        assert wt.tree.num_vertices == 1 and wt.tree.edges == ()
        assert format_tree(wt) == "k 0\n"

    def test_canonical_order_is_total(self):
        # Any permutation of the edge lines loads to identical bytes on write.
        base = ["1 2 2", "2 3 6", "2 4 8"]
        outputs = set()
        for perm in itertools.permutations(base):
            text = "k 3\n" + "\n".join(perm) + "\n"
            outputs.add(format_tree(read_tree(StringIO(text))))
        assert len(outputs) == 1


class TestWeightedTree:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            WeightedTree(make_path(2), (Q(1),))

    def test_float_weight_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            WeightedTree(make_path(1), (0.1,))

    def test_weights_are_exact_scalars(self):
        wt = WeightedTree(make_path(2), [Q(4, 2), "3/6"])
        assert wt.weights == (2, Q(1, 2))
        assert type(wt.weights[0]) is int
