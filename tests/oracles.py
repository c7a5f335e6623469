"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates definitions directly (permutations, products,
substitution into equations) and never touches the engine code paths it
checks, but for ``engine_weight_tuples``, which decodes the engine's own
tuple set for the tests to compare with the oracles'.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product, zip_longest

from dottrees import PointSet, WeightedTree, alpha_hyperplane, dot
from dottrees.counting import DotProductIndex, _search_order, _weight_tuple_masks
from dottrees.trees import Tree

# An exact rotation: rows of an orthogonal matrix with rational entries.
ROTATION_2D = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-4, 5), Fraction(3, 5)),
)


def apply_matrix(matrix, ps: PointSet) -> PointSet:
    rows = [tuple(Fraction(x) for x in row) for row in matrix]
    pts = []
    for p in ps.points:
        pts.append(tuple(sum(r * c for r, c in zip(row, p)) for row in rows))
    return PointSet(ps.dim, tuple(pts))


def scale_points(ps: PointSet, factor) -> PointSet:
    factor = Fraction(factor)
    return PointSet(ps.dim, tuple(tuple(factor * c for c in p) for p in ps.points))


def naive_count_embeddings(wt: WeightedTree, ps: PointSet) -> int:
    """Definitionally enumerate injective maps over all vertex tuples."""
    weights = wt.require_weights()
    k1 = wt.tree.num_vertices
    total = 0
    for combo in permutations(ps.points, k1):
        phi = dict(zip(range(1, k1 + 1), combo))
        if all(
            dot(phi[a], phi[b]) == w for (a, b), w in zip(wt.tree.edges, weights)
        ):
            total += 1
    return total


def naive_count_homomorphisms(wt: WeightedTree, ps: PointSet) -> int:
    """Definitionally enumerate all (not necessarily injective) maps."""
    weights = wt.require_weights()
    k1 = wt.tree.num_vertices
    total = 0
    for combo in product(ps.points, repeat=k1):
        phi = dict(zip(range(1, k1 + 1), combo))
        if all(
            dot(phi[a], phi[b]) == w for (a, b), w in zip(wt.tree.edges, weights)
        ):
            total += 1
    return total


def naive_weight_tuples(
    tree: Tree, ps: PointSet, include_zero: bool = False
) -> set[tuple[Fraction, ...]]:
    """All realized edge-weight tuples over injective maps, by enumeration."""
    k1 = tree.num_vertices
    tuples = set()
    for combo in permutations(ps.points, k1):
        phi = dict(zip(range(1, k1 + 1), combo))
        tup = tuple(dot(phi[a], phi[b]) for a, b in tree.edges)
        if not include_zero and any(w == 0 for w in tup):
            continue
        tuples.add(tup)
    return tuples


def naive_pinned_weight_tuples(
    tree: Tree, vertex: int, pin, ps: PointSet, include_zero: bool = False
) -> set[tuple[Fraction, ...]]:
    k1 = tree.num_vertices
    pin = tuple(Fraction(c) for c in pin)
    tuples = set()
    for combo in permutations(ps.points, k1):
        phi = dict(zip(range(1, k1 + 1), combo))
        if phi[vertex] != pin:
            continue
        tup = tuple(dot(phi[a], phi[b]) for a, b in tree.edges)
        if not include_zero and any(w == 0 for w in tup):
            continue
        tuples.add(tup)
    return tuples


def reference_pair_counts(left: PointSet, right: PointSet, include_zero: bool) -> dict:
    """Ordered pairs (p, q) of distinct points, p in ``left`` and q in
    ``right``, per ``dot`` product; zero left out unless ``include_zero``."""
    counts: dict = {}
    for p in left.points:
        for q in right.points:
            value = dot(p, q)
            if p != q and (include_zero or value != 0):
                counts[value] = counts.get(value, 0) + 1
    return counts


def reference_partner_lists(normals: PointSet, values, points: PointSet) -> list:
    """``[j : x . points[j] == w]`` for each normal x and each w of its
    values, one ``Fraction`` dot product per pair."""
    return [
        [[j for j, q in enumerate(points.points) if dot(x, q) == w] for w in ws]
        for x, ws in zip(normals.points, values)
    ]


def unit_planes(points: PointSet) -> list:
    """The hyperplane f.x = 1 of every f in ``points`` but the origin."""
    return [alpha_hyperplane(f, 1) for f in points.points if any(f)]


def reference_incidences(ps: PointSet, hyperplanes) -> int:
    """(point, hyperplane) pairs with the point on the hyperplane, one
    ``Fraction`` dot product per pair; a repeated hyperplane counts again."""
    return sum(1 for plane in hyperplanes for p in ps.points
               if dot(plane.normal, p) == plane.value)


def reference_affine_rank(pts) -> int:
    """Dimension of the affine span of ``pts``: Gaussian elimination of the
    differences from the first point, in ``Fraction`` arithmetic."""
    rows = [[Fraction(c) - Fraction(b) for c, b in zip(p, pts[0])] for p in pts[1:]]
    rank = 0
    for col in range(len(pts[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)]
                    for r in rows if r is not pivot]
            rank += 1
    return rank


def naive_crossings(segments) -> int:
    """O(n^2) proper-crossing count by solving each pair exactly."""

    def orient(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    count = 0
    for i in range(len(segments)):
        for j in range(i + 1, len(segments)):
            (p1, p2), (q1, q2) = segments[i], segments[j]
            if p1 in (q1, q2) or p2 in (q1, q2):
                continue
            o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
            o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
            if 0 in (o1, o2, o3, o4):
                continue
            if (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
                count += 1
    return count


def reference_proof_graph_edges(
    points: PointSet, second: PointSet | None = None, include_zero: bool = False
) -> dict[tuple, int]:
    """Consecutive-point edges and their multiplicities, from ``dot`` per pin.

    Each pin's points of the second set are grouped by their exact dot
    product with it, zero left out unless ``include_zero``; each group is
    sorted, and consecutive points in it pair up as one edge.
    """
    right = second if second is not None else points
    edges: dict[tuple, int] = {}
    for p in points.points:
        groups: dict[Fraction, list] = {}
        for q in right.points:
            value = dot(p, q)
            if value != 0 or include_zero:
                groups.setdefault(value, []).append(q)
        for group in groups.values():
            group.sort()
            for pair in zip(group, group[1:]):
                edges[pair] = edges.get(pair, 0) + 1
    return edges


def tree_from_edges(num_vertices: int, edges) -> Tree:
    """The tree of an edge list in any order, each pair in either orientation."""
    return Tree(num_vertices, tuple(sorted((min(a, b), max(a, b)) for a, b in edges)))


def engine_weight_tuples(
    tree: Tree, points: PointSet, include_zero: bool = False
) -> frozenset[tuple]:
    """The tuples ``distinct_weight_tuples`` counts, decoded from the value-id
    bitmasks of its search: a key holds the components of the search's
    positions 1 on, then of the leaf group but its last leaf; each mask bit
    is one value id of the last leaf, numbered as in the set's own table."""
    masks = _weight_tuple_masks(tree, points, include_zero, None)
    _, edges, group, _ = _search_order(tree, None)
    layout, last = edges[1:] + group[:-1], group[-1]
    index = DotProductIndex(points, include_zero=include_zero)
    values = [index.value(a) for a in range(len(index.ids))]
    tuples = set()
    for key, mask in masks.items():
        comps = dict(zip(layout, key))
        while mask:
            comps[last] = (mask & -mask).bit_length() - 1
            tuples.add(tuple(values[comps[j]] for j in range(len(comps))))
            mask &= mask - 1
    return frozenset(tuples)


def reference_count_embeddings(wt: WeightedTree, ps: PointSet) -> int:
    """Backtrack over the edges in canonical order, one point at a time.

    Every vertex is enumerated, leaves included, by recursion over the
    edges; partners come from ``dot`` directly.  This is the engine's search
    before it counted leaf groups, kept as a reference for small inputs.
    """
    weights = wt.require_weights()
    edges = wt.tree.edges
    if wt.tree.num_vertices > len(ps):
        return 0
    if not edges:
        return len(ps)

    def partners(p, w):
        return [q for q in ps.points if dot(p, q) == w]

    def extend(j, assignment, used):
        if j == len(edges):
            return 1
        a, b = edges[j]
        w = weights[j]
        pa, pb = assignment.get(a), assignment.get(b)
        if pa is not None and pb is not None:
            return extend(j + 1, assignment, used) if dot(pa, pb) == w else 0
        total = 0
        if pa is not None or pb is not None:
            anchor, free = (pa, b) if pa is not None else (pb, a)
            for y in partners(anchor, w):
                if y not in used:
                    total += extend(j + 1, {**assignment, free: y}, used | {y})
        else:
            for x in ps.points:
                for y in partners(x, w):
                    if x != y and x not in used and y not in used:
                        total += extend(j + 1, {**assignment, a: x, b: y}, used | {x, y})
        return total

    a0, b0 = edges[0]
    return sum(
        extend(1, {a0: x, b0: y}, {x, y})
        for x in ps.points
        for y in partners(x, weights[0])
        if x != y
    )


def reference_weight_tuples(
    tree: Tree, ps: PointSet, include_zero: bool = False, pinned=None
) -> set[tuple[Fraction, ...]]:
    """Edge-weight tuples of every injective map, vertex by vertex.

    The vertices are placed in breadth-first order from the pinned vertex
    (``pinned`` = (vertex, point)) or from vertex 1, recursing once per
    vertex and pruning a zero component unless ``include_zero``.  This is
    the engine's enumerator before it counted leaf groups by value.
    """
    root = pinned[0] if pinned is not None else 1
    parent = tree.bfs_parents(root)
    order = list(parent)
    edge_idx = {e: j for j, e in enumerate(tree.edges)}
    tuples: set[tuple[Fraction, ...]] = set()
    comps = [Fraction(0)] * tree.num_edges
    assigned = {}

    def rec(pos):
        if pos == len(order):
            tuples.add(tuple(comps))
            return
        v = order[pos]
        u = parent[v]
        j = edge_idx[(min(u, v), max(u, v))]
        for y in ps.points:
            if y in assigned.values():
                continue
            value = dot(assigned[u], y)
            if value == 0 and not include_zero:
                continue
            comps[j] = value
            assigned[v] = y
            rec(pos + 1)
            del assigned[v]

    starts = [tuple(Fraction(c) for c in pinned[1])] if pinned is not None else ps.points
    if len(order) <= len(ps):
        for x in starts:
            assigned[root] = x
            rec(1)
    return tuples


def reference_unit_identity(result) -> tuple[int, int]:
    """(checks, failures) of a lattice's unit identity, in Fractions.

    Each dual point's (c, b) comes from the recorded numerator ranges, in the
    builder's order (prefixes, then b); every x = (x', c . x' + b) must have
    f . x = 1.  A dual point beyond the ranges, or a (c, b) with no dual
    point, is one failure and no check.
    """
    meta = result.metadata
    a_lo, a_hi = meta["a_numerators"]
    b_lo, b_hi = meta["f_b_numerators"]
    a_vals = [Fraction(i, meta["a_denominator"]) for i in range(a_lo, a_hi + 1)]
    b_vals = [Fraction(j, meta["b_denominator"]) for j in range(b_lo, b_hi + 1)]
    prefixes = list(product(a_vals, repeat=meta["dim"] - 1))
    checks = failures = 0
    for f, params in zip_longest(result.f_points.points, product(prefixes, b_vals)):
        if f is None or params is None:
            failures += 1
            continue
        c, b = params
        for x_prefix in prefixes:
            x = x_prefix + (sum(ci * xi for ci, xi in zip(c, x_prefix)) + b,)
            checks += 1
            if dot(f, x) != 1:
                failures += 1
    return checks, failures


def reference_calibrated_window(d, width, a_nums, b_nums) -> tuple[int, int, int]:
    """(lo, hi, covered) of the first ``width``-wide numerator window holding
    the most values c . x' + b, c and x' over ``a_nums``^(d-1), b over
    ``b_nums``: every triple is counted in every window, least window first.
    """
    prefixes = list(product(a_nums, repeat=d - 1))
    values = [
        sum(ci * xi for ci, xi in zip(c, x)) + b
        for c in prefixes
        for x in prefixes
        for b in b_nums
    ]
    least, most = min(values), max(values)
    best = None
    for lo in range(least, max(least, most - width + 1) + 1):
        covered = sum(1 for v in values if lo <= v <= lo + width - 1)
        if best is None or covered > best[2]:
            best = (lo, lo + width - 1, covered)
    return best
