"""Exact counting engines over point sets.

Pinned dot-product sets, distinct dot products, weighted-tree embedding and
homomorphism counts, distinct weight tuples, point-hyperplane incidences,
radial histograms, the consecutive-points proof multigraph, and the
hyperplane pigeonhole descent.  Everything here compares exact rationals; no
tolerance appears anywhere.

Two kernels serve them.  ``DotProductIndex`` numbers every product of two
sets, for the questions about all values: distinct products, pinned sets,
weight tuples, the proof multigraph and the descent.  ``_partner_lists``
answers the questions about a few fixed values, P(x, w) = {j : x . q_j = w}:
embedding and homomorphism counts and incidences.  It solves each query by
projection, or reads it off a row of products when its cost rule says a row
is cheaper, and never builds the all-pairs table.

All three tree counters, embeddings, homomorphisms and weight tuples, walk
the one search order of ``_search_order``, which counts u's leaves by formula.

Zero dot products are excluded by default in every operation and can be
admitted with ``include_zero=True``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, islice, repeat
from operator import eq, floordiv, itemgetter, mod, mul, ne, not_, sub
from typing import NamedTuple, Sequence

from .geometry import (
    AlphaHyperplane,
    Direction,
    Point,
    PointSet,
    Scalar,
    _direction,
    _dots,
    _IntPoint,
    _scaled,
    is_origin,
    point,
)
from .trees import Tree, WeightedTree

__all__ = [
    "DotProductIndex",
    "DotProductSummary",
    "RadialHistogram",
    "ProofGraphStats",
    "DescentLevel",
    "DescentTrace",
    "pinned_set",
    "distinct_dot_products",
    "count_embeddings",
    "count_homomorphisms",
    "distinct_weight_tuples",
    "pinned_weight_tuples",
    "incidences",
    "radial_histogram",
    "proof_graph_edges",
    "proof_multigraph",
    "max_pinned",
    "hyperplane_descent",
    "count_segment_crossings",
]

class DotProductIndex:
    """All dot products between two point sets, as one table of value ids.

    Each set's cached scaled form (``PointSet.scaled``) makes every product
    a Python int at the scale ``L_left * L_right``.  ``rows[i][j]`` is the
    id of ``left[i] . right[j]``, ids numbering the products in row-major
    order of first appearance; ``ids`` maps each scaled product to its id.
    A row is built in C-level iterators: the right set is transposed into
    coordinate columns once, the row's products come from ``_dots``, and
    each takes its id in one lookup: while the table is built, ``ids`` is a
    ``defaultdict`` whose factory, ``itertools.count().__next__``, gives a
    new product the next id.  The factory is cleared once the rows are
    built, so a later lookup of a missing product raises ``KeyError``.
    For one set (``right is left``) row i copies its first i ids from column
    i of the rows above, as p.q = q.p, and computes only the products from
    position i on; those first i products appeared in earlier rows, so the
    numbering is unchanged.  A scalar is built only for output (``value``):
    an int when the product is integral, else a ``Fraction``.
    ``skip`` is the id of zero, which the counters leave out, or -1 under
    ``include_zero``.  Every all-pairs counter reads this table.
    """

    def __init__(
        self,
        left: PointSet,
        right: PointSet | None = None,
        *,
        include_zero: bool = False,
    ):
        self.left = left
        self.right = right if right is not None else left
        if self.right.dim != left.dim:
            raise ValueError(f"dimension mismatch: {left.dim} != {self.right.dim}")
        left_ints, left_scale = left.scaled
        right_ints, right_scale = self.right.scaled
        columns = list(zip(*right_ints)) or [()]
        self.ids: defaultdict[int, int] = defaultdict(count().__next__)
        self.rows: list[list[int]] = []
        ids, rows, one_set = self.ids, self.rows, self.right is left
        for i, p in enumerate(left_ints):
            row = list(map(itemgetter(i), rows)) if one_set else []
            row += map(ids.__getitem__, _dots(p, [column[len(row):] for column in columns]))
            rows.append(row)
        ids.default_factory = None
        self.scale = left_scale * right_scale
        self.skip = -1 if include_zero else self.ids.get(0, -1)
        self._products: list[int] = []

    def value(self, a: int) -> Scalar:
        """The dot product with id ``a``."""
        if len(self._products) < len(self.ids):
            self._products = list(self.ids)
        whole, rest = divmod(self._products[a], self.scale)
        return Fraction(self._products[a], self.scale) if rest else whole

    def pair_counts(self) -> Counter[int]:
        """Ordered pairs of distinct points per value id, ``skip`` left out."""
        counts: Counter[int] = Counter()
        for row in self.rows:
            counts.update(row)
        # Drop the pair of each point with itself: once per point the two sets
        # share, so once per point for a single set.
        for i, j in _shared(self.left, self.right):
            counts[self.rows[i][j]] -= 1
        counts.pop(self.skip, None)
        return +counts

    def values(self) -> list[Fraction]:
        """The distinct products over ordered pairs of distinct points."""
        return [self.value(a) for a in self.pair_counts()]

    def pair_total(self) -> int:
        return sum(self.pair_counts().values())


def _shared(left: PointSet, right: PointSet) -> list[tuple[int, int]]:
    """``(i, j)`` for each point ``left[i] == right[j]``, matched on their
    scaled ints at the product of the two scales, so no Fraction is hashed."""
    left_ints, left_scale = left.scaled
    right_ints, right_scale = right.scaled
    position = {tuple(map(left_scale.__mul__, q)): j for j, q in enumerate(right_ints)}
    found = map(position.get, (tuple(map(right_scale.__mul__, p)) for p in left_ints))
    return [(i, j) for i, j in enumerate(found) if j is not None]


def pinned_set(p: Point, points: PointSet, include_zero: bool = False) -> frozenset[Fraction]:
    """The set of dot products determined by the pin ``p`` against ``points``."""
    if is_origin(p):
        raise ValueError("the origin cannot be a pin")
    index = DotProductIndex(PointSet(points.dim, (p,)), points, include_zero=include_zero)
    return frozenset(index.value(a) for a in set(index.rows[0]) - {index.skip})


class DotProductSummary(NamedTuple):
    distinct: int
    max_multiplicity: int


def distinct_dot_products(
    points: PointSet,
    second: PointSet | None = None,
    *,
    include_zero: bool = False,
) -> DotProductSummary:
    """Distinct dot products over ordered pairs of distinct points.

    Returns the number of distinct values and the largest number of ordered
    pairs producing any single value.  With ``second`` given, pairs run over
    ``points x second`` instead of within one set.
    """
    counts = DotProductIndex(points, second, include_zero=include_zero).pair_counts()
    return DotProductSummary(len(counts), max(counts.values(), default=0))


def _require_index_of(index: DotProductIndex, left: PointSet, right: PointSet) -> None:
    if index.left != left or index.right != right:
        raise ValueError("the prebuilt index is of other point sets")


def _zero_weight_guard(weights: Sequence[Fraction], include_zero: bool) -> None:
    if not include_zero and any(w == 0 for w in weights):
        raise ValueError("zero edge weight; pass include_zero=True to count it")


def _search_order(tree: Tree, pinned: int | None):
    """Parent position and edge index of each search position (-1 at the
    root), the leaf group's edge indices, and the position of its vertex u.

    u has the most leaf neighbours, ``pinned`` excepted, ties to the smallest
    label.  The search runs from ``pinned`` (else u) to u, then breadth-first.
    """
    adj = tree.adjacency
    leaves = {v for v in adj if len(adj[v]) == 1} - {pinned}
    u = min(adj, key=lambda v: (-len(leaves.intersection(adj[v])), v))
    group = [v for v in adj[u] if v in leaves]
    parent = tree.bfs_parents(u if pinned is None else pinned)
    path = [u]
    while parent[path[-1]]:
        path.append(parent[path[-1]])
    skip = set(path).union(group)
    order = path[::-1] + [v for v in parent if v not in skip]
    up = {(b if parent[b] == a else a): j for j, (a, b) in enumerate(tree.edges)}
    position = {v: p for p, v in enumerate(order)}
    parents = [position[parent[v]] if parent[v] else -1 for v in order]
    return parents, [up.get(v, -1) for v in order], [up[v] for v in group], len(path) - 1


def _placements(parents: list[int], roots: Sequence[int], candidates):
    """Yield each injective placement of a search's positions on point indices:
    position 0 on ``roots``, p on ``candidates(p, placed[parents[p]])``.  The
    stack of iterators is explicit; the yielded list is reused.
    """
    placed: list[int] = []
    used: set[int] = set()
    stack = [iter(roots)]
    while stack:
        if len(placed) == len(stack):
            used.remove(placed.pop())
        for y in stack[-1]:
            if y not in used:
                break
        else:
            stack.pop()
            continue
        placed.append(y)
        used.add(y)
        if len(placed) == len(parents):
            yield placed
        else:
            stack.append(iter(candidates(len(placed), placed[parents[len(placed)]])))


# One solve step, a fiber of ``_partner_lists``, costs about as much as four
# products of a table row: the measured crossover, logged in CHANGES.md.
_SOLVE_STEP_COST = 4


def _positions(row: list, key) -> list[int]:
    """The positions of ``key`` in ``row``, ascending: one C-level ``count``,
    then one ``index`` per hit, so a key that is absent costs one pass."""
    found, j = [], -1
    for _ in range(row.count(key)):
        j = row.index(key, j + 1)
        found.append(j)
    return found


def _partner_lists(
    normals: tuple[Sequence[_IntPoint], int],
    values: Sequence[Sequence[Scalar]],
    points: PointSet,
) -> list[list[list[int]]]:
    """Partner lists P(x, w) = [j : x . points[j] == w], in ascending j:
    ``lists[i][t]`` is P(x_i, values[i][t]) for the normals x_i = X_i / L_x
    given scaled, as the pair ``(X, L_x)`` that ``PointSet.scaled`` holds.

    With x = X / L_x, q = Q / L_q and W = w L_x L_q, x . q = w is X . Q = W,
    so a query is an int, or has no partner when W is not one.  It is
    solved by projection: X_c Q_c + X' . Q' = W, primes dropping a coordinate
    c with X_c != 0, the one whose projection Q' takes the fewest distinct
    values, m.  The points are grouped into fibers by Q', each a dict from
    Q_c to j, built once per coordinate, when a normal first needs it.  A
    query takes the fibers' dots X' . Q' from ``_dots``, keeps the fibers
    where X_c divides W - X' . Q', and looks the quotient up in their dicts.
    The origin as a normal has every point as partner for w = 0, none else.

    A query costs m steps and a table row n C-level products, so the solve
    runs when ``_SOLVE_STEP_COST`` m (queries per normal) <= n.  Otherwise
    each normal's row of scaled products is made by ``_dots`` and its lists
    are read off it by ``_positions``.
    """
    n = len(points)
    if not n:
        return [[[] for _ in ws] for ws in values]
    ints, scale = points.scaled
    normal_ints, normal_scale = normals
    columns = list(zip(*ints))

    def projections(c: int):
        return zip(*columns[:c], *columns[c + 1:])

    def key_of(w: Scalar) -> int | None:
        target = Fraction(w) * (normal_scale * scale)
        return target.numerator if target.denominator == 1 else None

    sizes = [len(set(projections(c))) for c in range(points.dim)]
    order = sorted(range(points.dim), key=sizes.__getitem__)
    lists: list[list[list[int]]] = []
    asked = None  # callers share one list of values between normals
    if _SOLVE_STEP_COST * sizes[order[0]] * sum(map(len, values)) > n * len(normal_ints):
        for row, ws in zip(map(list, map(_dots, normal_ints, repeat(columns))), values):
            if ws is not asked:
                asked, keys = ws, list(map(key_of, ws))
            lists.append([_positions(row, key) for key in keys])
        return lists
    fibers: dict[int, tuple[list[tuple[int, ...]], list[dict[int, int]]]] = {}
    for x, ws in zip(normal_ints, values):
        if ws is not asked:
            asked, keys = ws, list(map(key_of, ws))
        c = next((c for c in order if x[c]), None)
        if c is None or not ws:
            lists.append([list(range(n)) if key == 0 else [] for key in keys])
            continue
        if c not in fibers:
            by_key: dict[tuple[int, ...], dict[int, int]] = {}
            for j, projection, q in zip(count(), projections(c), columns[c]):
                by_key.setdefault(projection, {})[q] = j
            fibers[c] = list(zip(*by_key)), list(by_key.values())
        key_columns, dicts = fibers[c]
        xc = x[c]
        dots = list(_dots(x[:c] + x[c + 1:], key_columns))
        found = []
        for key in keys:
            if key is None:
                found.append([])
                continue
            rests = list(map(sub, repeat(key), dots))
            whole = list(map(not_, map(mod, rests, repeat(xc))))
            hits = sorted(map(dict.get, compress(dicts, whole),
                              map(floordiv, compress(rests, whole), repeat(xc)), repeat(-1)))
            found.append(hits[hits.count(-1):])
        lists.append(found)
    return lists


def _fixed_weight_plan(tree: Tree, weights: Sequence[Scalar], points: PointSet):
    """The setup both fixed-weight counters share: ``_search_order``'s parent
    positions, the partner lists ``lists[i][t]`` = P(points[i], w_t) of the
    distinct weights w_t, each position's slot t (-1 at the root) and the
    leaf group's ``(t, m)`` pairs, m leaves of weight w_t."""
    parents, edges, group, _ = _search_order(tree, None)
    asked = list(dict.fromkeys(weights))
    lists = _partner_lists(points.scaled, [asked] * len(points), points)
    slots = [-1] + [asked.index(weights[j]) for j in edges[1:]]
    return parents, lists, slots, Counter(asked.index(weights[j]) for j in group).items()


def count_embeddings(
    wt: WeightedTree,
    points: PointSet,
    *,
    include_zero: bool = False,
    threads: int = 1,
    index: DotProductIndex | None = None,
) -> int:
    """Number of injective vertex maps realizing every edge weight exactly.

    Copies are labeled: maps differing by a tree automorphism count
    separately.  The search reads the partner lists P(x, w) of every point
    for the tree's distinct weights (``_fixed_weight_plan``).  The leaves of
    one vertex u (``_search_order``) are counted, not placed: with u at x,
    the lists P(x, w) are disjoint, so the m leaves of weight w add a
    falling factorial of length m from the unused points of P(x, w).  The
    other vertices are placed from u outward.

    ``threads`` and ``index`` are accepted for compatibility and have no
    effect, except that an ``index`` of other sets than ``points`` against
    itself raises ``ValueError``.  Both go with the benchmark re-size in
    ROADMAP.md.
    """
    weights = wt.require_weights()
    _zero_weight_guard(weights, include_zero)
    if index is not None:
        _require_index_of(index, points, points)
    if wt.tree.num_vertices > len(points):  # no map is injective
        return 0
    parents, lists, slots, group = _fixed_weight_plan(wt.tree, weights, points)
    total, x = 0, -1
    for placed in _placements(parents, range(len(points)), lambda p, i: lists[i][slots[p]]):
        if placed[0] != x:
            x = placed[0]
            group_sets = [(set(lists[x][t]), m) for t, m in group]
        total += math.prod(math.perm(len(s) - len(s.intersection(placed)), m)
                           for s, m in group_sets)
    return total


def count_homomorphisms(
    wt: WeightedTree,
    points: PointSet,
    *,
    include_zero: bool = False,
) -> int:
    """Number of not-necessarily-injective maps satisfying all edge weights.

    Dynamic program over ``_search_order``'s positions, last to first: a
    position's list counts, per point index, the maps of its subtree with
    its vertex there; a child's list, summed over the partner lists of its
    weight, multiplies into its parent's.  u's leaf group enters once, as
    the factor prod len(P(x, w))^m over its m leaves of weight w, the twin
    of ``count_embeddings``' falling factorial.  Always at least
    ``count_embeddings``.
    """
    weights = wt.require_weights()
    _zero_weight_guard(weights, include_zero)
    parents, lists, slots, group = _fixed_weight_plan(wt.tree, weights, points)
    tables = [[1] * len(lists) for _ in parents]
    for t, m in group:
        tables[0] = list(map(mul, tables[0], [len(row[t]) ** m for row in lists]))
    for p in range(len(parents) - 1, 0, -1):
        below, t = tables[p], slots[p]
        up = [sum(map(below.__getitem__, row[t])) for row in lists]
        tables[parents[p]] = list(map(mul, tables[parents[p]], up))
    return sum(tables[0])


def _weight_tuple_masks(
    tree: Tree, points: PointSet, include_zero: bool, pinned: tuple[int, int] | None
) -> tuple[dict[tuple[int, ...], int], list[int], int, DotProductIndex]:
    """Distinct edge-weight tuples over injective maps, as value-id bitmasks.

    The vertices outside the leaf group (``_search_order``) are placed on
    points, ``pinned`` = (vertex, point index) fixed.  With the group's
    vertex at x, a room table counts the unused points of x's row per value
    id; an id whose room reaches 0 leaves it, and its bit the last leaf's
    bitmask.  The other leaves (heads) grow layer by layer in lists, each
    taking an id of its table and passing on a copy less that point, so no
    sequence the room cannot hold is built; the last head reads its table
    uncopied.  A group of one leaf has no head to read the room table, so
    it starts empty and takes an id's count from x's table only when a
    placed point uses that id.  Zero components are dropped unless
    ``include_zero``.  Returns the masks keyed by the other components, the
    edge index of each key position and of the last leaf, and the table the
    ids index.
    """
    if tree.num_edges == 0:
        raise ValueError("weight tuples need at least one edge")
    index = DotProductIndex(points, include_zero=include_zero)
    rows, skip = index.rows, index.skip
    parents, edges, group, at_u = _search_order(tree, pinned and pinned[0])
    masks: dict[tuple[int, ...], int] = defaultdict(int)
    x, roots = -1, range(len(points)) if pinned is None else [pinned[1]]
    if tree.num_vertices > len(points):  # no map is injective
        roots = []
    for placed in _placements(
        parents, roots, lambda p, i: [j for j, a in enumerate(rows[i]) if a != skip]
    ):
        if placed[at_u] != x:
            x, row = placed[at_u], rows[placed[at_u]]
            size = Counter(compress(row, map(ne, row, repeat(skip))))
            full = sum(map((1).__lshift__, size))
        room, mask = dict(size) if len(group) > 1 else {}, full
        for a in map(row.__getitem__, placed):
            if a in size:
                room[a] = room.get(a, size[a]) - 1
                if not room[a]:
                    del room[a]
                    mask ^= 1 << a
        prefix = tuple(rows[placed[parents[p]]][placed[p]] for p in range(1, len(parents)))
        if len(group) == 1:
            masks[prefix] |= mask
            continue
        layer = [(prefix, mask, room)]
        for _ in range(len(group) - 2):
            layer = [(key + (a,), mask if r > 1 else mask ^ (1 << a),
                      {b: s - (b == a) for b, s in room.items() if s > (b == a)})
                     for key, mask, room in layer for a, r in room.items()]
        for key, mask, room in layer:
            for a, r in room.items():
                masks[key + (a,)] |= mask if r > 1 else mask ^ (1 << a)
    return masks, edges[1:] + group[:-1], group[-1], index


def distinct_weight_tuples(
    tree: Tree,
    points: PointSet,
    *,
    include_zero: bool = False,
) -> int:
    """Count distinct edge-weight tuples over injective maps of ``tree``.

    Tuples are ordered by the canonical edge order, and tuples containing a
    zero dot product are excluded unless requested.  The m leaves of one
    vertex are counted by value class, not placed, so the search visits at
    most n^(k+1-m) placements of the other vertices.
    """
    masks, *_ = _weight_tuple_masks(tree, points, include_zero, None)
    return sum(mask.bit_count() for mask in masks.values())


def pinned_weight_tuples(
    tree: Tree,
    vertex: int,
    pin: Point,
    points: PointSet,
    *,
    include_zero: bool = False,
) -> int:
    """Distinct weight tuples over injective maps sending ``vertex`` to ``pin``."""
    if vertex not in tree.vertices:
        raise ValueError(f"no vertex {vertex}")
    pin = point(*pin)
    try:
        pin_index = points.points.index(pin)
    except ValueError:
        raise ValueError(f"pin {pin} is not in the point set") from None
    masks, *_ = _weight_tuple_masks(tree, points, include_zero, (vertex, pin_index))
    return sum(mask.bit_count() for mask in masks.values())


def incidences(points: PointSet, lines: Sequence[AlphaHyperplane]) -> int:
    """Exact number of point-hyperplane incidences, in any dimension: the
    distinct (normal, value) pairs, normals told apart by their scaled ints,
    are the queries of ``_partner_lists``; a repeated hyperplane counts again."""
    for line in lines:
        if line.dim != points.dim:
            raise ValueError(f"dimension mismatch: hyperplane {line.dim}, points {points.dim}")
    normal_ints, scale = _scaled([line.normal for line in lines])
    asked: dict[_IntPoint, Counter[Scalar]] = {}
    for x, line in zip(normal_ints, lines):
        asked.setdefault(x, Counter())[line.value] += 1
    lists = _partner_lists((list(asked), scale), [list(c) for c in asked.values()], points)
    return sum(len(found) * c[w] for c, row in zip(asked.values(), lists)
               for w, found in zip(c, row))


@dataclass(frozen=True)
class RadialHistogram:
    """Point counts bucketed by the radial line through the origin."""

    buckets: dict[Direction, int]
    total: int

    @property
    def max_count(self) -> int:
        return max(self.buckets.values(), default=0)

    def within_cap(self, c: Fraction | int = 1) -> bool:
        """Exact check of max bucket <= c * total^(2/3) for a positive ``c``."""
        c = Fraction(c)
        if c <= 0:
            raise ValueError("cap constant must be positive")
        lhs = self.max_count * c.denominator
        return lhs**3 <= c.numerator**3 * self.total**2


def radial_histogram(points: PointSet, *, allow_origin: bool = False) -> RadialHistogram:
    """Points per radial line, from the scaled ints, as scaling keeps directions."""
    nonzero = list(filter(any, points.scaled[0]))
    if len(nonzero) < len(points) and not allow_origin:
        raise ValueError("point set contains the origin")
    return RadialHistogram(dict(Counter(map(_direction, nonzero))), len(nonzero))


def count_segment_crossings(segments: Sequence[tuple[Point, Point]]) -> int:
    """Number of unordered pairs of distinct segments that properly cross.

    Segments sharing an endpoint, merely touching, or overlapping collinearly
    do not count.  Every endpoint must have exactly two coordinates, else
    ``ValueError``.  All endpoints are scaled once by the lcm of their
    coordinate denominators, so the sweep runs on Python ints: a positive
    scale keeps the order of box coordinates and, orientation being
    homogeneous of degree 2, the sign of every orientation test.  Each
    segment a-b, its endpoints in lexicographic order, keeps the line
    coefficients dx, dy and c = dx*ay - dy*ax, so the orientation of a point
    q against it is dx*qy - dy*qx - c, two multiplies.  Two segments cross
    when each strictly separates the other's endpoints: both products of
    orientations are negative.  A bounding-box sweep in order of the left x
    prunes pairs before those tests.
    """
    ends = [end for segment in segments for end in segment]
    if any(len(end) != 2 for end in ends):
        raise ValueError("segment endpoints must have exactly 2 coordinates")
    ends, _ = _scaled(ends)
    records = []
    for a, b in zip(ends[::2], ends[1::2]):
        if b < a:
            a, b = b, a
        (ax, ay), (bx, by) = a, b
        dx, dy = bx - ax, by - ay
        lo, hi = (ay, by) if ay <= by else (by, ay)
        records.append((ax, bx, lo, hi, ay, by, dx, dy, dx * ay - dy * ax))
    records.sort(key=itemgetter(0))
    crossings = 0
    # A shared endpoint, a touch or a collinear overlap puts an endpoint on
    # the other segment's line, so one orientation is zero and the strict
    # test fails; no separate shared-endpoint check is needed.
    for i, (ax, bx, lo, hi, ay, by, dx, dy, c) in enumerate(records, 1):
        for qx, rx, olo, ohi, qy, ry, odx, ody, oc in islice(records, i, None):
            if qx > bx:
                break
            if ohi < lo or olo > hi:
                continue
            if (dx * qy - dy * qx - c) * (dx * ry - dy * rx - c) < 0:
                if (odx * ay - ody * ax - oc) * (odx * by - ody * bx - oc) < 0:
                    crossings += 1
    return crossings


def _require_planar(points: PointSet, right: PointSet) -> None:
    if points.dim != 2 or right.dim != 2:
        raise ValueError("the proof multigraph is planar; need dimension 2")
    if not all(map(any, points.scaled[0] + right.scaled[0])):
        raise ValueError("point sets must not contain the origin")


def proof_graph_edges(
    points: PointSet,
    second: PointSet | None = None,
    *,
    include_zero: bool = False,
    index: DotProductIndex | None = None,
) -> dict[tuple[Point, Point], int]:
    """Multigraph edges of the consecutive-points construction.

    For each pin p in the first set and each of its dot-product values a
    against the second set, the points of the second set on the alpha-line of
    p are sorted along the line and consecutive pairs become edges; lines
    holding a single point are dropped.  Pins sharing a radial line can
    produce the same geometric line, so multiplicities accumulate per
    (pin, value) contribution.

    Returns a map from the segment (endpoint pair, lexicographically ordered)
    to its edge multiplicity.  A prebuilt ``index`` of ``points`` against the
    second set is used as given, so ``include_zero`` is then ignored; an
    index of other sets raises ``ValueError``.
    """
    right = second if second is not None else points
    _require_planar(points, right)
    if index is None:
        index = DotProductIndex(points, right, include_zero=include_zero)
    _require_index_of(index, points, right)
    # Lexicographic order, which scaling keeps, is monotone along any line.
    # A stable sort of the second set's indices, in that order, by the row's
    # value ids makes each line's points contiguous and in order along it.
    order = sorted(range(len(right)), key=right.scaled[0].__getitem__)
    skip = index.skip
    edges: Counter[tuple[int, int]] = Counter()
    for row in index.rows:
        kept = compress(order, map(ne, map(row.__getitem__, order), repeat(skip)))
        line = sorted(kept, key=row.__getitem__)
        ids = list(map(row.__getitem__, line))
        edges.update(compress(zip(line, line[1:]), map(eq, ids, ids[1:])))
    pts = right.points
    return {(pts[i], pts[j]): k for (i, j), k in edges.items()}


@dataclass(frozen=True)
class ProofGraphStats:
    """Summary of the consecutive-points multigraph and its drawing.

    ``max_pinned_size`` is the largest number of *distinct* dot products any
    pin determines (the cardinality, which is what the crossing argument
    uses).  ``drawing_crossings`` counts proper crossings between distinct
    straight segments; coincident multi-edges are drawn together and cross
    nothing among themselves.
    """

    vertices: int
    edges: int
    max_multiplicity: int
    max_pinned_size: int
    drawing_crossings: int
    crossing_bound_ok: bool


def proof_multigraph(
    points: PointSet,
    second: PointSet | None = None,
    *,
    include_zero: bool = False,
) -> ProofGraphStats:
    """Build the consecutive-points multigraph and report its statistics.

    Reports v, e, the maximum edge multiplicity m, the maximum pinned-set
    cardinality t, the number of proper crossings in the straight-line
    drawing, and whether crossings <= n^2 * t^2 with n the size of the
    first set.
    """
    right = second if second is not None else points
    _require_planar(points, right)
    index = DotProductIndex(points, right, include_zero=include_zero)
    edge_counts = proof_graph_edges(points, right, index=index)
    t = max(_pinned_sizes(index), default=0)
    vertices = len(points) + len(right) - len(_shared(points, right))
    e = sum(edge_counts.values())
    m = max(edge_counts.values(), default=0)
    crossings = count_segment_crossings(list(edge_counts.keys()))
    bound_ok = crossings <= len(points) ** 2 * t**2
    return ProofGraphStats(vertices, e, m, t, crossings, bound_ok)


def _pinned_sizes(index: DotProductIndex) -> list[int]:
    """``len(pinned_set(p, index.right))`` for every point p of ``index.left``."""
    skip = index.skip
    return [len(values) - (skip in values) for values in map(set, index.rows)]


def max_pinned(points: PointSet, *, include_zero: bool = False) -> tuple[Point, int]:
    """The pin in the set maximizing its pinned dot-product set, with the size.

    Ties break toward the earliest point; the origin never serves as a pin.
    """
    if len(points) < 2:
        raise ValueError("need at least two points")
    i, size = _best_pin(DotProductIndex(points, include_zero=include_zero))
    return points.points[i], size


def _best_pin(index: DotProductIndex) -> tuple[int, int]:
    """Position in ``index.left`` and pinned-set size of ``max_pinned``'s pin."""
    sizes = _pinned_sizes(index)
    # max keeps the first of equal sizes, so ties go to the earliest point.
    pins = (i for i, p in enumerate(index.left.scaled[0]) if any(p))
    i = max(pins, key=sizes.__getitem__)
    return i, sizes[i]


def _affine_rank(ints: Sequence[_IntPoint]) -> int:
    """Dimension of the affine span of a set's scaled ints, by fraction-free
    Gaussian elimination of the differences from the first point: a row r
    leaves pivot column c as ``p_c r - r_c p``."""
    rows = [[c - b for c, b in zip(p, ints[0])] for p in ints[1:]]
    rank = 0
    for col in range(len(ints[0]) if rows else 0):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            pc = pivot[col]
            rows = [[x * pc - r[col] * y for x, y in zip(r, pivot)]
                    for r in rows if r is not pivot]
            rank += 1
    return rank


@dataclass(frozen=True)
class DescentLevel:
    pin: Point
    distinct_count: int
    hyperplane: AlphaHyperplane
    points_remaining: int


@dataclass(frozen=True)
class DescentTrace:
    """Record of the pigeonhole descent through dot-product level sets.

    Each level stores the pin, its distinct dot-product count within the
    current flat, the chosen heaviest level-set hyperplane, and the points
    surviving the restriction.  ``reported_count`` is the best pinned
    lower bound the run witnesses: the maximum of the level counts and the
    final planar pinned count.
    """

    levels: tuple[DescentLevel, ...]
    final_points: int
    final_pin: Point | None
    final_pinned_count: int

    @property
    def reported_count(self) -> int:
        components = [lvl.distinct_count for lvl in self.levels]
        components.append(self.final_pinned_count)
        return max(components)


def hyperplane_descent(points: PointSet, *, include_zero: bool = False) -> DescentTrace:
    """Descend through heaviest dot-product level sets until a plane remains.

    At each of up to d-2 levels, the pin maximizing distinct dot products
    within the current point set is found, its level-set hyperplanes bucket
    the points, and the heaviest bucket (ties toward the earliest point)
    becomes the next set.  Degenerate sets already spanning at most a plane
    stop early.  The final level reports the maximum pinned count among the
    remaining points.  Each level's set is one ``PointSet``, scaled once for
    the rank check, the table and, at the last level, ``max_pinned``.
    """
    d = points.dim
    if d < 3:
        raise ValueError("the descent needs ambient dimension at least 3")
    if len(points) < d:
        raise ValueError(f"need at least {d} points")
    current = points
    levels: list[DescentLevel] = []
    for _ in range(d - 2):
        if len(current) < 2 or _affine_rank(current.scaled[0]) <= 2:
            break
        index = DotProductIndex(current, include_zero=include_zero)
        i, t = _best_pin(index)
        # Buckets by value id, in order of each bucket's first point, so the
        # first heaviest bucket is the one whose first point comes earliest.
        buckets: dict[int, list[Point]] = {}
        for a, y in zip(index.rows[i], current.points):
            if a != index.skip:
                buckets.setdefault(a, []).append(y)
        best, members = max(buckets.items(), key=lambda item: len(item[1]))
        pin = current.points[i]
        levels.append(
            DescentLevel(pin, t, AlphaHyperplane(pin, index.value(best)), len(members))
        )
        current = PointSet(d, tuple(members))
    if len(current) >= 2:
        final_pin, final_count = max_pinned(current, include_zero=include_zero)
    else:
        final_pin, final_count = None, 0
    return DescentTrace(tuple(levels), len(current), final_pin, final_count)
