"""Trees with canonical lexicographic edge order, weights, and decompositions."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO

from .geometry import ParseError, Scalar, _coerce, _records, format_scalar, parse_scalar

__all__ = [
    "Edge",
    "Tree",
    "WeightVector",
    "WeightedTree",
    "Bipartition",
    "bipartition",
    "make_path",
    "make_star",
    "make_perfect_binary",
    "read_tree",
    "format_tree",
]

# Vertices are 1-indexed integers; an edge is a pair (a, b) with a < b.
Edge = tuple[int, int]

# Weights are aligned with the canonical (lexicographically sorted) edge list.
WeightVector = tuple[Scalar, ...]


@dataclass(frozen=True)
class Tree:
    """Tree on vertices 1..num_vertices with canonically ordered edge list."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.num_vertices
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        if len(self.edges) != n - 1:
            raise ValueError(f"{n} vertices require {n - 1} edges, got {len(self.edges)}")
        prev: Edge | None = None
        for a, b in self.edges:
            if not (1 <= a < b <= n):
                raise ValueError(f"bad edge ({a}, {b}) for {n} vertices")
            if prev is not None and (a, b) <= prev:
                raise ValueError("edges must be strictly increasing in lexicographic order")
            prev = (a, b)
        # With n - 1 distinct edges, reaching every vertex means no cycle.
        if len(self.bfs_parents(1)) != n:
            raise ValueError("edge list is disconnected or contains a cycle")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours, ascending; built once per tree."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def bfs_parents(self, root: int = 1) -> dict[int, int]:
        """Each vertex's parent when rooted at ``root`` (0 for the root itself).

        Keys run in breadth-first order from ``root``, neighbors ascending.
        """
        if root not in self.vertices:
            raise ValueError(f"no vertex {root}")
        adj = self.adjacency
        parents = {root: 0}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in parents:
                    parents[u] = v
                    queue.append(u)
        return parents

    def bfs_order(self, root: int = 1) -> tuple[int, ...]:
        """Vertices in breadth-first order from ``root``, neighbors ascending."""
        return tuple(self.bfs_parents(root))


@dataclass(frozen=True)
class WeightedTree:
    """A tree plus one exact weight per edge, in canonical edge order.

    ``weights`` may be None for a bare tree loaded from a file without the
    optional weight column; a tree with no edge then gets the empty weight
    vector, its only one.  Weights are coerced like coordinates, so a float
    raises ``ValueError``.
    """

    tree: Tree
    weights: WeightVector | None = None

    def __post_init__(self):
        if self.weights is None:
            if self.tree.num_edges:
                return
            object.__setattr__(self, "weights", ())
        if len(self.weights) != self.tree.num_edges:
            raise ValueError(
                f"{self.tree.num_edges} edges but {len(self.weights)} weights"
            )
        object.__setattr__(self, "weights", tuple(map(_coerce, self.weights)))

    def require_weights(self) -> WeightVector:
        if self.weights is None:
            raise ValueError("this operation needs edge weights")
        return self.weights


@dataclass(frozen=True)
class Bipartition:
    """The two color classes of a tree's proper 2-coloring, larger class first."""

    u: frozenset[int]
    v: frozenset[int]

    def __post_init__(self):
        if self.u & self.v:
            raise ValueError("classes must be disjoint")
        if len(self.u) < len(self.v):
            raise ValueError("u must be the larger class")

    @property
    def k1(self) -> int:
        return len(self.u)

    @property
    def k2(self) -> int:
        return len(self.v)


def bipartition(t: Tree) -> Bipartition:
    """Proper 2-coloring by breadth-first parity from vertex 1.

    Classes are swapped if needed so the first is at least as large; on a tie
    the class containing vertex 1 comes first.
    """
    level: dict[int, int] = {}
    for v, u in t.bfs_parents(1).items():
        level[v] = level[u] + 1 if u else 0
    even = frozenset(v for v in t.vertices if level[v] % 2 == 0)
    odd = frozenset(t.vertices) - even
    if len(odd) > len(even):
        return Bipartition(odd, even)
    return Bipartition(even, odd)


def make_path(k: int) -> Tree:
    """Path with k edges on vertices 1..k+1 (a k-chain)."""
    if k < 1:
        raise ValueError("a path needs at least one edge")
    return Tree(k + 1, tuple((i, i + 1) for i in range(1, k + 1)))


def make_star(k: int) -> Tree:
    """Star with k edges: center 1, leaves 2..k+1."""
    if k < 1:
        raise ValueError("a star needs at least one edge")
    return Tree(k + 1, tuple((1, j) for j in range(2, k + 2)))


def make_perfect_binary(h: int) -> Tree:
    """Perfect binary tree of height h: 2^(h+1)-1 vertices in heap numbering."""
    if h < 0:
        raise ValueError("height must be nonnegative")
    n = 2 ** (h + 1) - 1
    edges = []
    for i in range(1, 2**h):
        edges.append((i, 2 * i))
        edges.append((i, 2 * i + 1))
    return Tree(n, tuple(edges))


# ---------------------------------------------------------------------------
# .tree file format
#
# Line 1: `k <num_edges>`.  Each edge line is `i j [w]` with 1 <= i < j <= k+1
# and an optional rational weight; `#` comments and blank lines are allowed.
# Edges are re-sorted to canonical order on load, with weights permuted
# consistently, and connectivity is validated.
# ---------------------------------------------------------------------------


def read_tree(stream: IO[str]) -> WeightedTree:
    k: int | None = None
    rows: list[tuple[Edge, Scalar | None, int]] = []
    for line_no, line, fields in _records(stream):
        if k is None:
            if len(fields) != 2 or fields[0] != "k":
                raise ParseError(f"expected header 'k <num_edges>', got {line!r}", line_no)
            try:
                k = int(fields[1])
            except ValueError:
                raise ParseError(f"bad edge count {fields[1]!r}", line_no) from None
            if k < 0:
                raise ParseError("edge count must be nonnegative", line_no)
            continue
        if len(fields) not in (2, 3):
            raise ParseError(f"expected 'i j [w]', got {line!r}", line_no)
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"bad vertex index in {line!r}", line_no) from None
        if not (1 <= i < j <= k + 1):
            raise ParseError(f"edge ({i}, {j}) out of range for k={k}", line_no)
        w = parse_scalar(fields[2], line_no) if len(fields) == 3 else None
        rows.append(((i, j), w, line_no))
    if k is None:
        raise ParseError("missing 'k <num_edges>' header")
    if len(rows) != k:
        raise ParseError(f"expected {k} edges, found {len(rows)}")
    weighted_rows = [r for r in rows if r[1] is not None]
    if weighted_rows and len(weighted_rows) != k:
        missing = next(r for r in rows if r[1] is None)
        raise ParseError("either all edges or none may carry weights", missing[2])
    rows.sort(key=lambda r: r[0])
    for (e1, _, _), (e2, _, line_no) in zip(rows, rows[1:]):
        if e1 == e2:
            raise ParseError(f"duplicate edge {e2}", line_no)
    try:
        tree = Tree(k + 1, tuple(r[0] for r in rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    weights = tuple(r[1] for r in rows) if weighted_rows else None
    return WeightedTree(tree, weights)


def format_tree(wt: WeightedTree | Tree) -> str:
    if isinstance(wt, Tree):
        wt = WeightedTree(wt)
    lines = [f"k {wt.tree.num_edges}"]
    for idx, (a, b) in enumerate(wt.tree.edges):
        if wt.weights is None:
            lines.append(f"{a} {b}")
        else:
            lines.append(f"{a} {b} {format_scalar(wt.weights[idx])}")
    return "\n".join(lines) + "\n"
