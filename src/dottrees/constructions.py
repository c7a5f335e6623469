"""Deterministic generators for the extremal point-set constructions.

Three builders, each returning the generated points together with the realized
weight vector and an exact predicted copy count:

* ``build_column_construction``: one column of points per vertex of the larger
  bipartition class, one x-axis point per vertex of the smaller class; every
  edge weight is the product of the two abscissas.
* ``build_perp_lines_3d``: one line perpendicular to the x-axis per vertex,
  alternating the free coordinate between the two color classes.
* ``build_unit_lattice``: the lattice/dual pair (E, F) in which each point of
  F sees a hyperplane of E-points at dot product exactly 1.

All coordinate choices are made so that the predicted count is exact, not
just a lower bound: free coordinates start high enough that same-class point
pairs cannot reproduce any edge weight, abscissa products identify their edge
(falling back to prime abscissas when sequential ones collide), and filler
points live on the negative x-axis where their pairwise products are checked
against the weight set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, ne

from .geometry import Point, PointSet, _check_ints, _dots, _exact
from .trees import Tree, WeightedTree, bipartition

__all__ = [
    "ConstructionResult",
    "LatticeSpec",
    "LatticeResult",
    "build_column_construction",
    "build_perp_lines_3d",
    "build_unit_lattice",
]


# Why the perpendicular-lines construction outgrows its nominal exponent.
PERP_LINES_SCALING_NOTE = (
    "realized count grows with exponent k+1, "
    "exceeding the nominal n^k for this arrangement"
)


@dataclass(frozen=True)
class ConstructionResult:
    """A generated point set with its tree, weights, and exact predicted count.

    ``predicted_count`` is the labeled count that ``count_embeddings``
    returns: the product over tree vertices of the size of the assigned
    point subset, once per weight-preserving automorphism of the weighted
    tree (``_labeled_count``).
    """

    points: PointSet
    tree: Tree
    weights: tuple[int, ...]
    predicted_count: int
    vertex_assignment: dict[int, tuple[Point, ...]]
    metadata: dict = field(default_factory=dict)

    @property
    def weighted_tree(self) -> WeightedTree:
        return WeightedTree(self.tree, self.weights)


def _abscissas_identify_edges(t: Tree, abscissa: dict[int, int]) -> bool:
    """True when a product of two abscissas equals an edge weight only for
    that edge's own endpoints."""
    weight_of = {e: abscissa[e[0]] * abscissa[e[1]] for e in t.edges}
    weight_set = set(weight_of.values())
    for i, j in itertools.combinations(sorted(t.vertices), 2):
        product = abscissa[i] * abscissa[j]
        if product in weight_set and weight_of.get((i, j)) != product:
            return False
    return True


def _choose_abscissas(
    t: Tree, sequential: dict[int, int], start: int
) -> tuple[dict[int, int], str]:
    """``sequential`` when its products identify the edges, else the first
    primes in breadth-first order from ``start``; with the scheme's name."""
    if _abscissas_identify_edges(t, sequential):
        return sequential, "sequential"
    order = t.bfs_order(start)
    primes: list[int] = []
    candidate = 2
    while len(primes) < len(order):
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    abscissa = dict(zip(order, primes))
    if not _abscissas_identify_edges(t, abscissa):
        raise AssertionError("prime abscissas cannot collide")
    return abscissa, "primes"


def _edge_weights(t: Tree, abscissa: dict[int, int]) -> tuple[int, ...]:
    return tuple(abscissa[a] * abscissa[b] for a, b in t.edges)


def _labeled_count(t: Tree, product: int) -> int:
    """Labeled copies of a tree whose assignment gives ``product`` maps.  The
    abscissas identify the edges, so only the single edge has a nontrivial
    weight-preserving automorphism: its swap, which doubles the count."""
    return 2 * product if t.num_edges == 1 else product


def _filler_abscissas(count: int, weight_set: set[int]) -> list[int]:
    """Distinct negative-x positions whose pairwise products avoid the weights."""
    chosen: list[int] = []
    candidate = 1
    while len(chosen) < count:
        if all(candidate * prev not in weight_set for prev in chosen):
            chosen.append(candidate)
        candidate += 1
    return [-a for a in chosen]


def _check_constant_edge_weights(
    t: Tree,
    weights: tuple[int, ...],
    points: PointSet,
    assignment: dict[int, tuple[Point, ...]],
) -> None:
    """Every assigned pair of every edge has the edge's weight, checked on
    the ints of ``points`` (``PointSet.scaled``), which start with each
    vertex's points in vertex order: each point of an edge's first vertex is
    dotted with the second vertex's points, given as columns, against the
    weight at the square of the scale.  A failure names the first drifting pair."""
    ints, scale = points.scaled
    starts = itertools.accumulate((len(assignment[v]) for v in t.vertices), initial=0)
    own = {v: ints[s:s + len(assignment[v])] for v, s in zip(t.vertices, starts)}
    for (a, b), w in zip(t.edges, weights):
        columns = list(zip(*own[b]))
        target = w * scale * scale
        for x in own[a]:
            products = list(_dots(x, columns))
            if products.count(target) != len(products):
                got = Fraction(next(p for p in products if p != target), scale * scale)
                raise ValueError(f"edge ({a},{b}) weight drifted: {got} != {w}")


def _place(
    t: Tree,
    n: int,
    weights: tuple[int, ...],
    lines: dict[int, tuple[Point, ...]],
) -> tuple[PointSet, list[int]]:
    """Every vertex's points in vertex order, then negative-x-axis fillers up
    to ``n`` points; returns the set and the filler abscissas once every
    edge weight is checked."""
    pts = [p for v in t.vertices for p in lines[v]]
    fillers = _filler_abscissas(n - len(pts), set(weights))
    dim = len(pts[0])
    pts.extend((a,) + (0,) * (dim - 1) for a in fillers)
    points = PointSet(dim, tuple(pts))
    _check_constant_edge_weights(t, weights, points, lines)
    return points, fillers


def build_column_construction(t: Tree, n: int) -> ConstructionResult:
    """Columns for the larger color class, axis points for the smaller one.

    Vertices get integer abscissas along a breadth-first traversal from the
    lowest vertex of the larger class U.  Each U-vertex owns a column of
    m = floor((n - |V|)/|U|) points on its vertical line; each V-vertex owns
    the single point (abscissa, 0).  Every edge weight is the product of its
    endpoint abscissas, independent of the free column coordinate, and the
    predicted count is m^|U|, doubled for a single edge.
    """
    k = t.num_edges
    if k < 1:
        raise ValueError("the construction needs at least one edge")
    u, v = bipartition(t)
    k1, k2 = len(u), len(v)
    if n < k1 + k2:
        raise ValueError(f"n too small: need at least {k1 + k2} points")
    m = (n - k2) // k1
    u1 = min(u)
    sequential = {x: i for i, x in enumerate(t.bfs_order(u1), 1)}
    abscissa, scheme = _choose_abscissas(t, sequential, u1)
    weights = _edge_weights(t, abscissa)
    free_start = math.isqrt(max(weights)) + 1
    column = range(free_start, free_start + m)
    lines = {
        x: tuple((abscissa[x], y) for y in column) if x in u else ((abscissa[x], 0),)
        for x in t.vertices
    }
    points, fillers = _place(t, n, weights, lines)
    metadata = {
        "construction": "columns",
        "n": n,
        "k": k,
        "k1": k1,
        "k2": k2,
        "column_size": m,
        "abscissas": dict(sorted(abscissa.items())),
        "abscissa_scheme": scheme,
        "free_coordinate_start": free_start,
        "filler_abscissas": fillers,
        "exponent": k1,
    }
    return ConstructionResult(points, t, weights, _labeled_count(t, m**k1), lines, metadata)


def build_perp_lines_3d(t: Tree, n: int) -> ConstructionResult:
    """One line perpendicular to the x-axis per vertex, in R^3.

    Vertices of the larger color class get lines with free y, the others free
    z, at abscissa equal to the vertex index, so every edge weight is again
    the product of the endpoint abscissas.  Each vertex owns the
    floor(n/(k+1)) points on its line; the predicted count is that size to
    the power k+1, doubled for a single edge.

    The realized count scales with exponent k+1, one more than the nominal
    exponent k quoted for this arrangement; both are recorded in the
    metadata so reports can surface the discrepancy.
    """
    k = t.num_edges
    if k < 1:
        raise ValueError("the construction needs at least one edge")
    if n < 2 * (k + 1):
        raise ValueError(f"n too small: need at least {2 * (k + 1)} points")
    m = n // (k + 1)
    u, _ = bipartition(t)
    abscissa, scheme = _choose_abscissas(t, {v: v for v in t.vertices}, 1)
    weights = _edge_weights(t, abscissa)
    free_start = math.isqrt(max(weights)) + 1
    free = range(free_start, free_start + m)
    lines = {
        v: tuple((abscissa[v], y, 0) if v in u else (abscissa[v], 0, y) for y in free)
        for v in t.vertices
    }
    points, fillers = _place(t, n, weights, lines)
    metadata = {
        "construction": "perp-lines-3d",
        "n": n,
        "k": k,
        "points_per_line": m,
        "abscissas": dict(sorted(abscissa.items())),
        "abscissa_scheme": scheme,
        "free_coordinate_start": free_start,
        "filler_abscissas": fillers,
        "nominal_exponent": k,
        "realized_exponent": k + 1,
        "scaling_note": PERP_LINES_SCALING_NOTE,
    }
    return ConstructionResult(
        points, t, weights, _labeled_count(t, m ** (k + 1)), lines, metadata
    )


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters for the lattice/dual construction.

    ``mode`` is ``"paper"`` for the ranges exactly as printed (the A-set
    numerators q+1..2q over dq, the B-set numerators q^2+1..2q^2 over
    d^2 q^2) or ``"calibrated"``, which keeps A and the F-side B but slides
    the last-coordinate numerator window of E so the hyperplanes actually
    pass through lattice points.
    """

    dim: int
    q: int
    mode: str = "calibrated"

    def __post_init__(self):
        _check_ints(dimension=self.dim, q=self.q)
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.mode not in ("paper", "calibrated"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class LatticeResult:
    """The lattice E and the dual set F; each f of F is the normal of its
    unit hyperplane f . x = 1, so F is stored once, as points."""

    e_points: PointSet
    f_points: PointSet
    metadata: dict


def _calibrated_window(
    width: int, prefixes: list[tuple[int, ...]], b_nums: range
) -> tuple[int, int, int]:
    """The first ``width``-wide numerator window covering the most
    (c, x', b) triples by numerator(c . x' + b), over every pair of
    ``prefixes``; returns (lo, hi, covered_count)."""
    columns = list(zip(*prefixes))
    pair_sums = Counter(itertools.chain.from_iterable(_dots(c, columns) for c in prefixes))
    lo_all = min(pair_sums) + b_nums[0]
    hi_all = max(pair_sums) + b_nums[-1]
    counts = [0] * (hi_all - lo_all + 1)
    for s, mult in pair_sums.items():
        for b in b_nums:
            counts[s + b - lo_all] += mult
    prefix = list(itertools.accumulate(counts, initial=0))

    def covered(lo: int) -> int:
        return prefix[min(lo - lo_all + width, len(counts))] - prefix[lo - lo_all]

    best_lo = max(range(lo_all, max(lo_all, hi_all - width + 1) + 1), key=covered)
    return best_lo, best_lo + width - 1, covered(best_lo)


def _unit_identity_failures(
    f_points: PointSet, metadata: dict
) -> list[tuple[int, tuple[Fraction, ...] | None]]:
    """The pairs (i, x), f-major, where the i-th dual point f has f . x != 1
    at a point x of its unit hyperplane; the builder and criterion 3 run it.

    Each f's (c, b) = (gamma/(dq), beta/D) comes from the recorded ranges, in
    the builder's order, not from f.  With D = d^2 q^2 = (dq)^2, x = X/D for
    ints X = (xi dq, gamma . xi + beta): f . x = 1 is F . X = L_F D on F's
    scaled ints, checked for every f at once per prefix xi, over columns.
    An F longer or shorter than the ranges also fails once per index i that
    only one of the two reaches, as (i, None), after the pairs."""
    a_lo, a_hi = metadata["a_numerators"]
    b_lo, b_hi = metadata["f_b_numerators"]
    da, db = metadata["a_denominator"], metadata["b_denominator"]
    prefixes = list(itertools.product(range(a_lo, a_hi + 1), repeat=metadata["dim"] - 1))
    params = itertools.product(prefixes, range(b_lo, b_hi + 1))
    gamma_beta = list(zip(*(gamma + (beta,) for gamma, beta in params)))
    f_ints, f_scale = f_points.scaled
    *f_cols, f_last = zip(*f_ints)
    bad = []
    for xi in prefixes:
        head = tuple(v * da for v in xi)
        lasts = list(_dots(xi + (1,), gamma_beta))
        fx = map(add, _dots(head, f_cols), map(mul, f_last, lasts))
        fails = itertools.compress(itertools.count(), map(ne, fx, itertools.repeat(f_scale * db)))
        bad += ((i, head + (lasts[i],)) for i in fails)
    unpaired = range(*sorted((len(f_ints), len(gamma_beta[0]))))
    return [(i, tuple(Fraction(v, db) for v in x)) for i, x in sorted(bad)] + [
        (i, None) for i in unpaired
    ]


def build_unit_lattice(spec: LatticeSpec) -> LatticeResult:
    """Build the lattice E = A^(d-1) x B and the dual F.

    Every f = (-c_1/b, ..., -c_(d-1)/b, 1/b) is paired with the hyperplane of
    points x whose last coordinate is c . x' + b; the identity f . x = 1 is
    checked by ``_unit_identity_failures`` for one synthesized point per
    (f, x') choice at build time, its first failure a ``ValueError``.  F's
    coordinates come from a table of its q^3 + q^2 values, -gamma dq/beta and
    d^2 q^2/beta, each a ``Fraction`` made once, so the build makes no
    ``Fraction`` per point and hashes none.  The hyperplane of f is its unit
    level set, built from F where it is needed: ``AlphaHyperplane(f, 1)``.
    """
    d, q = spec.dim, spec.q
    denom_a = d * q
    denom_b = d * d * q * q
    a_nums = range(q + 1, 2 * q + 1)
    b_nums_f = range(q * q + 1, 2 * q * q + 1)
    prefixes = list(itertools.product(a_nums, repeat=d - 1))

    if spec.mode == "paper":
        e_last_lo, e_last_hi = q * q + 1, 2 * q * q
        covered = None
    else:
        e_last_lo, e_last_hi, covered = _calibrated_window(q * q, prefixes, b_nums_f)

    a_vals = [_exact(Fraction(i, denom_a)) for i in a_nums]
    e_last_vals = [_exact(Fraction(j, denom_b)) for j in range(e_last_lo, e_last_hi + 1)]

    e_pts = tuple(
        prefix + (last,)
        for prefix in itertools.product(a_vals, repeat=d - 1)
        for last in e_last_vals
    )
    # With c = gamma/(dq), b = beta/D and D = d^2 q^2, -c_j/b is
    # -gamma_j dq/beta and 1/b is D/beta: one value per (g, beta) and one
    # per beta, each made once and shared by every f that holds it.
    f_coords = [
        (
            {g: _exact(Fraction(-g * denom_a, beta)) for g in a_nums},
            _exact(Fraction(denom_b, beta)),
        )
        for beta in b_nums_f
    ]
    f_pts = tuple(
        tuple(map(row.__getitem__, gamma)) + (last,)
        for gamma in prefixes
        for row, last in f_coords
    )
    e_set = PointSet(d, e_pts)
    f_set = PointSet(d, f_pts)

    metadata = {
        "construction": "unit-lattice",
        "dim": d,
        "q": q,
        "mode": spec.mode,
        "a_numerators": [q + 1, 2 * q],
        "a_denominator": denom_a,
        "f_b_numerators": [q * q + 1, 2 * q * q],
        "e_last_numerators": [e_last_lo, e_last_hi],
        "b_denominator": denom_b,
        "e_size": len(e_set),
        "f_size": len(f_set),
    }
    if covered is not None:
        metadata["expected_unit_pairs"] = covered
    failures = _unit_identity_failures(f_set, metadata)
    if failures:
        i, x = failures[0]
        raise ValueError(f"unit identity failed for f={f_pts[i]}, x={x}")
    return LatticeResult(e_set, f_set, metadata)
