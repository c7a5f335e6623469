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

import bisect
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul, ne

from .geometry import AlphaHyperplane, Point, PointSet, _dots, _exact, _scaled
from .trees import Tree, WeightedTree, bipartition

__all__ = [
    "ConstructionResult",
    "LatticeSpec",
    "LatticeResult",
    "build_column_construction",
    "build_perp_lines_3d",
    "build_unit_lattice",
]


@dataclass(frozen=True)
class ConstructionResult:
    """A generated point set with its tree, weights, and exact predicted count.

    ``predicted_count`` is the product over tree vertices of the size of the
    assigned point subset.  Embedding counts are labeled, so a weighted tree
    with a nontrivial weight-preserving automorphism (only the single edge,
    among the builders here) realizes ``predicted_count`` once per
    automorphism.
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


def _bfs_abscissas(t: Tree, start: int, scheme: str) -> dict[int, int]:
    order = t.bfs_order(start)
    if scheme == "sequential":
        return {v: i + 1 for i, v in enumerate(order)}
    primes: list[int] = []
    candidate = 2
    while len(primes) < len(order):
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return {v: primes[i] for i, v in enumerate(order)}


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


def _choose_abscissas(t: Tree, start: int) -> tuple[dict[int, int], str]:
    for scheme in ("sequential", "primes"):
        abscissa = _bfs_abscissas(t, start, scheme)
        if _abscissas_identify_edges(t, abscissa):
            return abscissa, scheme
    raise AssertionError("prime abscissas cannot collide")


def _edge_weights(t: Tree, abscissa: dict[int, int]) -> tuple[int, ...]:
    return tuple(abscissa[a] * abscissa[b] for a, b in t.edges)


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
    assignment: dict[int, tuple[Point, ...]],
) -> None:
    """Every assigned pair of every edge has the edge's weight, checked on
    integers: each vertex's points are scaled once, and each point of an
    edge's first vertex is dotted with the second vertex's points, given as
    columns, against the weight at the product of the two scales.  A failure
    names the first drifting pair."""
    scaled = {v: _scaled(points) for v, points in assignment.items()}
    for (a, b), w in zip(t.edges, weights):
        (xs, la), (ys, lb) = scaled[a], scaled[b]
        columns = list(zip(*ys))
        target = w * la * lb
        for x in xs:
            products = list(_dots(x, columns))
            if products.count(target) != len(products):
                got = Fraction(next(p for p in products if p != target), la * lb)
                raise ValueError(f"edge ({a},{b}) weight drifted: {got} != {w}")


def build_column_construction(t: Tree, n: int) -> ConstructionResult:
    """Columns for the larger color class, axis points for the smaller one.

    Vertices get integer abscissas along a breadth-first traversal from the
    lowest vertex of the larger class U.  Each U-vertex owns a column of
    m = floor((n - |V|)/|U|) points on its vertical line; each V-vertex owns
    the single point (abscissa, 0).  Every edge weight is the product of its
    endpoint abscissas, independent of the free column coordinate, and the
    predicted count is m^|U|.
    """
    k = t.num_edges
    if k < 1:
        raise ValueError("the construction needs at least one edge")
    bip = bipartition(t)
    k1, k2 = bip.k1, bip.k2
    if n < k1 + k2:
        raise ValueError(f"n too small: need at least {k1 + k2} points")
    m = (n - k2) // k1
    u1 = min(bip.u)
    abscissa, scheme = _choose_abscissas(t, u1)
    weights = _edge_weights(t, abscissa)
    free_start = math.isqrt(max(weights)) + 1

    assignment: dict[int, tuple[Point, ...]] = {}
    pts: list[Point] = []
    for v in sorted(t.vertices):
        c = abscissa[v]
        if v in bip.u:
            assignment[v] = tuple((c, free_start + i) for i in range(m))
        else:
            assignment[v] = ((c, 0),)
        pts.extend(assignment[v])

    filler_count = n - len(pts)
    fillers = _filler_abscissas(filler_count, set(weights))
    pts.extend((a, 0) for a in fillers)
    points = PointSet(2, tuple(pts))
    _check_constant_edge_weights(t, weights, assignment)

    predicted = 1
    for v in t.vertices:
        predicted *= len(assignment[v])
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
    return ConstructionResult(points, t, weights, predicted, assignment, metadata)


def build_perp_lines_3d(t: Tree, n: int) -> ConstructionResult:
    """One line perpendicular to the x-axis per vertex, in R^3.

    Vertices of the larger color class get lines with free y, the others free
    z, at abscissa equal to the vertex index, so every edge weight is again
    the product of the endpoint abscissas.  Each vertex owns the
    floor(n/(k+1)) points on its line; the predicted count is that size to
    the power k+1.

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
    bip = bipartition(t)

    def identity_ok(abscissa: dict[int, int]) -> bool:
        return _abscissas_identify_edges(t, abscissa)

    abscissa = {v: v for v in t.vertices}
    scheme = "sequential"
    if not identity_ok(abscissa):
        abscissa = _bfs_abscissas(t, 1, "primes")
        scheme = "primes"
        if not identity_ok(abscissa):
            raise AssertionError("prime abscissas cannot collide")
    weights = _edge_weights(t, abscissa)
    free_start = math.isqrt(max(weights)) + 1

    assignment: dict[int, tuple[Point, ...]] = {}
    pts: list[Point] = []
    for v in sorted(t.vertices):
        c = abscissa[v]
        if v in bip.u:
            line = tuple((c, free_start + i, 0) for i in range(m))
        else:
            line = tuple((c, 0, free_start + i) for i in range(m))
        assignment[v] = line
        pts.extend(line)

    filler_count = n - len(pts)
    fillers = _filler_abscissas(filler_count, set(weights))
    pts.extend((a, 0, 0) for a in fillers)
    points = PointSet(3, tuple(pts))
    _check_constant_edge_weights(t, weights, assignment)

    predicted = m ** (k + 1)
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
        "scaling_note": (
            "realized count floor(n/(k+1))^(k+1) grows with exponent k+1, "
            "exceeding the nominal n^k for this arrangement"
        ),
    }
    return ConstructionResult(points, t, weights, predicted, assignment, metadata)


@dataclass(frozen=True)
class LatticeSpec:
    """Parameters for the lattice/dual construction.

    ``mode`` is ``"paper"`` for the ranges exactly as printed (the A-set
    numerators q+1..2q over dq, the B-set numerators q^2+1..2q^2 over
    d^2 q^2) or ``"calibrated"``, which keeps A and the F-side B but slides
    the last-coordinate numerator window of E so the hyperplanes actually
    pass through lattice points.  Explicit numerator ranges may override the
    calibrated defaults.
    """

    dim: int
    q: int
    mode: str = "calibrated"
    a_numerators: tuple[int, int] | None = None
    b_numerators: tuple[int, int] | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.mode not in ("paper", "calibrated"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "paper" and (self.a_numerators or self.b_numerators):
            raise ValueError("numerator overrides apply to calibrated mode only")
        if self.a_numerators is not None:
            lo, hi = self.a_numerators
            if hi - lo + 1 != self.q:
                raise ValueError(f"a range must hold exactly q={self.q} values")
        if self.b_numerators is not None:
            lo, hi = self.b_numerators
            if hi - lo + 1 != self.q**2:
                raise ValueError(f"b range must hold exactly q^2={self.q ** 2} values")


@dataclass(frozen=True)
class LatticeResult:
    """The lattice E, the dual set F, and one unit-product hyperplane per F point."""

    e_points: PointSet
    f_points: PointSet
    hyperplanes: tuple[AlphaHyperplane, ...]
    metadata: dict


def _calibrated_window(spec: LatticeSpec, a_nums: list[int], b_nums: list[int]) -> tuple[int, int, int]:
    """Slide a q^2-wide numerator window to cover the most values of
    numerator(c . x' + b); returns (lo, hi, covered_count)."""
    d, q = spec.dim, spec.q
    pair_sums: dict[int, int] = {}
    for c in itertools.product(a_nums, repeat=d - 1):
        for x in itertools.product(a_nums, repeat=d - 1):
            s = sum(ci * xi for ci, xi in zip(c, x))
            pair_sums[s] = pair_sums.get(s, 0) + 1
    value_counts: dict[int, int] = {}
    for s, mult in pair_sums.items():
        for b in b_nums:
            v = s + b
            value_counts[v] = value_counts.get(v, 0) + mult
    lo_all = min(value_counts)
    hi_all = max(value_counts)
    width = q**2
    best_lo, best_total = lo_all, -1
    window_values = sorted(value_counts)
    # Prefix sums over the (sparse) sorted values.
    prefix = [0]
    for v in window_values:
        prefix.append(prefix[-1] + value_counts[v])
    for lo in range(lo_all, max(lo_all, hi_all - width + 1) + 1):
        left = bisect.bisect_left(window_values, lo)
        right = bisect.bisect_right(window_values, lo + width - 1)
        total = prefix[right] - prefix[left]
        if total > best_total:
            best_lo, best_total = lo, total
    return best_lo, best_lo + width - 1, best_total


def build_unit_lattice(spec: LatticeSpec) -> LatticeResult:
    """Build the lattice E = A^(d-1) x B, the dual F, and their hyperplanes.

    Every f = (-c_1/b, ..., -c_(d-1)/b, 1/b) is paired with the hyperplane of
    points x whose last coordinate is c . x' + b; the identity f . x = 1 is
    verified on scaled integers for one synthesized point per (f, x') choice
    at build time.  Returned hyperplanes are expressed as the unit-value level
    sets of the F points, which are the same point sets.
    """
    d, q = spec.dim, spec.q
    denom_a = d * q
    denom_b = d * d * q * q
    a_lo, a_hi = spec.a_numerators or (q + 1, 2 * q)
    a_nums = list(range(a_lo, a_hi + 1))
    b_nums_f = list(range(q * q + 1, 2 * q * q + 1))

    if spec.mode == "paper":
        e_last_lo, e_last_hi = q * q + 1, 2 * q * q
        covered = None
    elif spec.b_numerators is not None:
        e_last_lo, e_last_hi = spec.b_numerators
        covered = None
    else:
        e_last_lo, e_last_hi, covered = _calibrated_window(spec, a_nums, b_nums_f)

    a_vals = [_exact(Fraction(i, denom_a)) for i in a_nums]
    e_last_vals = [_exact(Fraction(j, denom_b)) for j in range(e_last_lo, e_last_hi + 1)]

    e_pts = tuple(
        prefix + (last,)
        for prefix in itertools.product(a_vals, repeat=d - 1)
        for last in e_last_vals
    )
    # With c = gamma/(dq), b = beta/D and D = d^2 q^2, c_j/b is
    # gamma_j D/(dq beta) and 1/b is D/beta.
    prefixes = list(itertools.product(a_nums, repeat=d - 1))
    params = list(itertools.product(prefixes, b_nums_f))
    f_pts = tuple(
        tuple(_exact(Fraction(-g * denom_b, denom_a * beta)) for g in gamma)
        + (_exact(Fraction(denom_b, beta)),)
        for gamma, beta in params
    )

    # The displayed identity: any x on h_f has f . x = 1, exactly.  Here
    # x = X/D for the integers X = (xi dq, gamma . xi + beta); F scaled by
    # L_F gives f . x = 1 exactly when F . X = L_F D.  One prefix xi at a
    # time, every dual point is checked at once over columns: the last
    # coordinates gamma . xi + beta, then F . X.  A failure names the first
    # failing f, and the first failing xi for that f.
    f_ints, f_scale = _scaled(f_pts)
    *f_cols, f_last = zip(*f_ints)
    gamma_beta = list(zip(*(gamma + (beta,) for gamma, beta in params)))
    bad = []
    for k, xi in enumerate(prefixes):
        lasts = _dots(xi + (1,), gamma_beta)
        fx = map(add, _dots(tuple(v * denom_a for v in xi), f_cols), map(mul, f_last, lasts))
        fails = list(map(ne, fx, itertools.repeat(f_scale * denom_b)))
        if True in fails:
            bad.append((fails.index(True), k))
    if bad:
        i, k = min(bad)
        (gamma, beta), xi = params[i], prefixes[k]
        x = tuple(v * denom_a for v in xi) + (sum(map(mul, gamma, xi)) + beta,)
        x = tuple(Fraction(v, denom_b) for v in x)
        raise ValueError(f"unit identity failed for f={f_pts[i]}, x={x}")

    e_set = PointSet(d, e_pts)
    f_set = PointSet(d, f_pts)
    hyperplanes = tuple(AlphaHyperplane(f, 1) for f in f_pts)
    metadata = {
        "construction": "unit-lattice",
        "dim": d,
        "q": q,
        "mode": spec.mode,
        "a_numerators": [a_lo, a_hi],
        "a_denominator": denom_a,
        "f_b_numerators": [q * q + 1, 2 * q * q],
        "e_last_numerators": [e_last_lo, e_last_hi],
        "b_denominator": denom_b,
        "e_size": len(e_set),
        "f_size": len(f_set),
    }
    if covered is not None:
        metadata["expected_unit_pairs"] = covered
    return LatticeResult(e_set, f_set, hyperplanes, metadata)
