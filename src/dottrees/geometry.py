"""Exact rational geometry: scalars, points, alpha-hyperplanes, radial directions.

Every coordinate, dot product, and hyperplane membership test in this package
is exact.  A scalar is a Python ``int`` when it is integral and a reduced
``fractions.Fraction`` otherwise (``_exact``), so integer point sets, the
paper's extremal configurations among them, never build a ``Fraction``; both
types hash and compare alike, so ``2`` and ``Fraction(2)`` are one value.
The counters' all-pairs table and the lattice identity checks multiply
Python ints after scaling each set by the lcm of its denominators (`_scaled`),
so each product converts back to its exact scalar.  A `PointSet` scales its
points once, at construction (`PointSet.scaled`), and checks them for
duplicates on those ints, so building or parsing a set hashes no
``Fraction``; every engine reader of a set takes that form.  Points that
reach the engine as points, not as a set, are scaled where they are used:
the sweep's segment endpoints and the normals of ``incidences``.  `_dots` is
the one integer dot kernel: the table's rows, the builders' edge-weight
checks and both lattice identity checks take their products from it, one
point against columns of points.
Counts downstream hash and compare these values for equality, so floating
point never enters a geometric computation.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product, repeat
from operator import add, attrgetter, mul
from typing import IO, Iterable, Iterator, Sequence

__all__ = [
    "Point",
    "PointSet",
    "AlphaHyperplane",
    "Direction",
    "ParseError",
    "parse_scalar",
    "format_scalar",
    "point",
    "point_set",
    "is_origin",
    "dot",
    "alpha_hyperplane",
    "read_point_set",
    "format_point_set",
    "integer_grid",
    "random_point_set",
]

# A scalar is an int when integral, else a Fraction, always in lowest terms
# with a positive denominator; a point is a fixed-length tuple of scalars.
# An int and the equal Fraction hash and compare alike, so equality and
# hashing agree with the canonical form whichever type a caller passes.
Scalar = int | Fraction
Point = tuple[Scalar, ...]

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


class ParseError(ValueError):
    """Malformed textual input; carries the 1-based line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _exact(value: Scalar) -> Scalar:
    """``value`` as an int when it is integral, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def parse_scalar(text: str, line_no: int | None = None) -> Scalar:
    """Parse an optionally signed integer or ``a/b`` fraction.

    The input need not be reduced; the result always is, and is an int
    when integral (``4/2`` parses as ``2``).
    """
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"bad rational {text!r}", line_no)
    try:
        num = int(m.group(1))
        den = m.group(2) and int(m.group(2))
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"bad rational: {exc}", line_no) from None
    if den is None:
        return num
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}", line_no)
    return _exact(Fraction(num, den))


def format_scalar(value: Scalar) -> str:
    """Canonical text form: ``n`` or ``n/d`` in lowest terms, ``d`` positive.

    An int or a Fraction is already canonical; anything else, a ``bool``
    included, goes through ``Fraction`` first."""
    return str(value if type(value) in (int, Fraction) else Fraction(value))


def _coerce(value) -> Scalar:
    if type(value) is int:
        return value
    # Floats carry binary rounding noise; exactness demands explicit input.
    # A ValueError, as from ``PointSet`` and every other bad input.
    if isinstance(value, float):
        raise ValueError(
            f"float {value!r} is not exact; pass Fraction, int, or string"
        )
    return _exact(Fraction(value))


def point(*coords) -> Point:
    """Build a point, coercing ints, strings, and rationals to exact scalars."""
    return tuple(_coerce(c) for c in coords)


def is_origin(p: Point) -> bool:
    return all(c == 0 for c in p)


def dot(p: Point, q: Point) -> Scalar:
    """Exact dot product; the edge weight used by every counting operation."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} != {len(q)}")
    try:
        return _exact(sum(map(mul, p, q)))
    except AttributeError:  # a float coordinate makes the sum a float
        raise _not_exact(chain(p, q)) from None


def _not_exact(coords) -> ValueError:
    """The error for the first of ``coords`` with no denominator."""
    c = next(c for c in coords if not hasattr(c, "denominator"))
    return ValueError(f"{type(c).__name__} {c!r} is not exact; pass Fraction or int")


# A point scaled to integer coordinates by ``_scaled``.
_IntPoint = tuple[int, ...]


def _scaled(points: Sequence[Point]) -> tuple[tuple[_IntPoint, ...], int]:
    """The points, all of one dimension, times the lcm of their coordinate
    denominators, and that lcm.

    One flat C-level pass over the coordinates: each distinct denominator's
    multiplier is computed once, and the scaled coordinates are cut back
    into points by zipping one iterator with itself."""
    coords = list(chain.from_iterable(points))
    try:
        dens = list(map(attrgetter("denominator"), coords))
    except AttributeError:
        raise _not_exact(coords) from None
    distinct = set(dens)
    scale = math.lcm(*distinct)
    factor = {den: scale // den for den in distinct}
    flat = map(mul, map(attrgetter("numerator"), coords), map(factor.__getitem__, dens))
    return tuple(zip(*[flat] * len(points[0]))) if points else (), scale


def _dots(p: _IntPoint, columns: Sequence[Iterable[int]]) -> Iterator[int]:
    """``p . q`` for every integer point q, given as coordinate columns.

    The one integer dot kernel: a chain of C-level ``map`` iterators, one
    multiply per coordinate and one add per coordinate after the first."""
    acc = map(mul, repeat(p[0]), columns[0])
    for c, column in zip(p[1:], columns[1:]):
        acc = map(add, acc, map(mul, repeat(c), column))
    return acc


@dataclass(frozen=True)
class PointSet:
    """Dimension-tagged ordered collection of pairwise distinct points.

    ``scaled`` is ``_scaled(self.points)``, computed once at construction.
    Distinctness is checked on those integer points: scaling by one positive
    integer is injective, so no ``Fraction`` is hashed.  A coordinate that is
    not an exact rational, a float say, is a ``ValueError``.
    """

    dim: int
    points: tuple[Point, ...]
    scaled: tuple[tuple[_IntPoint, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dimension must be at least 2, got {self.dim}")
        for p in self.points:
            if len(p) != self.dim:
                raise ValueError(
                    f"point {p} has {len(p)} coordinates, expected {self.dim}"
                )
        scaled = _scaled(self.points)
        if len(set(scaled[0])) != len(self.points):
            raise ValueError("points must be pairwise distinct")
        object.__setattr__(self, "scaled", scaled)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return p in self.points


def point_set(rows: Iterable[Sequence]) -> PointSet:
    """Build a PointSet from coordinate rows, coercing entries to scalars;
    its dimension is the length of the first row."""
    pts = tuple(tuple(_coerce(c) for c in row) for row in rows)
    if not pts:
        raise ValueError("dimension required for an empty point set")
    return PointSet(len(pts[0]), pts)


@dataclass(frozen=True)
class AlphaHyperplane:
    """The level set ``{x : normal . x = value}``.

    In the plane this is the alpha-line of its pin: the locus of points whose
    dot product with ``normal`` equals ``value``, coerced like a coordinate.
    """

    normal: Point
    value: Scalar

    def __post_init__(self):
        if is_origin(self.normal):
            raise ValueError("hyperplane normal must not be the origin")
        object.__setattr__(self, "value", _coerce(self.value))

    @property
    def dim(self) -> int:
        return len(self.normal)


def alpha_hyperplane(p: Point, alpha) -> AlphaHyperplane:
    """The hyperplane of points whose dot product with pin ``p`` is ``alpha``."""
    return AlphaHyperplane(point(*p), alpha)


@dataclass(frozen=True)
class Direction:
    """Canonical primitive integer vector identifying a line through the origin.

    Two points on one radial line map to the same Direction: coordinates are
    cleared to integers, divided by their gcd, and signed so the first nonzero
    entry is positive.
    """

    primitive: tuple[int, ...]

    def __post_init__(self):
        if all(c == 0 for c in self.primitive):
            raise ValueError("direction must be nonzero")
        if math.gcd(*self.primitive) != 1:
            raise ValueError("direction must be primitive")
        for c in self.primitive:
            if c:
                if c < 0:
                    raise ValueError("first nonzero coordinate must be positive")
                break

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.primitive)


def _direction(ints: _IntPoint) -> Direction:
    """A nonzero integer point over the gcd of its coordinates, signed to a Direction."""
    g = math.gcd(*ints)
    if next(filter(None, ints)) < 0:
        g = -g
    return Direction(tuple(c // g for c in ints))


# ---------------------------------------------------------------------------
# .pts file format
#
# Line 1: `d <dim>`.  Each following non-empty, non-`#` line holds <dim>
# whitespace-separated coordinates, each an optionally signed integer or a/b
# fraction.  Input fractions need not be reduced; written output is always
# reduced with positive denominators.
# ---------------------------------------------------------------------------


def _records(stream: Iterable[str]) -> Iterator[tuple[int, str, list[str]]]:
    """``(line_no, text, fields)`` for each line of ``stream`` that is neither
    blank nor a ``#`` comment: its 1-based number, its stripped text and its
    whitespace-separated fields.  Every text format reads its lines here."""
    for line_no, raw in enumerate(stream, 1):
        text = raw.strip()
        if text and not text.startswith("#"):
            yield line_no, text, text.split()


def read_point_set(stream: IO[str]) -> PointSet:
    """Parse a .pts stream; raises ParseError with a line number on bad input.

    ``PointSet`` alone checks the points for duplicates.  On any error, a
    duplicate among the points read so far, found on their scaled ints, is
    the first error in the file, and is raised."""
    dim: int | None = None
    pts: list[Point] = []
    rows: list[tuple[int, str]] = []
    try:
        for line_no, line, fields in _records(stream):
            if dim is None:
                if len(fields) != 2 or fields[0] != "d":
                    raise ParseError(f"expected header 'd <dim>', got {line!r}", line_no)
                try:
                    dim = int(fields[1])
                except ValueError:
                    raise ParseError(f"bad dimension {fields[1]!r}", line_no) from None
                if dim < 2:
                    raise ParseError(f"dimension must be at least 2, got {dim}", line_no)
                continue
            if len(fields) != dim:
                raise ParseError(f"expected {dim} coordinates, got {len(fields)}", line_no)
            pts.append(tuple(parse_scalar(f, line_no) for f in fields))
            rows.append((line_no, line))
        if dim is None:
            raise ParseError("missing 'd <dim>' header")
        return PointSet(dim, tuple(pts))
    except ValueError:
        seen: set[_IntPoint] = set()
        for p, (line_no, line) in zip(_scaled(pts)[0], rows):
            if p in seen:
                raise ParseError(f"duplicate point {line!r}", line_no) from None
            seen.add(p)
        raise


def format_point_set(ps: PointSet) -> str:
    lines = [f"d {ps.dim}"]
    for p in ps.points:
        lines.append(" ".join(format_scalar(c) for c in p))
    return "\n".join(lines) + "\n"


def _check_ints(dim, **values) -> None:
    """A generator's checks: each of ``values`` and ``dim`` an int, ``dim``
    at least 2; the error names the first value that fails."""
    for name, value in {**values, "dimension": dim}.items():
        if not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")


def integer_grid(side: int, dim: int = 2) -> PointSet:
    """Axis-aligned integer grid {1..side}^dim, ordered lexicographically."""
    _check_ints(dim, side=side)
    if side < 1:
        raise ValueError("side must be positive")
    return PointSet(dim, tuple(product(range(1, side + 1), repeat=dim)))


def random_point_set(
    n: int,
    dim: int = 2,
    *,
    seed: int,
    low: int = -50,
    high: int = 50,
) -> PointSet:
    """Seeded random set of distinct integer-coordinate points in a box,
    the origin excluded.

    Uses Python's Mersenne Twister (`random.Random`) so identical seeds give
    identical sets on every platform.
    """
    _check_ints(dim, n=n, low=low, high=high)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if low > high:
        raise ValueError("empty coordinate box")
    capacity = (high - low + 1) ** dim - (1 if low <= 0 <= high else 0)
    if n > capacity:
        raise ValueError(f"box holds only {capacity} distinct points, need {n}")
    rng = random.Random(seed)
    pts: list[Point] = []
    seen: set[Point] = set()
    while len(pts) < n:
        p = tuple(rng.randint(low, high) for _ in range(dim))
        if p in seen or is_origin(p):
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(dim, tuple(pts))
