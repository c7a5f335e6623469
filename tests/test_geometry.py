import re
from fractions import Fraction as Q
from io import StringIO

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dottrees import (
    AlphaHyperplane,
    Direction,
    ParseError,
    PointSet,
    alpha_hyperplane,
    dot,
    format_point_set,
    format_scalar,
    integer_grid,
    parse_scalar,
    point,
    point_set,
    radial_histogram,
    random_point_set,
    read_point_set,
)
from dottrees.geometry import _records
from oracles import ROTATION_2D, apply_matrix

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def pt(*coords):
    return point(*coords)


def on_line(line, x) -> bool:
    return dot(line.normal, x) == line.value


class TestScalar:
    def test_parse_reduces(self):
        assert parse_scalar("4/8") == Q(1, 2)
        assert parse_scalar("-6/4") == Q(-3, 2)
        assert parse_scalar("+7") == 7

    def test_format_canonical(self):
        assert format_scalar(Q(4, 8)) == "1/2"
        assert format_scalar(Q(-3, 1)) == "-3"

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "a/b", "1/-2", "2 3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    @given(rationals)
    def test_roundtrip(self, q):
        assert parse_scalar(format_scalar(q)) == q

    @pytest.mark.parametrize(
        "build", [parse_scalar, lambda text: point(text)[0], lambda text: point(Q(text))[0]]
    )
    def test_integral_scalar_is_int(self, build):
        for text, value in (("4/2", 2), ("-6/3", -2), ("0/5", 0), ("7", 7), ("3/6", Q(1, 2))):
            scalar = build(text)
            assert scalar == value and type(scalar) is type(value)

    def test_format_int_and_bool(self):
        assert format_scalar(12) == "12"
        assert format_scalar(True) == "1" and format_scalar(False) == "0"
        assert point(True, False) == (1, 0)
        assert all(type(c) is int for c in point(True, False))

    def test_dot_of_ints_is_int(self):
        assert type(dot(pt(2, 3), pt(4, 5))) is int
        assert type(dot(pt(Q(1, 2), 3), pt(4, Q(1, 3)))) is int
        assert dot(pt(Q(1, 2), 0), pt(1, 1)) == Q(1, 2)


class TestDot:
    def test_orthogonal_axes(self):
        assert dot(pt(1, 0), pt(0, 1)) == 0

    def test_x_axis_pin_ignores_free_coordinate(self):
        for y in (0, 1, Q(7, 3), -5):
            assert dot(pt(6, 0), pt(8, y)) == 48

    def test_rational_example(self):
        # Independent arithmetic: 3/4*4 = 3 and 5/16*8/5 = 1/2, total 7/2.
        assert dot(pt(Q(3, 4), Q(5, 16)), pt(4, Q(8, 5))) == Q(7, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot(pt(1, 2), pt(1, 2, 3))

    def test_float_coordinate_is_value_error(self):
        # dot takes points as given; a float is named, not an AttributeError,
        # in either point.
        with pytest.raises(ValueError, match=r"^float 0\.5 is not exact; pass Fraction or int$"):
            dot((0.5, 1), (1, 1))
        with pytest.raises(ValueError, match="^float 2.0 is not exact"):
            dot((1, Q(1, 3)), (0, 2.0))
        with pytest.raises(ValueError, match="^float 0.5 is not exact"):
            dot((1, 0), (0.5, 1))

    @given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
    def test_symmetric(self, p, q):
        assert dot(p, q) == dot(q, p)

    @given(
        st.tuples(rationals, rationals),
        st.tuples(rationals, rationals),
        st.tuples(rationals, rationals),
    )
    def test_bilinear(self, p, q, r):
        q_plus_r = tuple(a + b for a, b in zip(q, r))
        assert dot(p, q_plus_r) == dot(p, q) + dot(p, r)

    @given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
    def test_rotation_invariant(self, p, q):
        ps = PointSet(2, (p,)) if p != q else None
        rot = lambda x: tuple(
            sum(r * c for r, c in zip(row, x)) for row in ROTATION_2D
        )
        assert dot(rot(p), rot(q)) == dot(p, q)

    @given(st.tuples(rationals, rationals), st.tuples(rationals, rationals), rationals)
    def test_scaling_covariant(self, p, q, lam):
        lp = tuple(lam * c for c in p)
        lq = tuple(lam * c for c in q)
        assert dot(lp, lq) == lam * lam * dot(p, q)


class TestAlphaHyperplane:
    def test_vertical_line(self):
        line = alpha_hyperplane(pt(1, 0), 2)
        assert on_line(line, pt(2, 5)) and on_line(line, pt(2, -7))
        assert not on_line(line, pt(3, 0))

    def test_horizontal_line(self):
        line = alpha_hyperplane(pt(0, 3), 6)
        assert on_line(line, pt(100, 2)) and not on_line(line, pt(0, 3))

    def test_diagonal_line_members(self):
        line = alpha_hyperplane(pt(1, 1), 1)
        assert on_line(line, pt(1, 0)) and on_line(line, pt(0, 1))

    def test_origin_pin_rejected(self):
        with pytest.raises(ValueError):
            alpha_hyperplane(pt(0, 0), 1)

    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            alpha_hyperplane((1, 0), 0.1)
        with pytest.raises(ValueError, match="not exact"):
            alpha_hyperplane((1.0, 0), 1)

    def test_value_coerced_when_built_directly(self):
        # Built without alpha_hyperplane, the value follows the same rule:
        # a float is rejected, a string becomes an exact scalar.
        with pytest.raises(ValueError, match="not exact"):
            AlphaHyperplane((1, 0), 0.1)
        line = AlphaHyperplane((1, 0), "1/10")
        assert line.value == Q(1, 10) and on_line(line, (Q(1, 10), 0))
        assert AlphaHyperplane((1, 0), Q(4, 2)).value == 2

    @given(
        st.tuples(rationals, rationals),
        st.tuples(rationals, rationals),
        rationals.filter(lambda a: a != 0),
    )
    def test_distinct_pins_give_distinct_lines(self, p, q, alpha):
        # Two sample points of the alpha-line of p cannot both lie on q's
        # line unless p = q.
        if p == q or all(c == 0 for c in p) or all(c == 0 for c in q):
            return
        norm = dot(p, p)
        base = tuple(alpha * c / norm for c in p)
        perp = (-p[1], p[0])
        other = tuple(b + d for b, d in zip(base, perp))
        line_q = alpha_hyperplane(q, alpha)
        assert not (on_line(line_q, base) and on_line(line_q, other))


def direction_of(p) -> Direction:
    """The one bucket of the radial histogram of ``{p}``."""
    (direction,) = radial_histogram(point_set([p])).buckets
    return direction


class TestDirection:
    @pytest.mark.parametrize(
        "coords,expected",
        [((2, 0), (1, 0)), ((3, 3), (1, 1)), ((-4, -6), (2, 3))],
    )
    def test_canonical(self, coords, expected):
        assert direction_of(pt(*coords)).primitive == expected

    def test_clears_denominators(self):
        assert direction_of(pt(Q(1, 2), Q(3, 4))).primitive == (2, 3)

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="contains the origin"):
            direction_of(pt(0, 0))

    @given(st.tuples(rationals, rationals), rationals.filter(lambda a: a != 0))
    def test_scaling_invariant(self, p, lam):
        if all(c == 0 for c in p):
            return
        scaled = tuple(lam * c for c in p)
        assert direction_of(p) == direction_of(scaled)

    def test_validation(self):
        with pytest.raises(ValueError):
            Direction((2, 4))
        with pytest.raises(ValueError):
            Direction((-1, 2))


class TestPointSet:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            point_set([(1, 0), (1, 0)])

    def test_floats_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            point(0.5, 1)
        with pytest.raises(ValueError, match="not exact"):
            point_set([(0.1, 2)])

    def test_float_coordinate_is_value_error(self):
        # PointSet takes coordinates as given, so a float reaches the set's
        # scaling, which names it rather than failing later in a table.
        with pytest.raises(ValueError, match=r"^float 0\.5 is not exact; pass Fraction or int$"):
            PointSet(2, ((0.5, 1),))
        with pytest.raises(ValueError, match="^float 2.0 is not exact"):
            PointSet(2, ((Q(1, 3), 1), (1, 2.0)))

    @given(st.data())
    def test_accepts_exactly_the_distinct_point_lists(self, data):
        # Equal points spelled as int and as Fraction, over one shared
        # denominator or several distinct ones, are one point.
        dim = data.draw(st.integers(2, 4))
        dens = data.draw(st.sampled_from([(1,), (4,), (2, 3), (6, 10), (1, 5, 7)]))
        value = st.builds(Q, st.integers(-3, 3), st.sampled_from(dens))
        spelled = value.flatmap(lambda v: st.sampled_from([v, v.numerator] if v.denominator == 1 else [v]))
        points = data.draw(st.lists(st.tuples(*[spelled] * dim), max_size=8))
        if points and data.draw(st.booleans()):
            # A copy of a drawn point with its int coordinates as Fractions.
            p = data.draw(st.sampled_from(points))
            points.insert(data.draw(st.integers(0, len(points))), tuple(map(Q, p)))
        points = tuple(points)
        if len(set(points)) == len(points):
            assert PointSet(dim, points).points == points
        else:
            with pytest.raises(ValueError, match="pairwise distinct"):
                PointSet(dim, points)

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            PointSet(1, ((Q(1),),))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValueError):
            point_set([(1, 0), (1, 0, 0)])

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            point_set([])
        assert len(PointSet(2, ())) == 0


class TestPtsFormat:
    def test_basic(self):
        ps = read_point_set(StringIO("d 2\n1 0\n2 0\n"))
        assert ps.dim == 2 and ps.points == (pt(1, 0), pt(2, 0))

    def test_rational_point(self):
        ps = read_point_set(StringIO("d 2\n3/4 5/16\n"))
        assert ps.points == (pt(Q(3, 4), Q(5, 16)),)

    def test_duplicate_reports_line(self):
        with pytest.raises(ParseError) as exc:
            read_point_set(StringIO("d 2\n1 0\n1 0\n"))
        assert exc.value.line_no == 3

    def test_duplicate_before_bad_rational_reported_first(self):
        with pytest.raises(ParseError) as exc:
            read_point_set(StringIO("d 2\n1 2\n1 2\n1/2 x\n"))
        assert str(exc.value) == "line 3: duplicate point '1 2'"

    def test_unreduced_duplicate_reports_line(self):
        with pytest.raises(ParseError) as exc:
            read_point_set(StringIO("d 2\n# halves\n1/2 1\n\n2/4 1\n3 1\n"))
        assert str(exc.value) == "line 5: duplicate point '2/4 1'"

    def test_parsing_hashes_no_fraction(self, monkeypatch):
        # Duplicates are found on the scaled ints, on success and on error,
        # so no coordinate is hashed; 4/6 still reduces, and integral
        # coordinates still parse as ints.
        def refuse(value):
            raise AssertionError(f"hashed {value!r}")

        monkeypatch.setattr(Q, "__hash__", refuse)
        ps = read_point_set(StringIO("d 3\n1 2 3\n1/2 -1 4/6\n0 0 5\n"))
        assert ps.points[1] == (Q(1, 2), -1, Q(2, 3))
        assert sum(type(c) is Q for p in ps for c in p) == 2
        with pytest.raises(ParseError, match="line 3: duplicate point '2/4 1'"):
            read_point_set(StringIO("d 2\n1/2 1\n2/4 1\n"))

    def test_unreduced_input_reduced_on_load(self):
        ps = read_point_set(StringIO("d 2\n2/4 6/8\n"))
        assert ps.points == (pt(Q(1, 2), Q(3, 4)),)

    def test_comments_and_blanks(self):
        ps = read_point_set(StringIO("# header\n\nd 2\n# p\n1 2\n"))
        assert len(ps) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "1 0\n",  # missing header
            "d 2\n1\n",  # wrong arity
            "d 2\n1 x\n",  # bad coordinate
            "d 1\n1\n",  # bad dimension
            "",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            read_point_set(StringIO(text))

    def test_roundtrip_random_sets(self):
        for seed in range(5):
            ps = random_point_set(17, dim=2, seed=seed)
            assert read_point_set(StringIO(format_point_set(ps))) == ps

    @given(
        st.lists(
            st.tuples(rationals, rationals),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    def test_roundtrip_rational_sets(self, rows):
        ps = PointSet(2, tuple(rows))
        assert read_point_set(StringIO(format_point_set(ps))) == ps

    def test_written_output_is_reduced(self):
        ps = read_point_set(StringIO("d 2\n2/4 1\n"))
        assert "1/2" in format_point_set(ps)

    def test_stream_io(self):
        ps = point_set([(1, 2), (3, 4)])
        assert read_point_set(StringIO(format_point_set(ps))) == ps


def test_records_skip_blank_and_comment_lines():
    lines = ["d 2\n", "\n", "# note\n", "   # indented\n", "  1   3/4 \n", "\t\n", "2 # 5\n"]
    assert list(_records(lines)) == [
        (1, "d 2", ["d", "2"]),
        (5, "1   3/4", ["1", "3/4"]),
        (7, "2 # 5", ["2", "#", "5"]),
    ]


class TestRandomPointSet:
    def test_deterministic(self):
        a = random_point_set(25, seed=7)
        b = random_point_set(25, seed=7)
        assert a == b

    def test_coordinates_are_ints(self):
        for ps in (random_point_set(25, dim=3, seed=7), integer_grid(3, dim=3)):
            assert all(type(c) is int for p in ps for c in p)

    def test_excludes_origin(self):
        ps = random_point_set(24, seed=1, low=-2, high=2)
        assert pt(0, 0) not in ps

    def test_box_capacity_check(self):
        with pytest.raises(ValueError):
            random_point_set(30, seed=1, low=0, high=4, dim=1 + 1)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            random_point_set(-1, seed=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", Q(3)], ids=["2.5", "3.0", "str", "Fraction"])
    def test_size_not_an_int_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be an int, got "):
            random_point_set(n, seed=1)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: random_point_set(3, 2.5, seed=1), "dimension must be an int, got 2.5"),
            (lambda: random_point_set(3, seed=1, low=-1.5, high=2), "low must be an int, got -1.5"),
            (lambda: random_point_set(3, seed=1, low=-1, high=2.5), "high must be an int, got 2.5"),
            (lambda: integer_grid(2.5), "side must be an int, got 2.5"),
            (lambda: integer_grid(2, Q(3)), "dimension must be an int, got Fraction(3, 1)"),
            (lambda: random_point_set(3, 0, seed=1), "dimension must be at least 2, got 0"),
        ],
        ids=["dim-float", "low-float", "high-float", "side-float", "grid-dim-fraction",
             "dim-0"],
    )
    def test_generator_arguments_checked(self, make, message):
        # Each argument is checked before it is used, the dimension before
        # the box capacity, and the error names the value.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


class TestRotationInvariance:
    def test_apply_matrix_preserves_dots(self):
        ps = point_set([(1, 2), (3, 4), (5, 6)])
        rotated = apply_matrix(ROTATION_2D, ps)
        for p, q in zip(ps.points, rotated.points):
            assert dot(p, p) == dot(q, q)
