from fractions import Fraction as Q

import pytest

from dottrees import (
    binary_tree_upper_exponent,
    column_exponent,
    compare_report,
    distinct_tuples_exponent,
    lattice_exponent,
    loglog_fit,
    main_exponents_consistent,
    max_copies_exponent,
    meets_power_bound,
    pinned_exponent,
)
from dottrees.bounds import format_report_table


class TestExponentFormulas:
    def test_distinct_tuples(self):
        assert distinct_tuples_exponent(3) == Q(2)
        assert distinct_tuples_exponent(2) == Q(4, 3)

    def test_pinned(self):
        assert pinned_exponent(2) == Q(2, 3)
        assert pinned_exponent(3) == Q(2, 5)

    def test_column(self):
        assert column_exponent(1) == 1
        assert column_exponent(2) == 2
        assert column_exponent(3) == 2
        assert column_exponent(6) == 4

    def test_lattice(self):
        assert lattice_exponent(2, 2) == Q(5, 3)
        assert lattice_exponent(4, 4) == Q(17, 5)

    def test_binary_upper(self):
        assert binary_tree_upper_exponent(3) == 8

    def test_max_copies(self):
        assert max_copies_exponent(2, 2) == Q(2)
        assert max_copies_exponent(6, 2) == Q(4)
        assert max_copies_exponent(4, 4) == Q(17, 5)

    def test_binary_tree_case_matches_upper_bound(self):
        for h in range(1, 7):
            k = 2 ** (h + 1) - 2
            assert column_exponent(k) == binary_tree_upper_exponent(h) == Q(2**h)

    def test_consistency_helper(self):
        assert main_exponents_consistent()

    @pytest.mark.parametrize("bad", [0, -3])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            column_exponent(bad)
        with pytest.raises(ValueError):
            lattice_exponent(2, 1)
        with pytest.raises(ValueError):
            binary_tree_upper_exponent(-1)

    def test_height_is_an_int(self):
        # 2**1.5 would make a float, turned into a long binary Fraction.
        with pytest.raises(ValueError, match=r"^h must be an int, got 1\.5$"):
            binary_tree_upper_exponent(1.5)

    @pytest.mark.parametrize("call,message", [
        (lambda: lattice_exponent(1.5, 2), r"k must be an int, got 1\.5"),
        (lambda: lattice_exponent(2, 2.0), r"dimension must be an int, got 2\.0"),
        (lambda: pinned_exponent(3.0), r"dimension must be an int, got 3\.0"),
        (lambda: distinct_tuples_exponent("2"), "k must be an int, got '2'"),
        (lambda: pinned_exponent(1), "dimension must be at least 2, got 1"),
    ], ids=["k", "lattice-dimension", "pinned-dimension", "k-string", "dimension-1"])
    def test_k_and_dimension_are_ints(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestMeetsPowerBound:
    def test_integer_exponent(self):
        assert meets_power_bound(100, 10, Q(2), 1)
        assert not meets_power_bound(99, 10, Q(2), 1)

    def test_fractional_exponent(self):
        # 27 >= (1/8) * 81 exactly.
        assert meets_power_bound(27, 9, Q(2), Q(1, 8))
        # n^(2/3) comparisons are cubed, never floated.
        assert meets_power_bound(4, 64, Q(2, 3), Q(1, 4))
        assert not meets_power_bound(3, 64, Q(2, 3), Q(1, 4))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            meets_power_bound(5, 0, Q(1))
        with pytest.raises(ValueError):
            meets_power_bound(5, 10, Q(1), 0)

    def test_negative_value_fails(self):
        assert not meets_power_bound(-1, 10, Q(1))
        assert not meets_power_bound(0, 10, Q(2))

    @pytest.mark.parametrize("args", [
        (10.0, 100, Q(1, 2), 1), (10, 100.0, Q(1, 2), 1), (10, 100, 0.5, 1),
        (10, 100, Q(1, 2), 0.1),
    ], ids=["value", "n", "exponent", "c"])
    def test_float_is_not_exact(self, args):
        # As for a coordinate: 0.1 would be the binary fraction nearest it.
        with pytest.raises(ValueError, match="is not exact"):
            meets_power_bound(*args)


class TestLogLogFit:
    def test_square_law(self):
        assert loglog_fit([(10, 100), (20, 400), (40, 1600)]) == pytest.approx(2.0, abs=1e-12)

    def test_linear_series(self):
        assert loglog_fit([(n, n) for n in (3, 9, 27, 81)]) == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_distinct(self):
        with pytest.raises(ValueError):
            loglog_fit([(10, 100), (10, 100), (10, 100)])
        with pytest.raises(ValueError):
            loglog_fit([(10, 100), (20, 400)])

    def test_positive_only(self):
        with pytest.raises(ValueError):
            loglog_fit([(10, 0), (20, 400), (40, 1600)])

    @pytest.mark.parametrize("first,message", [
        ((2.5, 3), r"n must be an int, got 2\.5"),
        (("2", 3), "n must be an int, got '2'"),
        ((2, 3.0), r"count must be an int, got 3\.0"),
    ], ids=["float-n", "string-n", "float-count"])
    def test_series_takes_ints(self, first, message):
        # int() used to truncate these into a fit of (2, 3), (4, 5), (8, 9).
        with pytest.raises(ValueError, match=f"^{message}$"):
            loglog_fit([first, (4, 5), (8, 9)])


class TestCompareReport:
    def _runs(self):
        return [(n, n * n, None) for n in (10, 20, 40)]

    def test_pass_simple(self):
        report = compare_report("demo", {"k": 2}, self._runs(), Q(2), threshold_c=Q(1, 2))
        assert report["pass"]
        assert report["params"] == {"k": 2, "n": [10, 20, 40]}
        assert report["predicted_exponent"] == "2"
        assert report["fit_slope"] == pytest.approx(2.0, abs=1e-9)
        assert report["empirical"] == [[10, 100], [20, 400], [40, 1600]]

    def test_threshold_failure(self):
        report = compare_report("demo", {}, [(10, 5, None)], Q(2))
        assert not report["pass"]

    def test_equality_check(self):
        runs = [(10, 100, 100), (20, 400, 401), (40, 1600, None)]
        report = compare_report("demo", {}, runs, Q(2), threshold_c=Q(1, 2))
        assert not report["pass"]
        assert [check["equal_ok"] for check in report["checks"]] == [True, False, None]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compare_report("demo", {}, [], Q(2))

    @pytest.mark.parametrize("exponent,threshold_c", [(Q(1, 2), 0.1), (0.5, Q(1, 8))],
                             ids=["threshold_c", "exponent"])
    def test_float_is_not_exact(self, exponent, threshold_c):
        with pytest.raises(ValueError, match="is not exact"):
            compare_report("demo", {}, [(4, 2, None)], exponent, threshold_c=threshold_c)

    @pytest.mark.parametrize("run,message", [
        ((4, 3, Q(7, 2)), r"predicted must be an int, got Fraction\(7, 2\)"),
        ((4, 3, 3.9), r"predicted must be an int, got 3\.9"),
        ((4.5, 2.9, None), r"n must be an int, got 4\.5"),
        ((4, 2.9, None), r"count must be an int, got 2\.9"),
    ], ids=["fraction-predicted", "float-predicted", "float-n", "float-count"])
    def test_runs_take_ints(self, run, message):
        # int() used to truncate these, so a count of 3 equalled 7/2.
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare_report("demo", {}, [run], Q(1, 2), threshold_c=1)

    def test_table_rendering(self):
        report = compare_report("demo", {"k": 2}, self._runs(), Q(2), threshold_c=Q(1, 2))
        table = format_report_table(report)
        assert "demo" in table and "PASS" in table
        assert "1600" in table
