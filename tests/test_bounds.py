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

    def test_table_rendering(self):
        report = compare_report("demo", {"k": 2}, self._runs(), Q(2), threshold_c=Q(1, 2))
        table = format_report_table(report)
        assert "demo" in table and "PASS" in table
        assert "1600" in table
