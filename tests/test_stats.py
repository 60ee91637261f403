"""Statistical tests: cross-implementation oracles and calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from hef_lab.errors import (
    DegeneratePooledError,
    DegenerateSampleError,
    HefLabError,
    InvalidCountsError,
    LengthMismatchError,
    SampleTooLargeError,
    SampleTooSmallError,
)
from hef_lab import stats
from hef_lab.stats import (
    compare_paired_runs,
    shapiro_wilk,
    two_proportion_z,
    zvalue_to_pvalue,
)


class TestShapiroWilk:
    def test_agrees_with_independent_implementation(self) -> None:
        # scipy's shapiro is an independent high-precision reference
        for n in (4, 8, 11, 12, 21, 60, 300):
            for seed in range(10):
                x = np.random.default_rng(1000 * n + seed).normal(size=n)
                mine = shapiro_wilk(x)
                ref = scipy.stats.shapiro(x)
                assert mine.statistic == pytest.approx(float(ref.statistic), abs=1e-6)
                assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-4)

    def test_detects_exponential_at_oracle_rate(self) -> None:
        # Monte-Carlo power against exp(1) at n=21 is ~0.84 (scipy agrees on
        # identical draws); assert the oracle-derived band, not more
        hits = sum(
            shapiro_wilk(np.random.default_rng(500 + s).exponential(1.0, 21)).p_value < 0.05
            for s in range(100)
        )
        assert 75 <= hits <= 95

    def test_degenerate_sample(self) -> None:
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk([3.0] * 10)

    def test_size_limits(self) -> None:
        with pytest.raises(SampleTooSmallError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(SampleTooLargeError):
            shapiro_wilk(np.arange(5001, dtype=float))

    def test_w_below_small_sample_domain_rejects(self) -> None:
        # four values equal up to the last bit: W comes from round-off and
        # falls below the n <= 11 approximation's domain
        b = 37.15819812
        x = [b, b, b + math.ulp(b), b + math.ulp(b)]
        result = shapiro_wilk(x)
        assert result.p_value == 1e-99 and result.significant
        compare_paired_runs(x, [b + 1.0, b + 2.0, b + 3.0, b + 5.0])

    def test_n3_exact_branch(self) -> None:
        x = [1.0, 2.0, 10.0]
        mine = shapiro_wilk(x)
        ref = scipy.stats.shapiro(x)
        assert mine.statistic == pytest.approx(float(ref.statistic), abs=1e-6)
        assert 0.0 <= mine.p_value <= 1.0


class TestComparePairedRuns:
    def test_identical_samples_no_change(self) -> None:
        a = list(range(1, 22))
        result = compare_paired_runs(a, list(a))
        assert result.test_name == "identical"
        assert not result.significant and result.p_value == 1.0
        assert result.direction is None

    def test_separated_samples(self) -> None:
        a = [float(v) for v in range(1, 22)]
        b = [v + 100.0 for v in a]
        result = compare_paired_runs(a, b)
        assert result.significant
        assert result.p_value < 1e-6
        assert result.direction == "b_greater"
        assert result.test_name == "welch_t"

    def test_symmetry_up_to_direction(self) -> None:
        rng = np.random.default_rng(88)
        a = rng.normal(0.0, 1.0, 21)
        b = rng.normal(1.0, 1.0, 21)
        fwd = compare_paired_runs(a, b)
        rev = compare_paired_runs(b, a)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)
        assert {fwd.direction, rev.direction} == {"a_greater", "b_greater"}

    def test_constant_groups_use_rank_test(self) -> None:
        result = compare_paired_runs([1.0] * 21, [2.0] * 21)
        assert result.test_name == "mann_whitney_u"
        assert result.significant
        assert result.direction == "b_greater"

    def test_skewed_samples_fall_back_to_rank_test(self) -> None:
        rng = np.random.default_rng(12)
        a = rng.exponential(1.0, 21) ** 3
        b = rng.exponential(1.0, 21) ** 3
        result = compare_paired_runs(a, b)
        assert result.test_name == "mann_whitney_u"

    @pytest.mark.parametrize(
        ("a", "b", "test_name", "direction"),
        [
            ([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0], "identical", None),
            ([11.0, 12.0, 13.0, 14.0, 15.0], [1.0, 2.0, 3.0, 4.0, 5.0], "welch_t", "a_greater"),
            ([1.0, 2.0, 3.0, 4.0, 5.0], [11.0, 12.0, 13.0, 14.0, 15.0], "welch_t", "b_greater"),
            ([3.0] * 21, [2.0] * 21, "mann_whitney_u", "a_greater"),
            ([2.0] * 21, [3.0] * 21, "mann_whitney_u", "b_greater"),
        ],
    )
    def test_direction_on_each_path(self, a, b, test_name, direction) -> None:
        result = compare_paired_runs(a, b)
        assert isinstance(result, stats.TestResult)
        assert (result.test_name, result.direction) == (test_name, direction)
        assert result.log10_p is None

    def test_validation(self) -> None:
        with pytest.raises(LengthMismatchError):
            compare_paired_runs([1, 2, 3], [1, 2])
        with pytest.raises(SampleTooSmallError):
            compare_paired_runs([1, 2], [3, 4])

    def test_null_false_positive_rate(self) -> None:
        rng = np.random.default_rng(314)
        false_positives = sum(
            compare_paired_runs(rng.normal(size=21), rng.normal(size=21), 0.05).significant
            for _ in range(200)
        )
        assert 0.01 <= false_positives / 200 <= 0.10

    @pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
    def test_huge_groups_give_a_result_or_a_domain_error(self, scale) -> None:
        rng = np.random.default_rng(31)
        a = rng.normal(size=21) * scale
        groups = [
            (a, rng.normal(size=21) * scale),  # both normal: Welch
            (a, rng.normal(0.5, 1.0, 21) * scale),
            (a, rng.exponential(size=21) * scale),  # one skewed: Mann-Whitney
            (a, a[::-1] * 1.5),
        ]
        for x, y in groups:
            try:
                result = compare_paired_runs(x, y)
            except HefLabError:
                continue
            assert isinstance(result, stats.TestResult) and 0.0 <= result.p_value <= 1.0

    def test_far_scales_are_tested_at_unit_scale(self) -> None:
        # outside 2**-200 .. 2**200 both groups are divided by one exact power
        # of two, which gives the statistics of the same groups near 1
        rng = np.random.default_rng(37)
        for _ in range(10):
            a, b = rng.normal(size=21), rng.normal(0.3, 1.2, 21) + rng.exponential(size=21) * rng.integers(2)
            _, e = math.frexp(float(np.abs(np.concatenate((a, b))).max()))
            unit = compare_paired_runs(np.ldexp(a, -e), np.ldexp(b, -e))
            for k in (-300, 400):
                assert compare_paired_runs(np.ldexp(a, k), np.ldexp(b, k)) == unit
            _, e = math.frexp(float(np.abs(a).max()))
            assert shapiro_wilk(np.ldexp(a, 500)) == shapiro_wilk(np.ldexp(a, -e))

    def test_ordinary_scale_keeps_its_bits(self) -> None:
        # frozen from the unscaled computation: dividing these groups by 32
        # would move Welch's p by one ulp, because pow(x, 2) is not always
        # rounded as x * x is
        a = [24.089378586635586, 24.090130640041128, 24.09118184842761]
        b = [24.094153660780986, 24.090687957530573, 24.093149476071233]
        result = compare_paired_runs(a, b)
        assert (result.test_name, result.statistic, result.p_value) == (
            "welch_t", -2.1072929575091233, 0.12667835398627053
        )
        assert shapiro_wilk(a).statistic == 0.9909095024679379
        assert shapiro_wilk(b).statistic == 0.9443400876981684


class TestTwoProportionZ:
    def test_equal_proportions(self) -> None:
        result = two_proportion_z(30, 100, 60, 200)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant

    def test_hand_example(self) -> None:
        result = two_proportion_z(60, 100, 40, 100)
        assert result.statistic == pytest.approx(2.8284271247, abs=1e-9)
        assert result.p_value == pytest.approx(0.004677735, abs=1e-8)
        assert result.significant

    def test_antisymmetry(self) -> None:
        fwd = two_proportion_z(60, 100, 40, 100)
        rev = two_proportion_z(40, 100, 60, 100)
        assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, rel=1e-12)

    def test_doubling_counts_scales_z_by_sqrt2(self) -> None:
        base = two_proportion_z(60, 100, 40, 100)
        doubled = two_proportion_z(120, 200, 80, 200)
        assert doubled.statistic == pytest.approx(base.statistic * math.sqrt(2.0), rel=1e-12)

    def test_degenerate_pooled(self) -> None:
        with pytest.raises(DegeneratePooledError):
            two_proportion_z(0, 50, 0, 50)
        with pytest.raises(DegeneratePooledError):
            two_proportion_z(50, 50, 50, 50)

    def test_invalid_counts(self) -> None:
        with pytest.raises(InvalidCountsError):
            two_proportion_z(-1, 10, 5, 10)
        with pytest.raises(InvalidCountsError):
            two_proportion_z(11, 10, 5, 10)
        with pytest.raises(InvalidCountsError):
            two_proportion_z(5, 0, 5, 10)


class TestPValueKernel:
    def test_z_zero(self) -> None:
        p, log10_p = zvalue_to_pvalue(0.0)
        assert p == 1.0 and log10_p == 0.0

    def test_matches_arbitrary_precision_oracle(self) -> None:
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for z in (0.5, 1.96, 2.8284, 5.0, 12.9, 29.04, 33.18, 49.57, 66.21, 70.0):
            _, log10_p = zvalue_to_pvalue(z)
            exact = 2 * mpmath.ncdf(-mpmath.mpf(str(z)))
            exact_log10 = float(mpmath.log10(exact))
            # 3 significant digits of p <-> ~4e-4 absolute accuracy in log10
            assert log10_p == pytest.approx(exact_log10, abs=5e-4)

    def test_published_extreme_value(self) -> None:
        # |Z| = 33.18 should land within 15% of 2.26e-241
        p, log10_p = zvalue_to_pvalue(-33.18)
        assert abs(log10_p - math.log10(2.26e-241)) <= math.log10(1.15)
        assert p > 0.0  # still representable in double precision

    def test_no_premature_underflow(self) -> None:
        p, log10_p = zvalue_to_pvalue(-37.0)
        assert p > 0.0 and log10_p < -290.0
        p2, log10_p2 = zvalue_to_pvalue(-66.21)
        assert p2 == 0.0  # beyond doubles, but the log stays informative
        assert log10_p2 == pytest.approx(-953.84, abs=0.01)
