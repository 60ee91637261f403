"""Normality screening, two-sample location tests, and the two-proportion Z-test.

The Z-test's p-value kernel works in the log domain so extreme statistics
(|Z| well past 38, where a naive erfc underflows) still yield a usable
``log10_p`` alongside the (possibly subnormal or zero) p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, stdtr

from .errors import (
    DegeneratePooledError,
    DegenerateSampleError,
    InvalidCountsError,
    LengthMismatchError,
    SampleTooLargeError,
    SampleTooSmallError,
)

__all__ = [
    "MIN_REPETITIONS",
    "TestResult",
    "shapiro_wilk",
    "compare_paired_runs",
    "two_proportion_z",
    "zvalue_to_pvalue",
]

# the fewest repetitions per group that compare_paired_runs accepts
MIN_REPETITIONS = 3

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test at a configured alpha.

    A two-sample comparison also sets ``direction``: ``"a_greater"`` or
    ``"b_greater"`` for the sample with the larger location, None for
    identical samples.
    """

    statistic: float
    p_value: float
    test_name: str
    alpha: float
    significant: bool
    log10_p: float | None = None
    direction: str | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_value <= 1.0):
            raise InvalidCountsError(f"p_value out of [0, 1]: {self.p_value}")
        if self.significant != (self.p_value < self.alpha):
            raise InvalidCountsError("significant flag inconsistent with p_value and alpha")


# --- Shapiro-Wilk (Royston's approximation) ---------------------------------

_C_LAST = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157)
_C_SECOND = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981)


def _poly(u: float, coeffs: Sequence[float]) -> float:
    # coeffs multiply u^5 .. u^1, highest power first
    total = 0.0
    for c in coeffs:
        total = total * u + c
    return total * u


def shapiro_wilk(sample: Sequence[float], alpha: float = 0.05) -> TestResult:
    """W statistic and upper-tail p for normality, 3 <= n <= 5000."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 3:
        raise SampleTooSmallError(f"shapiro_wilk needs n >= 3, got {n}")
    if n > 5000:
        raise SampleTooLargeError(f"shapiro_wilk needs n <= 5000, got {n}")
    if x[-1] == x[0]:
        raise DegenerateSampleError("all sample values are identical")

    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    msq = float(m @ m)
    a = np.empty(n)
    if n == 3:
        a[0], a[1], a[2] = -math.sqrt(0.5), 0.0, math.sqrt(0.5)
    else:
        u = 1.0 / math.sqrt(n)
        c = m / math.sqrt(msq)
        a_last = float(c[-1]) + _poly(u, _C_LAST)
        if n > 5:
            a_second = float(c[-2]) + _poly(u, _C_SECOND)
            phi = (msq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_last**2 - 2.0 * a_second**2
            )
            a[2:-2] = m[2:-2] / math.sqrt(phi)
            a[-1], a[-2], a[0], a[1] = a_last, a_second, -a_last, -a_second
        else:
            phi = (msq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_last**2)
            a[1:-1] = m[1:-1] / math.sqrt(phi)
            a[-1], a[0] = a_last, -a_last

    w_num = float(a @ x) ** 2
    w_den = float(((x - x.mean()) ** 2).sum())
    w = min(w_num / w_den, 1.0 - 1e-15)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif n <= 11:
        gamma = -2.273 + 0.459 * n
        y = math.log1p(-w)
        if y >= gamma:  # W below the approximation's domain: reject, as AS R94 does
            p = 1e-99
        else:
            stat = -math.log(gamma - y)
            mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
            sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
            p = float(ndtr(-(stat - mu) / sigma))
    else:
        stat = math.log1p(-w)
        log_n = math.log(n)
        mu = -1.5861 - 0.31082 * log_n - 0.083751 * log_n**2 + 0.0038915 * log_n**3
        sigma = math.exp(-0.4803 - 0.082676 * log_n + 0.0030302 * log_n**2)
        p = float(ndtr(-(stat - mu) / sigma))

    return TestResult(
        statistic=w, p_value=p, test_name="shapiro_wilk", alpha=alpha, significant=p < alpha
    )


# --- two-sample location tests ----------------------------------------------


def _welch_t(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    na, nb = len(a), len(b)
    va, vb = float(a.var(ddof=1)), float(b.var(ddof=1))
    se2 = va / na + vb / nb
    diff = float(a.mean() - b.mean())
    if se2 == 0.0:
        return math.copysign(math.inf, diff), 0.0 if diff else 1.0
    t = diff / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return t, min(p, 1.0)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _mann_whitney(a: np.ndarray, b: np.ndarray) -> tuple[float, float, float]:
    """Normal approximation with tie correction; returns (z, p, u1)."""
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    ranks = _average_ranks(pooled)
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    total = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum())
    sigma2 = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if sigma2 <= 0.0:
        return 0.0, 1.0, u1
    shift = u1 - mu
    corrected = shift - math.copysign(0.5, shift) if shift != 0 else 0.0
    z = corrected / math.sqrt(sigma2)
    p = min(2.0 * float(ndtr(-abs(z))), 1.0)
    return z, p, u1


def compare_paired_runs(
    a: Sequence[float], b: Sequence[float], alpha: float = 0.05
) -> TestResult:
    """Compare two repetition groups of equal size.

    Identical samples short-circuit to the no-change sentinel. Otherwise the
    groups are screened for normality; two normal groups get Welch's t-test,
    anything else the Mann-Whitney U normal approximation with tie correction.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size != y.size:
        raise LengthMismatchError(f"groups differ in size: {x.size} vs {y.size}")
    if x.size < MIN_REPETITIONS:
        raise SampleTooSmallError(f"need at least {MIN_REPETITIONS} repetitions per group, got {x.size}")
    if np.array_equal(x, y):
        return TestResult(statistic=0.0, p_value=1.0, test_name="identical", alpha=alpha, significant=False)

    def _looks_normal(sample: np.ndarray) -> bool:
        try:
            return shapiro_wilk(sample, alpha).p_value > alpha
        except DegenerateSampleError:
            return False

    if _looks_normal(x) and _looks_normal(y):
        t, p = _welch_t(x, y)
        direction = "a_greater" if x.mean() > y.mean() else "b_greater"
        return TestResult(t, p, "welch_t", alpha, p < alpha, direction=direction)

    z, p, u1 = _mann_whitney(x, y)
    direction = "a_greater" if u1 > len(x) * len(y) / 2.0 else "b_greater"
    return TestResult(z, p, "mann_whitney_u", alpha, p < alpha, direction=direction)


# --- two-proportion Z --------------------------------------------------------


def zvalue_to_pvalue(z: float) -> tuple[float, float]:
    """Two-sided (p, log10_p) for a standard-normal statistic, log-domain safe."""
    log_p = min(_LN2 + float(log_ndtr(-abs(z))), 0.0)
    p = math.exp(log_p) if log_p > -745.0 else 0.0
    return p, log_p / _LN10


def two_proportion_z(
    x1: int, n1: int, x2: int, n2: int, alpha: float = 0.05
) -> TestResult:
    """Pooled two-proportion Z-test: ``(p1 - p2) / sqrt(p(1-p)(1/n1 + 1/n2))``."""
    for label, x, n in (("group 1", x1, n1), ("group 2", x2, n2)):
        if not (isinstance(x, int) and isinstance(n, int)) or isinstance(x, bool) or isinstance(n, bool):
            raise InvalidCountsError(f"{label}: counts must be integers")
        if n < 1:
            raise InvalidCountsError(f"{label}: trial count must be >= 1, got {n}")
        if not (0 <= x <= n):
            raise InvalidCountsError(f"{label}: successes {x} outside [0, {n}]")
    pooled = (x1 + x2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        raise DegeneratePooledError(f"pooled proportion is {pooled}; Z is undefined")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (x1 / n1 - x2 / n2) / se
    p, log10_p = zvalue_to_pvalue(z)
    return TestResult(
        statistic=z,
        p_value=p,
        test_name="two_prop_z",
        alpha=alpha,
        significant=p < alpha,
        log10_p=log10_p,
    )
