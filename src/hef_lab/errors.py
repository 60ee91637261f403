"""Exception types shared across the package.

Every domain error derives from :class:`HefLabError` so callers can catch
one base; most also derive from a matching builtin so generic handling
(``except ValueError``) keeps working.
"""

from __future__ import annotations


class HefLabError(Exception):
    """Base class for all errors raised by this package."""


# --- series / dataset ------------------------------------------------------


class SeriesTooShortError(HefLabError, ValueError):
    """A time series is too short for the requested operation."""


class InvalidParameterError(HefLabError, ValueError):
    """An argument is outside its documented domain."""


class TargetTooLargeError(HefLabError, ValueError):
    """Requested sample size exceeds the population."""


class DatasetFormatError(HefLabError, ValueError):
    """A dataset file violates the long-format CSV schema."""


# --- metrics ---------------------------------------------------------------


class LengthMismatchError(HefLabError, ValueError):
    """Paired sequences have different lengths."""


class EmptyInputError(HefLabError, ValueError):
    """An input sequence is empty."""


class NonFiniteInputError(HefLabError, ValueError):
    """An input contains NaN or infinity."""


class ZeroVarianceError(HefLabError, ValueError):
    """The actual values are constant, so variance-normalized metrics are undefined."""


class ZeroTotalVolumeError(HefLabError, ValueError):
    """The actual values sum to zero absolute volume."""


class FlatTrainingSeriesError(HefLabError, ValueError):
    """The training series has no variation, so the naive scaling error is zero."""


# --- models ----------------------------------------------------------------


class InsufficientDataError(HefLabError, ValueError):
    """Not enough observations to fit the requested model."""


class SingularDesignError(HefLabError, ArithmeticError):
    """Normal equations remain rank-deficient after ridge stabilization."""


class NonConvergenceError(HefLabError, RuntimeError):
    """An iterative fit hit its iteration cap without converging."""


class UnknownModelError(HefLabError, KeyError):
    """The model name is not in the registry."""

    def __str__(self) -> str:
        # KeyError would show the message quoted, as a key
        return str(self.args[0]) if self.args else ""


# --- optimizers ------------------------------------------------------------


class GridTooLargeError(HefLabError, ValueError):
    """The Cartesian product of the grid exceeds the configured cap."""


class EmptySpaceError(HefLabError, ValueError):
    """The search space has no dimensions usable by this optimizer."""


# --- stats -----------------------------------------------------------------


class SampleTooSmallError(HefLabError, ValueError):
    """Sample below the minimum size for the test."""


class SampleTooLargeError(HefLabError, ValueError):
    """Sample above the maximum size for the test."""


class DegenerateSampleError(HefLabError, ValueError):
    """All sample values are identical; the statistic is undefined."""


class InvalidCountsError(HefLabError, ValueError):
    """Success counts / trial counts are inconsistent."""


class DegeneratePooledError(HefLabError, ValueError):
    """Pooled proportion is 0 or 1; the Z statistic is undefined."""


# --- config / cli ----------------------------------------------------------


class ConfigError(HefLabError, ValueError):
    """The experiment configuration file or overrides cannot be parsed."""
