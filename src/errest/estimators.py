"""Descriptive baselines and coverage-based species estimators.

The predictive estimators treat error discoveries as species sightings:
c distinct errors observed across n positive votes, with fingerprint
f_j. Sample coverage is estimated Good-Turing style as 1 - f1/n, and
the total-species estimate divides the observed distinct count by that
coverage, plus a skew correction driven by the coefficient of
variation.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import FStatistics, TallyState

__all__ = [
    "EstimatorOutput",
    "InsufficientDataError",
    "LOW_COVERAGE",
    "Moments",
    "nominal",
    "majority",
    "extrapolate",
    "coverage",
    "cv2",
    "chao92",
    "vchao92",
    "vchao92_columns",
]

LOW_COVERAGE = "low-coverage"


class InsufficientDataError(ValueError):
    """The requested estimate is undefined on the available statistics."""


class EstimatorOutput(NamedTuple):
    """A total-error estimate with its coverage and skew diagnostics.

    remaining_hat is the estimate minus the estimator's own notion of
    the currently identified count, clamped at zero. The fields are
    floats for one sample (an FStatistics) and columns for Moments.
    """

    total_errors_hat: float | np.ndarray
    remaining_hat: float | np.ndarray
    coverage_hat: float | np.ndarray
    cv2_hat: float | np.ndarray


def nominal(t: TallyState) -> int:
    """Number of items marked dirty by at least one worker."""
    return int((t.pos > 0).sum())


def majority(t: TallyState) -> int:
    """Number of items whose votes show a strict dirty majority.

    Ties count as clean.
    """
    return int((t.pos > t.neg).sum())


def extrapolate(sample_fraction: float, sample_errors: int) -> tuple[float, float]:
    """Scale up the error count of a perfectly cleaned sample.

    Returns (total, remaining) where total = sample_errors /
    sample_fraction and remaining subtracts the already-found errors.
    """
    if not 0 < sample_fraction <= 1:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    total = sample_errors / sample_fraction
    return total, total - sample_errors


class Moments(NamedTuple):
    """Columns of fingerprint moments, one entry per sample: class count c, singletons f1,
    sample size n and the skew moment ssum = sum of j(j-1)f_j. An FStatistics has the
    same four names as ints."""

    c: np.ndarray
    f1: np.ndarray
    n: np.ndarray
    ssum: np.ndarray


def coverage(f: FStatistics | Moments) -> float | np.ndarray:
    """Good-Turing sample-coverage estimate 1 - f1/n, clamped to [0, 1].

    f is an FStatistics, giving a float, or Moments, giving a column. An
    empty sample is complete by convention (returns 1).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cover = np.where(np.equal(f.n, 0), 1.0, np.clip(1.0 - f.f1 / np.asarray(f.n), 0.0, 1.0))
    return cover if cover.ndim else float(cover)


def cv2(f: FStatistics | Moments, d_noskew) -> float | np.ndarray:
    """Squared coefficient of variation of the class frequencies.

    d_noskew is the coverage-only estimate c / C-hat that anchors the
    correction. Samples of fewer than two observations carry no skew
    information and return 0. Takes and returns columns like coverage.
    """
    n = np.asarray(f.n, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma2 = np.where(n < 2, 0.0, np.maximum(d_noskew * f.ssum / (n * (n - 1)) - 1.0, 0.0))
    return gamma2 if gamma2.ndim else float(gamma2)


def _chao_form(c, f, skew, universe: int | None) -> EstimatorOutput:
    """Coverage-adjusted species estimate c/C + f1*cv2/C with C = coverage(f).

    f supplies the columns f1 and n, skew all four moments. The
    coefficient of variation comes from the `skew` fingerprint, anchored
    at its own coverage-only estimate. At zero coverage (every
    observation a singleton) the ratio form diverges; the estimate is
    then capped at the item universe size when one is supplied (infinite
    otherwise); its coverage_hat of 0.0 is the LOW_COVERAGE condition.
    """
    cover = np.asarray(coverage(f))
    skew_cover = np.asarray(coverage(skew))
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma2 = np.where(skew_cover > 0, cv2(skew, skew.c / skew_cover), 0.0)
        total = c / cover + f.f1 * gamma2 / cover
    low = cover == 0.0
    total = np.where(low, math.inf if universe is None else float(universe), total)
    gamma2 = np.where(low, 0.0, gamma2)
    return EstimatorOutput(total, np.maximum(total - c, 0.0), cover, gamma2)


def vchao92_columns(f: Moments, c_majority, f_next, n_low, universe: int | None = None):
    """vchao92 on columns, given f_{1+shift} and n_low, the sum of f_j over j <= shift.

    Returns the estimates and the mask of the rows where the shift leaves
    no effective sample, whose estimates are undefined.
    """
    n_shifted = f.n - n_low  # the shifted sample's f1 is f_next
    est = _chao_form(c_majority, Moments(c_majority, f_next, n_shifted, 0), f, universe)
    return est, np.asarray(n_shifted) <= 0


def chao92(f: FStatistics | Moments, universe: int | None = None) -> EstimatorOutput:
    """Coverage-based total-error estimate over discovery statistics.

    Uses the nominal distinct count carried by the fingerprint; pass
    the item universe size to enable the zero-coverage cap. An
    FStatistics gives floats, Moments columns.
    """
    est = _chao_form(f.c, f, f, universe)
    return est if isinstance(f, Moments) else EstimatorOutput(*map(float, est))


def vchao92(
    f: FStatistics, c_majority: int, shift: int = 1, universe: int | None = None
) -> EstimatorOutput:
    """Voting- and shift-hardened variant of the coverage estimate.

    The distinct count is c_majority, the strict-majority count of the
    prefix behind f, rather than the nominal one, and the fingerprint is
    shifted by `shift` so that f_{1+shift} plays the singleton role:
    items need more corroboration before they steer the estimate. The
    effective sample size drops the votes absorbed by the discarded low
    end. The skew correction reuses the unshifted fingerprint's
    coefficient of variation, so with shift=0 and c_majority = f.c this
    reduces to the plain coverage estimate. Raises InsufficientDataError
    when the shift consumes the whole sample.
    """
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    n_low = sum(fj for j, fj in f.freq.items() if j <= shift)
    est, insufficient = vchao92_columns(f, c_majority, f.f(shift + 1), n_low, universe)
    if insufficient:
        raise InsufficientDataError(f"shift {shift} leaves no effective sample (n={f.n})")
    return EstimatorOutput(*map(float, est))
