"""Descriptive baselines and coverage-based species estimators.

The predictive estimators treat error discoveries as species sightings:
c distinct errors observed across n positive votes, with fingerprint
f_j. Sample coverage is estimated Good-Turing style as 1 - f1/n, and
the total-species estimate divides the observed distinct count by that
coverage, plus a skew correction driven by the coefficient of
variation.
"""

import math
from dataclasses import dataclass

from .core import FStatistics, TallyState

__all__ = [
    "EstimatorOutput",
    "InsufficientDataError",
    "LOW_COVERAGE",
    "nominal",
    "majority",
    "extrapolate",
    "coverage",
    "cv2",
    "chao92",
    "vchao92",
]

LOW_COVERAGE = "low-coverage"


class InsufficientDataError(ValueError):
    """The requested estimate is undefined on the available statistics."""


@dataclass(frozen=True)
class EstimatorOutput:
    """A total-error estimate with its coverage and skew diagnostics.

    remaining_hat is the estimate minus the estimator's own notion of
    the currently identified count, clamped at zero. flags carries
    degenerate-input markers such as LOW_COVERAGE.
    """

    total_errors_hat: float
    remaining_hat: float
    coverage_hat: float
    cv2_hat: float
    flags: tuple[str, ...] = ()


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


def coverage(f: FStatistics) -> float:
    """Good-Turing sample-coverage estimate 1 - f1/n, clamped to [0, 1].

    An empty sample is complete by convention (returns 1).
    """
    if f.n == 0:
        return 1.0
    return min(max(1.0 - f.f1 / f.n, 0.0), 1.0)


def cv2(f: FStatistics, d_noskew: float) -> float:
    """Squared coefficient of variation of the class frequencies.

    d_noskew is the coverage-only estimate c / C-hat that anchors the
    correction. Samples of fewer than two observations carry no skew
    information and return 0.
    """
    n = f.n
    if n < 2:
        return 0.0
    ssum = sum(j * (j - 1) * fj for j, fj in f.freq.items())
    return max(d_noskew * ssum / (n * (n - 1)) - 1.0, 0.0)


def _chao_form(
    c: int, f: FStatistics, skew: FStatistics, universe: int | None
) -> EstimatorOutput:
    """Coverage-adjusted species estimate c/C + f1*cv2/C with C = coverage(f).

    The coefficient of variation comes from the `skew` fingerprint,
    anchored at its own coverage-only estimate. At zero coverage (every
    observation a singleton) the ratio form diverges; the estimate is
    then capped at the item universe size when one is supplied (infinite
    otherwise) and flagged LOW_COVERAGE.
    """
    cover = coverage(f)
    if cover == 0.0:
        total = float(universe) if universe is not None else math.inf
        return EstimatorOutput(
            total, max(total - c, 0.0), 0.0, 0.0, flags=(LOW_COVERAGE,)
        )
    skew_cover = coverage(skew)
    gamma2 = cv2(skew, skew.c / skew_cover) if skew_cover > 0 else 0.0
    total = c / cover + f.f1 * gamma2 / cover
    return EstimatorOutput(total, max(total - c, 0.0), cover, gamma2)


def chao92(f: FStatistics, universe: int | None = None) -> EstimatorOutput:
    """Coverage-based total-error estimate over discovery statistics.

    Uses the nominal distinct count carried by the fingerprint; pass
    the item universe size to enable the zero-coverage cap.
    """
    return _chao_form(f.c, f, f, universe)


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
    n_shifted = f.n - sum(fj for j, fj in f.freq.items() if j <= shift)
    if n_shifted <= 0:
        raise InsufficientDataError(f"shift {shift} leaves no effective sample (n={f.n})")
    shifted = FStatistics({j - shift: fj for j, fj in f.freq.items() if j > shift}, n_shifted)
    return _chao_form(c_majority, shifted, f, universe)
