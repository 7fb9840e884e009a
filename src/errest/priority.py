"""Heuristic-gated sampling of the item universe.

A confidence score per item splits the universe into auto-dirty,
auto-clean, and an ambiguous middle band that is worth showing to
workers. Tasks are filled mostly from the ambiguous band, with an
epsilon-randomized escape hatch into the rest of the universe so that
heuristic mistakes can still surface.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "HeuristicPartition",
    "EpsilonPolicy",
    "stratum_rule",
    "partition",
    "draw_task",
    "total_with_perfect_heuristic",
]

DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class HeuristicPartition:
    """Item universe split by confidence score against [alpha, beta].

    Scores inside the closed band are ambiguous; above beta the item is
    auto-dirty, below alpha auto-clean.
    """

    ambiguous: tuple[int, ...]
    auto_dirty: tuple[int, ...]
    auto_clean: tuple[int, ...]

    @property
    def universe_size(self) -> int:
        return len(self.ambiguous) + len(self.auto_dirty) + len(self.auto_clean)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        """Everything outside the ambiguous band, in item order."""
        return tuple(sorted(self.auto_dirty + self.auto_clean))


def stratum_rule(alpha: float, beta: float) -> Callable[[float], str]:
    """Check the band [alpha, beta] and return the rule placing one score.

    The rule names the stratum: "auto_dirty" above beta, "auto_clean"
    below alpha, "ambiguous" inside the closed band.
    """
    if not 0.0 <= alpha <= beta <= 1.0:
        raise ValueError(f"need 0 <= alpha <= beta <= 1, got {alpha}, {beta}")

    def stratum(score: float) -> str:
        if score > beta:
            return "auto_dirty"
        if score < alpha:
            return "auto_clean"
        return "ambiguous"

    return stratum


def partition(scores: Sequence[float], alpha: float, beta: float) -> HeuristicPartition:
    """Split items by score into auto-clean / ambiguous / auto-dirty."""
    rule = stratum_rule(alpha, beta)
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("scores must lie in [0, 1]")
    strata: dict[str, list[int]] = {"ambiguous": [], "auto_dirty": [], "auto_clean": []}
    for item, score in enumerate(arr.tolist()):
        strata[rule(score)].append(item)
    return HeuristicPartition(
        ambiguous=tuple(strata["ambiguous"]),
        auto_dirty=tuple(strata["auto_dirty"]),
        auto_clean=tuple(strata["auto_clean"]),
    )


@dataclass
class EpsilonPolicy:
    """Randomized stratum selection: ambiguous with probability 1 - epsilon.

    Owns its PRNG stream; one policy instance per simulation run.
    """

    epsilon: float = DEFAULT_EPSILON
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        self.rng = np.random.default_rng(self.seed)


def _draw_from(stratum: tuple[int, ...], chosen: set[int], rng) -> int:
    # Rejection sampling; callers guarantee the stratum is not exhausted.
    while True:
        item = stratum[int(rng.integers(len(stratum)))]
        if item not in chosen:
            return item


def draw_task(
    p: HeuristicPartition, policy: EpsilonPolicy, size: int
) -> tuple[int, ...]:
    """Fill one task of `size` distinct items under the epsilon policy.

    Each slot independently targets the ambiguous band with probability
    1 - epsilon (the complement otherwise), then draws uniformly among
    that stratum's items not already in the task. A stratum that is
    empty or exhausted falls back to the other one with a warning.
    """
    if size < 0 or size > p.universe_size:
        raise ValueError(f"task size {size} outside [0, {p.universe_size}]")
    chosen: set[int] = set()
    taken = {True: 0, False: 0}  # draws taken per stratum (True = ambiguous)
    strata = {True: p.ambiguous, False: p.complement}
    warned = False
    picks = []
    for _ in range(size):
        want_ambiguous = policy.rng.random() < 1.0 - policy.epsilon
        if taken[want_ambiguous] >= len(strata[want_ambiguous]):
            if not warned:
                warnings.warn(
                    "requested stratum empty or exhausted; falling back to the other",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned = True
            want_ambiguous = not want_ambiguous
        item = _draw_from(strata[want_ambiguous], chosen, policy.rng)
        chosen.add(item)
        taken[want_ambiguous] += 1
        picks.append(item)
    return tuple(picks)


def total_with_perfect_heuristic(d_hat_on_rh: float, p: HeuristicPartition) -> float:
    """Total errors when the heuristic is trusted outside the band.

    The estimate over the ambiguous band plus everything auto-dirty.
    """
    return float(d_hat_on_rh) + len(p.auto_dirty)
