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


def draw_task(
    p: HeuristicPartition, policy: EpsilonPolicy, size: int
) -> tuple[int, ...]:
    """Fill one task of `size` distinct items under the epsilon policy.

    Each slot independently targets the ambiguous band with probability
    1 - epsilon (the complement otherwise), then draws uniformly among
    that stratum's items not already in the task. A stratum that is
    empty or exhausted falls back to the other one with a warning.

    The PCG64 words of `policy.rng` are decoded here exactly as the
    scalar `rng.random()` and `rng.integers(len(stratum))` calls per slot
    would consume them, so picks and generator state match those calls;
    any other bit generator raises TypeError.
    """
    if size < 0 or size > p.universe_size:
        raise ValueError(f"task size {size} outside [0, {p.universe_size}]")
    bg = policy.rng.bit_generator
    if not isinstance(bg, np.random.PCG64):
        raise TypeError(f"draw_task decodes PCG64 words, not {type(bg).__name__}")
    start = bg.state
    has_spare, spare = start["has_uint32"], start["uinteger"]  # the buffered 32-bit half
    words, used = [], 0
    ambiguous_below = (1.0 - policy.epsilon) * 2**53  # random() is (word >> 11) * 2**-53
    strata = (p.complement, p.ambiguous)  # indexed by "wants the ambiguous band"
    taken = [0, 0]  # draws taken per stratum
    chosen: set[int] = set()
    warned = False
    picks = []
    for _ in range(size):
        if used == len(words):
            words += bg.random_raw(2 * size).tolist()
        want_ambiguous = words[used] >> 11 < ambiguous_below
        used += 1
        if taken[want_ambiguous] >= len(strata[want_ambiguous]):
            if not warned:
                warnings.warn(
                    "requested stratum empty or exhausted; falling back to the other",
                    RuntimeWarning,
                    stacklevel=2,
                )
                warned = True
            want_ambiguous = not want_ambiguous
        stratum = strata[want_ambiguous]
        n = len(stratum)
        while True:  # integers(n) until an item not yet in the task comes up
            if n > 1:
                # Lemire's method on 32-bit halves, numpy's path for n <= 2**32; a stratum
                # tuple never holds that many items, so there is no 64-bit branch.
                if has_spare:
                    half, has_spare = spare, 0  # numpy leaves a used half in `uinteger`
                else:
                    if used == len(words):
                        words += bg.random_raw(2 * size).tolist()
                    half, has_spare, spare = words[used] & 0xFFFFFFFF, 1, words[used] >> 32
                    used += 1
                m = half * n
                if m & 0xFFFFFFFF < (2**32 - n) % n:
                    continue
                item = stratum[m >> 32]
            else:  # numpy returns the one value of a one-value range and reads no bits
                item = stratum[0]
            if item not in chosen:
                break
        chosen.add(item)
        taken[want_ambiguous] += 1
        picks.append(item)
    # Keep exactly the words used: random_raw moves the 128-bit state and leaves the
    # spare half alone, so replay them from the start state with the final spare.
    start["has_uint32"], start["uinteger"] = has_spare, spare
    bg.state = start
    bg.random_raw(used)
    return tuple(picks)


def total_with_perfect_heuristic(d_hat_on_rh: float, p: HeuristicPartition) -> float:
    """Total errors when the heuristic is trusted outside the band.

    The estimate over the ambiguous band plus everything auto-dirty.
    """
    return float(d_hat_on_rh) + len(p.auto_dirty)
