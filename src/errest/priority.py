"""Heuristic-gated sampling of the item universe.

A confidence score per item splits the universe into auto-dirty,
auto-clean, and an ambiguous middle band that is worth showing to
workers. Tasks are filled mostly from the ambiguous band, with an
epsilon-randomized escape hatch into the rest of the universe so that
heuristic mistakes can still surface.
"""

from __future__ import annotations  # np.random loads only when a run draws

import math
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
    "draw_tasks",
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
    stratum_rule(alpha, beta)  # checks the band; the masks below place scores by its rule
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError("scores must lie in [0, 1]")
    dirty, clean = arr > beta, arr < alpha
    return HeuristicPartition(
        ambiguous=tuple(np.flatnonzero(~(dirty | clean)).tolist()),
        auto_dirty=tuple(np.flatnonzero(dirty).tolist()),
        auto_clean=tuple(np.flatnonzero(clean).tolist()),
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


def draw_tasks(p: HeuristicPartition, policy: EpsilonPolicy, size: int, n_tasks: int) -> np.ndarray:
    """Fill `n_tasks` tasks of `size` distinct items under the epsilon policy, one per row.

    Each slot targets the ambiguous band with probability 1 - epsilon, else the complement,
    then draws uniformly among that stratum's items not yet in its task; an empty or
    exhausted stratum falls back to the other, with one warning per task. The PCG64 words
    of `policy.rng` are decoded as scalar `random()` and `integers(len(stratum))` calls per
    slot would consume them, so picks and generator state match those calls; any other bit
    generator raises TypeError. The state is read and written once; words come in blocks.
    """
    return _draw_tasks(p, policy, size, n_tasks)


def draw_task(p: HeuristicPartition, policy: EpsilonPolicy, size: int) -> tuple[int, ...]:
    """Fill one task of `size` distinct items: `draw_tasks` for one task."""
    return tuple(_draw_tasks(p, policy, size, 1)[0].tolist())


def _draw_tasks(p, policy, size, n_tasks):
    """draw_tasks; both public forms call it, so a warning names their caller's line."""
    if size < 0 or size > p.universe_size:
        raise ValueError(f"task size {size} outside [0, {p.universe_size}]")
    bg = policy.rng.bit_generator
    if not isinstance(bg, np.random.PCG64):
        raise TypeError(f"draw_tasks decodes PCG64 words, not {type(bg).__name__}")
    start = bg.state
    has_spare, spare = start["has_uint32"], start["uinteger"]  # the buffered 32-bit half
    block = min(2 * size * n_tasks, max(2 * size, 4096))  # words fetched at a time
    words, at, done = bg.random_raw(block).tolist(), 0, 0  # at: next word; done: earlier blocks
    # random() is (word >> 11) * 2**-53, below 1 - epsilon exactly when the word is below this.
    ambiguous_below = math.ceil((1.0 - policy.epsilon) * 2**53) << 11
    # Indexed by "wants the ambiguous band": items, count, and Lemire's rejection bound.
    strata = [(s, len(s), (2**32 - len(s)) % len(s) if s else 0)
              for s in (p.complement, p.ambiguous)]
    picks = []
    for _ in range(n_tasks):
        taken = [0, 0]  # draws taken per stratum
        chosen: set[int] = set()
        warned = False
        for _ in range(size):
            if at == block:
                done, words, at = done + at, bg.random_raw(block).tolist(), 0
            want_ambiguous = words[at] < ambiguous_below
            at += 1
            if taken[want_ambiguous] == strata[want_ambiguous][1]:
                if not warned:
                    message = "requested stratum empty or exhausted; falling back to the other"
                    warnings.warn(message, RuntimeWarning, stacklevel=3)
                    warned = True
                want_ambiguous = not want_ambiguous
            stratum, n, limit = strata[want_ambiguous]
            while True:  # integers(n) until an item not yet in the task comes up
                if n > 1:
                    # Lemire's method on 32-bit halves, numpy's path for n <= 2**32; a stratum
                    # tuple never holds that many items, so there is no 64-bit branch.
                    if has_spare:
                        half, has_spare = spare, 0  # numpy leaves a used half in `uinteger`
                    else:
                        if at == block:
                            done, words, at = done + at, bg.random_raw(block).tolist(), 0
                        half, has_spare, spare = words[at] & 0xFFFFFFFF, 1, words[at] >> 32
                        at += 1
                    m = half * n
                    if m & 0xFFFFFFFF < limit:
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
    bg.random_raw(done + at, output=False)
    return np.array(picks, dtype=np.int64).reshape(n_tasks, size)


def total_with_perfect_heuristic(d_hat_on_rh: float, p: HeuristicPartition) -> float:
    """Total errors when the heuristic is trusted outside the band.

    The estimate over the ambiguous band plus everything auto-dirty.
    """
    return float(d_hat_on_rh) + len(p.auto_dirty)
