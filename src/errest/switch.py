"""Consensus-switch counting and the switch-based total-error estimate.

Instead of counting discovered errors, this module counts changes of
the running majority consensus. Each item starts with a clean label;
the label flips when the item's first vote is dirty, and again at every
vote that ties the item's dirty/clean counts (the tie anticipates the
majority crossing). Between flips the label holds, so flips are exactly
the switch events, they strictly alternate per item, and the first one
is always positive (clean to dirty).

Every switch event is a species. A later vote on the same item that
does not flip the label rediscovers the item's latest switch and raises
that event's multiplicity. Votes on an item before its first switch are
no-ops and are excluded from the effective sample size. The resulting
fingerprint feeds the same coverage-based estimate as the discovery
path, and the gap between the estimate and the observed event count is
the number of consensus flips still expected.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import FStatistics, VoteLog
from .estimators import EstimatorOutput, InsufficientDataError, chao92

__all__ = [
    "Direction",
    "Trend",
    "SwitchEvent",
    "SwitchStats",
    "SwitchReplay",
    "replay_switches",
    "switch_fstats",
    "d_switch",
    "switch_total_errors",
]


class Direction(Enum):
    """Sense of a consensus flip: positive is clean-to-dirty."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class Trend(Enum):
    """Recent movement of the strict-majority count."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    FLAT = "flat"


@dataclass(frozen=True)
class SwitchEvent:
    """One consensus flip and the votes that re-confirmed it.

    multiplicity counts the flipping vote itself plus every later vote
    on the item before its next flip (or the end of the log).
    """

    item_id: int
    direction: Direction
    multiplicity: int


@dataclass(frozen=True)
class SwitchStats:
    """All switch events of a log prefix plus the adjusted sample size.

    f_pos and f_neg are the one-sided fingerprints: they map a
    multiplicity j to the number of positive (negative) events seen
    exactly j times.
    """

    events: tuple[SwitchEvent, ...]
    c_switch: int
    f_pos: dict[int, int]
    f_neg: dict[int, int]
    n_switch: int

    @property
    def f_prime(self) -> dict[int, int]:
        """Fingerprint of all events: the sum of the one-sided ones."""
        freq = dict(self.f_pos)
        for j, fj in self.f_neg.items():
            freq[j] = freq.get(j, 0) + fj
        return freq


def _bump(freq: dict[int, int], old: int) -> None:
    """Move one class of a fingerprint from multiplicity old to old + 1.

    old = 0 adds a new class; entries that reach zero are dropped.
    """
    if old:
        if freq[old] == 1:
            del freq[old]
        else:
            freq[old] -= 1
    freq[old + 1] = freq.get(old + 1, 0) + 1


class SwitchReplay:
    """Incremental single-pass switch detector over an arriving vote stream.

    Each vote updates the per-item counts pos/neg, at most one event and
    the one-sided fingerprints in O(1), so a snapshot only copies state.
    An item's consensus label is the direction of its latest event.
    """

    def __init__(self, item_count: int):
        self.item_count = item_count
        self.pos = np.zeros(item_count, dtype=np.int64)
        self.neg = np.zeros(item_count, dtype=np.int64)
        self._latest: dict[int, int] = {}  # item -> index of its latest event
        self._events: list[SwitchEvent] = []
        self._f: dict[Direction, dict[int, int]] = {d: {} for d in Direction}
        self._n_switch = 0

    def apply(self, item_id: int, dirty: bool) -> bool:
        """Fold in one vote; returns True when it flips the consensus."""
        (self.pos if dirty else self.neg)[item_id] += 1
        pos, neg = self.pos.item(item_id), self.neg.item(item_id)
        latest = self._latest.get(item_id)
        flips = pos == neg or (pos + neg == 1 and dirty)
        if flips:
            # Before its first flip an item is clean, as after a negative one.
            clean = latest is None or self._events[latest].direction is Direction.NEGATIVE
            direction = Direction.POSITIVE if clean else Direction.NEGATIVE
            self._latest[item_id] = len(self._events)
            self._events.append(SwitchEvent(item_id, direction, 1))
            _bump(self._f[direction], 0)
        elif latest is not None:
            e = self._events[latest]
            self._events[latest] = SwitchEvent(item_id, e.direction, e.multiplicity + 1)
            _bump(self._f[e.direction], e.multiplicity)
        else:
            return False  # a no-op: the item has not switched yet
        self._n_switch += 1
        return flips

    def snapshot(self) -> SwitchStats:
        return SwitchStats(
            events=tuple(self._events),
            c_switch=len(self._events),
            f_pos=dict(self._f[Direction.POSITIVE]),
            f_neg=dict(self._f[Direction.NEGATIVE]),
            n_switch=self._n_switch,
        )

    @property
    def consensus_dirty(self) -> np.ndarray:
        """Per-item consensus labels, True where the latest event is positive."""
        dirty = np.zeros(self.item_count, dtype=bool)
        for item_id, k in self._latest.items():
            dirty[item_id] = self._events[k].direction is Direction.POSITIVE
        return dirty


def replay_switches(log: VoteLog, upto_seq: int | None = None) -> SwitchStats:
    """Detect all switch events in the prefix votes[0:upto_seq)."""
    replay = SwitchReplay(log.item_count)
    votes = zip(log.item_ids[:upto_seq].tolist(), log.dirty[:upto_seq].tolist())
    for item_id, dirty in votes:
        replay.apply(item_id, dirty)
    return replay.snapshot()


def switch_fstats(stats: SwitchStats, direction: Direction | None = None) -> FStatistics:
    """Fingerprint of switch-event multiplicities, optionally one-sided.

    The sample size stays the global adjusted vote count regardless of
    the direction filter: confirming votes back the current consensus
    whichever way it last flipped.
    """
    if direction is None:
        freq = stats.f_prime
    else:
        freq = stats.f_pos if direction is Direction.POSITIVE else stats.f_neg
    return FStatistics(freq=freq, n=stats.n_switch)


def d_switch(f: FStatistics, universe: int | None = None) -> EstimatorOutput:
    """Total-switch estimate: the coverage form applied to switch statistics."""
    if f.n == 0 and f.c > 0:
        raise InsufficientDataError("switch fingerprint has events but no sample")
    return chao92(f, universe=universe)


def switch_total_errors(
    m: int, xi_pos: float, xi_neg: float, trend: Trend, universe: int
) -> float:
    """Adjust the strict-majority count m by the expected remaining flips.

    xi_pos and xi_neg are the one-sided remaining_hat figures of d_switch. A
    rising majority count means undiscovered errors dominate, so only
    xi_pos is added; a falling one subtracts xi_neg; a flat majority
    applies both. The result is clamped to [0, universe].
    """
    if trend is Trend.INCREASING:
        value = m + xi_pos
    elif trend is Trend.DECREASING:
        value = m - xi_neg
    else:
        value = m + xi_pos - xi_neg
    return min(max(value, 0.0), float(universe))
