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

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .core import FStatistics, MalformedInputError, VoteLog
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


class SwitchEvent(NamedTuple):
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
    """Single-pass switch detector over a log's votes in arrival order.

    The constructor finds once per vote whether it flips its item's
    consensus or confirms an earlier flip (else it is a no-op). advance
    folds in a block of votes: pos/neg in O(block), the events and one-sided
    fingerprints at its flips and confirmations, so a snapshot only copies
    state. An item's consensus label is the direction of its latest event.
    """

    def __init__(self, log: VoteLog):
        self.pos, self.neg = np.zeros((2, log.item_count), dtype=np.int64)
        self._latest: dict[int, int] = {}  # item -> index of its latest event
        self._events: list[SwitchEvent] = []
        self._f: dict[Direction, dict[int, int]] = {d: {} for d in Direction}
        self._n_switch = self._done = 0
        self._items, self._dirty = log.item_ids, log.dirty.astype(np.int64)
        # Running sums per item: cumsums over votes grouped by a stable sort.
        order = np.argsort(log.item_ids, kind="stable")
        starts = np.flatnonzero(np.diff(log.item_ids[order], prepend=-1))
        sizes = np.diff(starts, append=len(order))

        def running(x):
            total = np.cumsum(x)
            return total - np.repeat(total[starts] - x[starts], sizes)

        dirty = self._dirty[order]
        pos, neg = running(dirty), running(1 - dirty)
        flip = ((pos == neg) | ((pos + neg == 1) & (dirty == 1))).astype(np.int64)
        active = (flip == 1) | (running(flip) > flip)  # a flip, or a vote after one
        back = np.argsort(order)  # each vote's position in the grouped order
        at = np.flatnonzero(active[back])  # the active votes' positions
        self._at = at.tolist()
        self._active = list(zip(self._items[at].tolist(), (flip[back][at] == 1).tolist()))

    def advance(self, end: int) -> None:
        """Fold in the votes [done, end), done being the previous end (0 at first)."""
        if not 0 <= end <= len(self._items):
            raise MalformedInputError(f"prefix end {end} outside [0, {len(self._items)}]")
        if end < self._done:
            raise ValueError(f"prefix end {end} is before the {self._done} votes replayed")
        block = slice(self._done, end)
        np.add.at(self.pos, self._items[block], self._dirty[block])
        np.add.at(self.neg, self._items[block], 1 - self._dirty[block])
        first, last = bisect_left(self._at, self._done), bisect_left(self._at, end)
        for item_id, flips in self._active[first:last]:
            latest = self._latest.get(item_id)
            if flips:
                # Before its first flip an item is clean, as after a negative one.
                clean = latest is None or self._events[latest].direction is Direction.NEGATIVE
                direction = Direction.POSITIVE if clean else Direction.NEGATIVE
                self._latest[item_id] = len(self._events)
                self._events.append(SwitchEvent(item_id, direction, 1))
                _bump(self._f[direction], 0)
            else:  # a confirmation of the item's latest flip
                e = self._events[latest]
                self._events[latest] = SwitchEvent(item_id, e.direction, e.multiplicity + 1)
                _bump(self._f[e.direction], e.multiplicity)
        self._n_switch += last - first
        self._done = end

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
        dirty = np.zeros(len(self.pos), dtype=bool)
        for item_id, k in self._latest.items():
            dirty[item_id] = self._events[k].direction is Direction.POSITIVE
        return dirty


def replay_switches(log: VoteLog, upto_seq: int | None = None) -> SwitchStats:
    """Detect all switch events in the prefix votes[0:upto_seq)."""
    replay = SwitchReplay(log)
    replay.advance(len(log) if upto_seq is None else upto_seq)
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
