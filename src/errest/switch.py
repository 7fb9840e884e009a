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

from array import array
from bisect import bisect_left
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import FStatistics, MalformedInputError, VoteLog, _stable_order
from .estimators import EstimatorOutput, InsufficientDataError, Moments, chao92

__all__ = [
    "Direction",
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


class SwitchEvent(NamedTuple):
    """One consensus flip and the votes that re-confirmed it.

    multiplicity counts the flipping vote itself plus every later vote
    on the item before its next flip (or the end of the log).
    """

    item_id: int
    direction: Direction
    multiplicity: int


class SwitchStats(NamedTuple):
    """All switch events of a log prefix plus the adjusted sample size.

    f_pos and f_neg are the one-sided fingerprints: they map a
    multiplicity j to the number of positive (negative) events seen
    exactly j times.
    """

    events: tuple[SwitchEvent, ...]
    f_pos: dict[int, int]
    f_neg: dict[int, int]
    n_switch: int

    @property
    def c_switch(self) -> int:
        """Number of switch events."""
        return len(self.events)

    @property
    def f_prime(self) -> dict[int, int]:
        """Fingerprint of all events: the sum of the one-sided ones."""
        freq = dict(self.f_pos)
        for j, fj in self.f_neg.items():
            freq[j] = freq.get(j, 0) + fj
        return freq


_DIRECTIONS = (Direction.NEGATIVE, Direction.POSITIVE)  # by parity: the item's flips mod 2


class SwitchReplay:
    """Single-pass switch detector over a log's votes in arrival order.

    The constructor decides every vote's role at once, in arrays: its item's
    running dirty/clean counts after it (vote_pos, vote_neg, in arrival
    order) and, held flat per active vote (a flip, or a later vote on its
    item), the ordinal of the event it flips or confirms (events are
    numbered as their flips arrive), that event's parity (the item's flip
    count mod 2, which is 1 for a positive event), its multiplicity before
    the vote and the SwitchEvent after it. Per vote, advance appends a flip's
    event to a list held in flip order or writes a confirmed event into its
    slot, and moves one class of a one-sided fingerprint, so a snapshot only
    copies state.
    """

    def __init__(self, log: VoteLog):
        self._events: list[SwitchEvent] = []
        # (negative, positive) fingerprints, indexed by parity, without zero counts.
        self._f: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self._folded = self._done = 0  # the active votes folded in, and the votes replayed
        self._size = len(log)
        # Running sums per item: cumsums over the votes grouped by item in arrival order.
        order, back = _stable_order(log.item_ids)  # back: each vote's grouped position
        here = np.arange(len(order))
        first = np.maximum.accumulate(np.where(np.diff(log.item_ids[order], prepend=-1), here, 0))

        def running(x):  # less the total before the item's first vote
            total = np.cumsum(x)
            return total - (total - x)[first]

        dirty = log.dirty[order].astype(np.int64)
        pos = running(dirty)
        neg = here - first + 1 - pos  # the vote's rank within its item, less pos
        flip = (pos == neg) | ((here == first) & (dirty == 1))
        flips = running(flip.astype(np.int64))  # the item's flips so far, this vote's included
        self.vote_pos, self.vote_neg = pos[back], neg[back]
        del first, dirty, pos, neg  # freed as soon as they are read, to lower the peak memory
        # Forward fill within an item: the grouped position of its latest flip.
        latest = np.maximum.accumulate(np.where(flip, here, 0))
        at = np.flatnonzero(flips[back])  # the active votes: a flip, or a vote after one
        grouped = back[at]
        self._parity = (flips[grouped] % 2).astype(np.uint8).tobytes()
        old = (here - latest)[grouped]  # the event's multiplicity before the vote
        self._old = old.tolist()
        # Positions pass 256, so they are held unboxed, not as one int object per vote.
        # An event's ordinal counts the flips that arrived before its own.
        self._at, self._ordinals = (array("q", x.astype(np.int64).tobytes()) for x in (
            at, np.cumsum(flip[back])[order[latest[grouped]]] - 1))
        # Freed before the per-vote objects are made, which lowers the peak memory.
        del order, back, here, flip, flips, latest, grouped
        self._built = list(map(tuple.__new__, repeat(SwitchEvent), zip(
            log.item_ids[at].tolist(), map(_DIRECTIONS.__getitem__, self._parity),
            (old + 1).tolist())))

    def advance(self, end: int) -> None:
        """Fold in the votes [done, end), done being the previous end (0 at first)."""
        if not 0 <= end <= self._size:
            raise MalformedInputError(f"prefix end {end} outside [0, {self._size}]")
        if end < self._done:
            raise ValueError(f"prefix end {end} is before the {self._done} votes replayed")
        block = slice(self._folded, bisect_left(self._at, end))
        events = self._events
        for parity, old, k, event in zip(self._parity[block], self._old[block],
                                         self._ordinals[block], self._built[block]):
            freq = self._f[parity]
            if old:
                events[k] = event
                if count := freq.pop(old) - 1:
                    freq[old] = count
            else:  # a flip, whose ordinal is the count of events so far
                events.append(event)
            freq[old + 1] = freq.get(old + 1, 0) + 1
        self._folded, self._done = block.stop, end

    def snapshot(self) -> SwitchStats:
        f_neg, f_pos = map(dict, self._f)
        return SwitchStats(tuple(self._events), f_pos, f_neg, self._folded)

    def prefix_moments(self, ends) -> tuple[Moments, Moments]:
        """Advance to each prefix end in turn: the snapshots' positive and negative switch
        moments, with n the adjusted vote count as in switch_fstats."""
        rows = []
        for end in ends:
            self.advance(end)
            stats = self.snapshot()
            for freq in (stats.f_pos, stats.f_neg):
                ssum = 0  # a plain loop: cheaper than a generator or map over these dicts
                for j, fj in freq.items():
                    ssum += j * (j - 1) * fj
                rows.append((sum(freq.values()), freq.get(1, 0), stats.n_switch, ssum))
        columns = np.array(rows, dtype=np.int64).reshape(-1, 2, 4).T
        return Moments(*columns[:, 0]), Moments(*columns[:, 1])


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


def d_switch(f: FStatistics | Moments, universe: int | None = None) -> EstimatorOutput:
    """Total-switch estimate: the coverage form applied to switch statistics, like chao92."""
    if np.any((f.n == 0) & (f.c > 0)):
        raise InsufficientDataError("switch fingerprint has events but no sample")
    return chao92(f, universe=universe)


def switch_total_errors(m, xi_pos, xi_neg, trend, universe: int):
    """Adjust the strict-majority count m by the expected remaining flips.

    xi_pos and xi_neg are the one-sided remaining_hat figures of d_switch, and
    trend is the sign (1, -1 or 0) of the majority count's recent change. A
    rising count means undiscovered errors dominate, so only xi_pos is added;
    a falling one subtracts xi_neg; a flat one applies both. The result is
    clamped to [0, universe], and a column of signs gives a column.
    """
    sign = np.asarray(trend)
    value = np.where(sign > 0, m + xi_pos, np.where(sign < 0, m - xi_neg, m + xi_pos - xi_neg))
    total = np.minimum(np.maximum(value, 0.0), float(universe))
    return total if total.ndim else float(total)
