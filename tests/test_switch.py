from collections import Counter

from hypothesis import given, settings
import numpy as np
import pytest

from errest.core import FStatistics, TallyState
from errest.estimators import InsufficientDataError, LOW_COVERAGE, majority
from errest.switch import (
    Direction,
    SwitchEvent,
    SwitchReplay,
    SwitchStats,
    Trend,
    d_switch,
    remaining_switches,
    replay_switches,
    switch_count,
    switch_fstats,
    switch_total_errors,
)

from helpers import (
    C,
    D,
    consensus_oracle,
    eq7_switch_count,
    log_votes,
    make_log,
    random_log,
    single_item_log,
    vote_logs,
)


def confirming_label(replay, item):
    pos, neg = replay.pos[item], replay.neg[item]
    if pos > neg or (pos == neg and replay.consensus_dirty[item]):
        return D
    return C


class TestReplayExamples:
    def test_first_dirty_vote_switches(self):
        stats = replay_switches(single_item_log([D]))
        assert [(e.direction, e.multiplicity) for e in stats.events] == [
            (Direction.POSITIVE, 1)
        ]
        assert stats.n_switch == 1

    def test_tie_switches_back(self):
        stats = replay_switches(single_item_log([D, C]))
        assert [(e.direction, e.multiplicity) for e in stats.events] == [
            (Direction.POSITIVE, 1),
            (Direction.NEGATIVE, 1),
        ]

    def test_noop_prefix_then_tie(self):
        stats = replay_switches(single_item_log([C, D, D]))
        assert [(e.direction, e.multiplicity) for e in stats.events] == [
            (Direction.POSITIVE, 2)
        ]
        # one no-op before the first switch, so 2 of 3 votes count
        assert stats.n_switch == 2

    def test_bounce_back_keeps_label_until_next_tie(self):
        # [D, C, D]: label flips at the first vote and at the tie, then
        # holds clean even though the strict majority returns to dirty.
        log = single_item_log([D, C, D])
        stats = replay_switches(log)
        assert switch_count(stats) == 2
        replay = SwitchReplay(1)
        for seq, (item, dirty) in enumerate(log_votes(log)):
            replay.apply(item, dirty, seq)
        assert not replay.consensus_dirty[0]

    def test_prefix_argument(self):
        log = single_item_log([D, C, D, C])
        assert switch_count(replay_switches(log, 1)) == 1
        assert switch_count(replay_switches(log, 2)) == 2
        assert switch_count(replay_switches(log, 4)) == 3


class TestSwitchCount:
    def test_empty(self):
        assert switch_count(replay_switches(make_log([], item_count=2))) == 0

    def test_two_items_first_votes_dirty(self):
        log = make_log([[(0, D)], [(1, D)]], item_count=2)
        assert switch_count(replay_switches(log)) == 2

    def test_random_log_equals_direct_double_sum(self):
        rng = np.random.default_rng(17)
        log = make_log(
            [[(int(rng.integers(5)), D if rng.random() < 0.5 else C)] for _ in range(40)],
            item_count=5,
        )
        assert switch_count(replay_switches(log)) == eq7_switch_count(log)


class TestOracleEquivalence:
    def test_replay_matches_independent_simulator(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            log = random_log(rng)
            stats = replay_switches(log)
            events, labels, n_switch = consensus_oracle(log)
            assert switch_count(stats) == eq7_switch_count(log)
            assert [
                (e.item_id, e.direction is Direction.POSITIVE, e.multiplicity)
                for e in stats.events
            ] == events
            assert stats.n_switch == n_switch

    def test_direction_alternation_per_item(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            log = random_log(rng)
            stats = replay_switches(log)
            per_item = {}
            for e in stats.events:
                if e.item_id in per_item:
                    assert e.direction is not per_item[e.item_id]
                else:
                    assert e.direction is Direction.POSITIVE
                per_item[e.item_id] = e.direction


class TestSwitchFStats:
    def test_multiplicity_fingerprint(self):
        log = make_log([[(0, D)], [(0, D)], [(0, D)], [(1, D)]], item_count=2)
        stats = replay_switches(log)
        f = switch_fstats(stats)
        assert f.freq == {1: 1, 3: 1} and f.c == 2 and f.n == 4

    def test_direction_filter_empty(self):
        stats = replay_switches(single_item_log([D, D]))
        f = switch_fstats(stats, Direction.NEGATIVE)
        assert f.c == 0 and f.freq == {}
        assert f.n == stats.n_switch  # n stays global

    def test_direction_partition(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            stats = replay_switches(random_log(rng))
            c_all = switch_fstats(stats).c
            c_pos = switch_fstats(stats, Direction.POSITIVE).c
            c_neg = switch_fstats(stats, Direction.NEGATIVE).c
            assert c_pos + c_neg == c_all

    def test_unfiltered_sample_size_identity(self):
        # every counted vote either creates an event or rediscovers one
        rng = np.random.default_rng(13)
        for _ in range(50):
            stats = replay_switches(random_log(rng))
            f = switch_fstats(stats)
            assert f.n == sum(j * fj for j, fj in f.freq.items())


class TestIncrementalFingerprints:
    """Fingerprints kept vote by vote equal a recount at every prefix."""

    @settings(max_examples=200, deadline=None)
    @given(vote_logs())
    def test_snapshot_equals_recount_at_every_prefix(self, log):
        replay = SwitchReplay(log.item_count)
        votes = log_votes(log)
        for upto in range(len(log) + 1):
            if upto:
                replay.apply(*votes[upto - 1], upto - 1)
            stats = replay.snapshot()
            oracle_events, _, n_switch = consensus_oracle(log, upto)
            for direction, positive in ((Direction.POSITIVE, True), (Direction.NEGATIVE, False)):
                recount = Counter(
                    e.multiplicity for e in stats.events if e.direction is direction
                )
                expected = Counter(m for _, p, m in oracle_events if p is positive)
                assert recount == expected
                assert (stats.f_pos if positive else stats.f_neg) == expected
                f = switch_fstats(stats, direction)
                assert f.freq == expected and f.n == n_switch
            expected = Counter(m for _, _, m in oracle_events)
            assert Counter(e.multiplicity for e in stats.events) == expected
            assert stats.f_prime == expected
            assert switch_fstats(stats).freq == expected
            assert stats.c_switch == len(stats.events) == len(oracle_events)
            assert stats.n_switch == n_switch


class TestDSwitch:
    def test_hand_arithmetic(self):
        f = FStatistics(freq={1: 1, 3: 1}, n=4, c=2)
        out = d_switch(f)
        assert out.coverage_hat == pytest.approx(3 / 4)
        assert out.cv2_hat == pytest.approx(1 / 3, rel=1e-9)
        assert out.total_errors_hat == pytest.approx(28 / 9, rel=1e-9)

    def test_no_singletons_returns_observed(self):
        f = FStatistics(freq={2: 3}, n=6, c=3)
        assert d_switch(f).total_errors_hat == pytest.approx(3.0)

    def test_empty_stats(self):
        assert d_switch(FStatistics(freq={}, n=0, c=0)).total_errors_hat == 0.0

    def test_events_without_sample_raise(self):
        with pytest.raises(InsufficientDataError):
            d_switch(FStatistics(freq={1: 1}, n=0, c=1))

    def test_zero_coverage_cap(self):
        out = d_switch(FStatistics(freq={1: 2}, n=2, c=2), universe=9)
        assert out.total_errors_hat == 9.0 and LOW_COVERAGE in out.flags


class TestRemainingSwitches:
    def test_no_singletons_means_none_remaining(self):
        stats = replay_switches(make_log([[(0, D)], [(0, D)]], item_count=1))
        assert remaining_switches(stats).value == 0.0

    def test_hand_arithmetic(self):
        log = make_log([[(0, D)], [(0, D)], [(0, D)], [(1, D)]], item_count=2)
        stats = replay_switches(log)
        assert remaining_switches(stats).value == pytest.approx(28 / 9 - 2, rel=1e-9)

    def test_no_events(self):
        stats = replay_switches(make_log([[(0, C)]], item_count=1))
        assert remaining_switches(stats).value == 0.0

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            stats = replay_switches(random_log(rng))
            assert remaining_switches(stats, universe=100).value >= 0.0
            assert remaining_switches(stats, Direction.POSITIVE, universe=100).value >= 0.0

    def test_carries_d_switch_flags(self):
        # two singleton flips: zero coverage, so the figure is the capped remainder
        stats = replay_switches(make_log([[(0, D)], [(1, D)]], item_count=2))
        out = remaining_switches(stats, universe=9)
        assert out.value == 7.0 and out.flags == (LOW_COVERAGE,)


def synthetic_stats(mults_pos=(), mults_neg=(), n_switch=0):
    events = []
    seq = 0
    for m in mults_pos:
        events.append(SwitchEvent(len(events), seq, Direction.POSITIVE, m))
        seq += 1
    for m in mults_neg:
        events.append(SwitchEvent(len(events), seq, Direction.NEGATIVE, m))
        seq += 1
    freqs = {Direction.POSITIVE: {}, Direction.NEGATIVE: {}}
    for e in events:
        freq = freqs[e.direction]
        freq[e.multiplicity] = freq.get(e.multiplicity, 0) + 1
    return SwitchStats(
        events=tuple(events),
        c_switch=len(events),
        f_pos=freqs[Direction.POSITIVE],
        f_neg=freqs[Direction.NEGATIVE],
        n_switch=n_switch,
    )


class TestSwitchTotalErrors:
    def total(self, pos, neg, stats, trend):
        """switch_total_errors fed the way evaluate_trajectory feeds it."""
        t = TallyState(np.array(pos, dtype=np.int64), np.array(neg, dtype=np.int64))
        n = t.item_count
        xi_pos = remaining_switches(stats, Direction.POSITIVE, n).value
        xi_neg = remaining_switches(stats, Direction.NEGATIVE, n).value
        return switch_total_errors(majority(t), xi_pos, xi_neg, trend, n)

    def test_no_remaining_switches_any_trend(self):
        # doubleton-only events: both one-sided estimates are exactly c
        stats = synthetic_stats(mults_pos=(2,), mults_neg=(2,), n_switch=4)
        for trend in Trend:
            assert self.total([1, 1, 0, 0], [0, 0, 1, 0], stats, trend) == 2.0

    def test_increasing_adds_positive_estimate(self):
        stats = synthetic_stats(mults_pos=(1, 3), n_switch=4)  # xi+ = 28/9 - 2
        out = self.total([1] * 5 + [0] * 5, [0] * 10, stats, Trend.INCREASING)  # majority 5
        assert out == pytest.approx(5 + 28 / 9 - 2, rel=1e-9)

    def test_decreasing_subtracts_negative_estimate(self):
        stats = synthetic_stats(mults_neg=(1, 3), n_switch=4)
        out = self.total([1] * 10, [0] * 10, stats, Trend.DECREASING)
        assert out == pytest.approx(10 - (28 / 9 - 2), rel=1e-9)

    def test_result_clamped_to_universe(self):
        stats = synthetic_stats(mults_pos=(1, 1, 1), n_switch=3)  # zero coverage
        assert self.total([1, 1], [0, 0], stats, Trend.INCREASING) <= 2.0
        assert switch_total_errors(2, 5.0, 0.0, Trend.INCREASING, 2) == 2.0
        assert switch_total_errors(2, 0.0, 5.0, Trend.DECREASING, 2) == 0.0


class TestConvergenceMechanics:
    """The parts of the confirmation-convergence story that do hold."""

    def append_confirming_round(self, replay, seq):
        for item in range(replay.item_count):
            flipped = replay.apply(item, confirming_label(replay, item), seq)
            assert not flipped
            seq += 1
        return seq

    def test_latest_events_stop_being_singletons(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            log = random_log(rng)
            replay = SwitchReplay(log.item_count)
            for seq, (item, dirty) in enumerate(log_votes(log)):
                replay.apply(item, dirty, seq)
            seq = self.append_confirming_round(replay, len(log))
            latest = {}
            for e in replay.snapshot().events:
                latest[e.item_id] = e
            assert all(e.multiplicity >= 2 for e in latest.values())

    def test_coverage_only_estimate_decreases_to_event_count(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            log = random_log(rng)
            replay = SwitchReplay(log.item_count)
            for seq, (item, dirty) in enumerate(log_votes(log)):
                replay.apply(item, dirty, seq)
            seq = len(log)
            prev = None
            for _ in range(10):
                seq = self.append_confirming_round(replay, seq)
                f = switch_fstats(replay.snapshot())
                if f.c == 0:
                    break
                d_cov = f.c / (1 - f.f1 / f.n)
                if prev is not None:
                    assert d_cov <= prev + 1e-9
                prev = d_cov
            if prev is not None:
                assert prev == pytest.approx(f.c, rel=0.25)
