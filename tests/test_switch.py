from collections import Counter

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from errest.core import FStatistics, MalformedInputError, TallyState, tally
from errest.estimators import InsufficientDataError, LOW_COVERAGE, majority
from errest.switch import (
    Direction,
    SwitchEvent,
    SwitchReplay,
    SwitchStats,
    Trend,
    d_switch,
    replay_switches,
    switch_fstats,
    switch_total_errors,
)

from helpers import (
    C,
    D,
    append_task,
    confirming_round,
    consensus_oracle,
    eq7_switch_count,
    make_log,
    random_log,
    single_item_log,
    vote_logs,
)


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
        assert stats.c_switch == 2
        replay = SwitchReplay(log)
        replay.advance(len(log))
        assert not replay.consensus_dirty[0]

    def test_prefix_argument(self):
        log = single_item_log([D, C, D, C])
        assert replay_switches(log, 1).c_switch == 1
        assert replay_switches(log, 2).c_switch == 2
        assert replay_switches(log, 4).c_switch == 3

    def test_prefix_end_outside_log_rejected(self):
        # the bound core.tally checks, with its message
        log = single_item_log([D, C, D])
        for end in (-1, 4, 10):
            with pytest.raises(MalformedInputError, match=rf"prefix end {end} outside \[0, 3\]"):
                replay_switches(log, end)
            with pytest.raises(MalformedInputError, match=rf"prefix end {end} outside \[0, 3\]"):
                SwitchReplay(log).advance(end)

    def test_advance_backwards_rejected(self):
        replay = SwitchReplay(single_item_log([D, C, D]))
        replay.advance(2)
        replay.advance(2)  # an empty block
        with pytest.raises(ValueError, match="prefix end 1 is before"):
            replay.advance(1)
        assert replay.snapshot().c_switch == 2


class TestSwitchCount:
    def test_empty(self):
        assert replay_switches(make_log([], item_count=2)).c_switch == 0

    def test_two_items_first_votes_dirty(self):
        log = make_log([[(0, D)], [(1, D)]], item_count=2)
        assert replay_switches(log).c_switch == 2

    def test_random_log_equals_direct_double_sum(self):
        rng = np.random.default_rng(17)
        log = make_log(
            [[(int(rng.integers(5)), D if rng.random() < 0.5 else C)] for _ in range(40)],
            item_count=5,
        )
        assert replay_switches(log).c_switch == eq7_switch_count(log)

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_equals_direct_double_sum_at_every_prefix(self, log):
        for upto in range(len(log) + 1):
            assert replay_switches(log, upto).c_switch == eq7_switch_count(log, upto)


class TestOracleEquivalence:
    def test_replay_matches_independent_simulator(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            log = random_log(rng)
            stats = replay_switches(log)
            events, labels, n_switch = consensus_oracle(log)
            assert stats.c_switch == eq7_switch_count(log)
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
        replay = SwitchReplay(log)
        for upto in range(len(log) + 1):
            replay.advance(upto)
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

    @settings(max_examples=200, deadline=None)
    @given(vote_logs(), st.data())
    def test_blocks_of_any_size_equal_oracle(self, log, data):
        # a block may span tasks, and may hold several votes on one item
        ends = data.draw(st.lists(st.integers(0, len(log)), max_size=5).map(sorted))
        replay = SwitchReplay(log)
        for end in ends + [len(log)]:
            replay.advance(end)
            events, labels, n_switch = consensus_oracle(log, end)
            stats = replay.snapshot()
            assert [(e.item_id, e.direction is Direction.POSITIVE, e.multiplicity)
                    for e in stats.events] == events
            assert stats.n_switch == n_switch
            expected = [labels.get(item, False) for item in range(log.item_count)]
            assert replay.consensus_dirty.tolist() == expected
            assert replay.pos.tolist() == tally(log, end).pos.tolist()
            assert replay.neg.tolist() == tally(log, end).neg.tolist()


class TestConsensusLabels:
    @settings(max_examples=200, deadline=None)
    @given(vote_logs())
    def test_labels_and_flips_equal_oracle_at_every_prefix(self, log):
        replay = SwitchReplay(log)
        assert not replay.consensus_dirty.any()
        n_events = 0
        for upto in range(1, len(log) + 1):
            replay.advance(upto)
            flipped = replay.snapshot().c_switch > n_events  # a flip is a new event
            events, labels, _ = consensus_oracle(log, upto)
            assert flipped == (len(events) > n_events)
            n_events = len(events)
            expected = [labels.get(item, False) for item in range(log.item_count)]
            assert replay.consensus_dirty.tolist() == expected


class TestDSwitch:
    def test_hand_arithmetic(self):
        f = FStatistics(freq={1: 1, 3: 1}, n=4)
        out = d_switch(f)
        assert out.coverage_hat == pytest.approx(3 / 4)
        assert out.cv2_hat == pytest.approx(1 / 3, rel=1e-9)
        assert out.total_errors_hat == pytest.approx(28 / 9, rel=1e-9)

    def test_no_singletons_returns_observed(self):
        f = FStatistics(freq={2: 3}, n=6)
        assert d_switch(f).total_errors_hat == pytest.approx(3.0)

    def test_empty_stats(self):
        assert d_switch(FStatistics(freq={}, n=0)).total_errors_hat == 0.0

    def test_events_without_sample_raise(self):
        with pytest.raises(InsufficientDataError):
            d_switch(FStatistics(freq={1: 1}, n=0))

    def test_zero_coverage_cap(self):
        out = d_switch(FStatistics(freq={1: 2}, n=2), universe=9)
        assert out.total_errors_hat == 9.0 and LOW_COVERAGE in out.flags


class TestRemainingSwitches:
    def test_no_singletons_means_none_remaining(self):
        stats = replay_switches(make_log([[(0, D)], [(0, D)]], item_count=1))
        assert d_switch(switch_fstats(stats)).remaining_hat == 0.0

    def test_hand_arithmetic(self):
        log = make_log([[(0, D)], [(0, D)], [(0, D)], [(1, D)]], item_count=2)
        stats = replay_switches(log)
        out = d_switch(switch_fstats(stats))
        assert out.remaining_hat == pytest.approx(28 / 9 - 2, rel=1e-9)

    def test_no_events(self):
        stats = replay_switches(make_log([[(0, C)]], item_count=1))
        assert d_switch(switch_fstats(stats)).remaining_hat == 0.0

    def test_clamped_at_zero(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            stats = replay_switches(random_log(rng))
            assert d_switch(switch_fstats(stats), 100).remaining_hat >= 0.0
            assert d_switch(switch_fstats(stats, Direction.POSITIVE), 100).remaining_hat >= 0.0

    def test_carries_d_switch_flags(self):
        # two singleton flips: zero coverage, so the figure is the capped remainder
        stats = replay_switches(make_log([[(0, D)], [(1, D)]], item_count=2))
        out = d_switch(switch_fstats(stats), 9)
        assert out.remaining_hat == 7.0 and out.flags == (LOW_COVERAGE,)


def synthetic_stats(mults_pos=(), mults_neg=(), n_switch=0):
    events = []
    for m in mults_pos:
        events.append(SwitchEvent(len(events), Direction.POSITIVE, m))
    for m in mults_neg:
        events.append(SwitchEvent(len(events), Direction.NEGATIVE, m))
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
        n = len(t.pos)
        xi_pos = d_switch(switch_fstats(stats, Direction.POSITIVE), n).remaining_hat
        xi_neg = d_switch(switch_fstats(stats, Direction.NEGATIVE), n).remaining_hat
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

    def append_confirming_round(self, log, replay):
        """The log with one confirming vote per item, replayed to its end."""
        extended = append_task(log, confirming_round(replay))
        c_switch = replay.snapshot().c_switch
        replay = SwitchReplay(extended)
        replay.advance(len(extended))
        assert replay.snapshot().c_switch == c_switch  # no confirming vote flips
        return extended, replay

    def test_latest_events_stop_being_singletons(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            log = random_log(rng)
            replay = SwitchReplay(log)
            replay.advance(len(log))
            log, replay = self.append_confirming_round(log, replay)
            latest = {}
            for e in replay.snapshot().events:
                latest[e.item_id] = e
            assert all(e.multiplicity >= 2 for e in latest.values())

    def test_coverage_only_estimate_decreases_to_event_count(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            log = random_log(rng)
            replay = SwitchReplay(log)
            replay.advance(len(log))
            prev = None
            for _ in range(10):
                log, replay = self.append_confirming_round(log, replay)
                f = switch_fstats(replay.snapshot())
                if f.c == 0:
                    break
                d_cov = f.c / (1 - f.f1 / f.n)
                if prev is not None:
                    assert d_cov <= prev + 1e-9
                prev = d_cov
            if prev is not None:
                assert prev == pytest.approx(f.c, rel=0.25)
