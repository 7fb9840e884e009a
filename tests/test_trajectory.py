from hypothesis import given, settings
import pytest

from errest.core import error_fstats, tally
from errest.estimators import chao92, majority, nominal
from errest.sim import GroundTruth
from errest.switch import Direction, remaining_switches, replay_switches
from errest.trajectory import evaluate_trajectory

from helpers import D, make_log, vote_logs


class TestArguments:
    @pytest.mark.parametrize("kwargs", [{"trend_window": -3}, {"shift": -1}])
    def test_negative_argument_rejected(self, kwargs):
        log = make_log([[(0, D)], [(1, D)]], item_count=2)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            evaluate_trajectory(log, **kwargs)


class TestIncrementalReplay:
    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_rows_equal_from_scratch_prefixes(self, log):
        n = log.item_count
        truth = GroundTruth(frozenset(range(0, n, 2)), n)
        rows = evaluate_trajectory(log, truth=truth)
        assert len(rows) == log.task_count
        for row, (_, _, end) in zip(rows, log.tasks):
            t = tally(log, end)
            stats = replay_switches(log, end)
            assert row.nominal == nominal(t)
            assert row.majority == majority(t)
            assert row.chao92_total == chao92(error_fstats(log, end), universe=n).total_errors_hat
            assert row.xi_pos == remaining_switches(stats, Direction.POSITIVE, n).value
            assert row.xi_neg == remaining_switches(stats, Direction.NEGATIVE, n).value
            consensus = t.pos > t.neg
            dirty = truth.dirty_mask()
            assert row.truth_xi_pos == int((dirty & ~consensus).sum())
            assert row.truth_xi_neg == int((~dirty & consensus).sum())

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_row_invariants(self, log):
        n = log.item_count
        for row in evaluate_trajectory(log):
            assert row.chao92_total >= row.nominal
            assert 0.0 <= row.coverage_hat <= 1.0
            assert 0.0 <= row.switch_total <= n
            assert row.xi_pos >= 0.0 and row.xi_neg >= 0.0
