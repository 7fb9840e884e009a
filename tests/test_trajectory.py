from hypothesis import given, settings
import pytest

from errest.core import error_fstats, tally
from errest.estimators import InsufficientDataError, chao92, majority, nominal, vchao92
from errest.sim import GroundTruth
from errest.switch import (
    Direction,
    d_switch,
    replay_switches,
    switch_fstats,
    switch_total_errors,
)
from errest.trajectory import (
    DEFAULT_SHIFT,
    DEFAULT_TREND_WINDOW,
    evaluate_trajectory,
    trend_from_history,
)

from helpers import D, dirty_mask, make_log, vote_logs


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
        history = []
        for row, (_, _, end) in zip(rows, log.tasks):
            t = tally(log, end)
            f = error_fstats(log, end)
            stats = replay_switches(log, end)
            m = majority(t)
            history.append(m)
            assert row.nominal == nominal(t)
            assert row.majority == m
            chao = chao92(f, universe=n)
            assert row.chao92_total == chao.total_errors_hat
            try:
                vest = vchao92(f, m, shift=DEFAULT_SHIFT, universe=n)
                vchao_total, vchao_flags = vest.total_errors_hat, vest.flags
            except InsufficientDataError:
                vchao_total, vchao_flags = None, ("insufficient-data",)
            assert row.vchao92_total == vchao_total
            xi_pos = d_switch(switch_fstats(stats, Direction.POSITIVE), n)
            xi_neg = d_switch(switch_fstats(stats, Direction.NEGATIVE), n)
            assert row.xi_pos == xi_pos.remaining_hat
            assert row.xi_neg == xi_neg.remaining_hat
            trend = trend_from_history(history, DEFAULT_TREND_WINDOW)
            assert row.switch_total == switch_total_errors(
                m, xi_pos.remaining_hat, xi_neg.remaining_hat, trend, n
            )
            flags = [f"chao92_total:{marker}" for marker in chao.flags]
            flags += [f"vchao92_total:{marker}" for marker in vchao_flags]
            flags += [f"xi_pos:{marker}" for marker in xi_pos.flags]
            flags += [f"xi_neg:{marker}" for marker in xi_neg.flags]
            assert row.flags == tuple(flags)
            consensus = t.pos > t.neg
            dirty = dirty_mask(truth)
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
