from dataclasses import fields, replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from errest.sim import GroundTruth
from errest.trajectory import DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, Trajectory
from errest.trajectory import evaluate_trajectory

from helpers import D, make_log, trajectory_oracle, vote_logs


class TestArguments:
    @pytest.mark.parametrize("kwargs", [{"trend_window": -3}, {"shift": -1}])
    def test_negative_argument_rejected(self, kwargs):
        log = make_log([[(0, D)], [(1, D)]], item_count=2)
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            evaluate_trajectory(log, **kwargs)


class TestIncrementalReplay:
    @pytest.mark.parametrize("truth", [None, GroundTruth(np.array([1]), 3)])
    def test_empty_log_gives_empty_columns(self, truth):
        log = make_log([], item_count=3)
        traj = evaluate_trajectory(log, shift=5, trend_window=4, truth=truth)
        assert len(traj) == 0
        assert traj == trajectory_oracle(log, 5, 4, truth)

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_rows_equal_from_scratch_prefixes(self, log):
        n = log.item_count
        truth = GroundTruth(np.arange(0, n, 2, dtype=np.int64), n)
        traj = evaluate_trajectory(log, truth=truth)
        assert len(traj) == log.task_count
        assert traj == trajectory_oracle(log, DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, truth)

    @settings(max_examples=200, deadline=None)
    @given(
        vote_logs(),
        st.sampled_from([0, 1, 2, 3]),
        st.sampled_from([0, 1, 3, 10]),
        st.booleans(),
        st.data(),
    )
    def test_rows_equal_oracle_for_any_shift_and_window(self, log, shift, window, with_truth,
                                                         data):
        truth = None
        if with_truth:
            dirty = data.draw(st.frozensets(st.integers(0, log.item_count - 1)))
            truth = GroundTruth(np.array(sorted(dirty), np.int64), log.item_count)
        traj = evaluate_trajectory(log, shift=shift, trend_window=window, truth=truth)
        assert traj == trajectory_oracle(log, shift, window, truth)

    @settings(max_examples=100, deadline=None)
    @given(vote_logs(near_int64_edge=True), st.sampled_from([0, 1, 2]), st.data())
    def test_rows_equal_oracle_near_int64_edge(self, log, shift, data):
        # the item grouping packs ids into sort keys, which near 2**63 must not overflow
        near_top = st.integers(log.item_count - 10, log.item_count - 1)  # holds every logged id
        dirty = sorted(data.draw(st.frozensets(near_top)))
        truth = GroundTruth(np.array(dirty, np.int64), log.item_count)
        traj = evaluate_trajectory(log, shift=shift, truth=truth)
        assert traj == trajectory_oracle(log, shift, DEFAULT_TREND_WINDOW, truth)

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_row_invariants(self, log):
        n = log.item_count
        traj = evaluate_trajectory(log)
        for chao, nominal, coverage, switch, xi_pos, xi_neg in zip(
                traj.chao92_total, traj.nominal, traj.coverage_hat, traj.switch_total,
                traj.xi_pos, traj.xi_neg):
            assert chao >= nominal
            assert 0.0 <= coverage <= 1.0
            assert 0.0 <= switch <= n
            assert xi_pos >= 0.0 and xi_neg >= 0.0


TRUTH_COLUMNS = ("truth", "truth_xi_pos", "truth_xi_neg")
DTYPES = {"task_index": np.int64, "nominal": np.int64, "majority": np.int64,
          "flags": object, **dict.fromkeys(TRUTH_COLUMNS, np.int64)}  # the rest are float64


class TestTypedColumns:
    @settings(max_examples=100, deadline=None)
    @given(vote_logs(), st.booleans())
    def test_columns_typed_with_nan_gaps(self, log, with_truth):
        truth = GroundTruth(np.arange(0, log.item_count, 3, dtype=np.int64), log.item_count)
        truth = truth if with_truth else None
        traj = evaluate_trajectory(log, truth=truth)
        for field in fields(Trajectory):
            column = getattr(traj, field.name)
            if truth is None and field.name in TRUTH_COLUMNS:
                assert column is None
                continue
            assert type(column) is np.ndarray and column.shape == (log.task_count,)
            assert column.dtype == DTYPES.get(field.name, np.float64), field.name
        assert all(type(cell) is str for cell in traj.flags)  # no None, no tuple
        oracle = trajectory_oracle(log, DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, truth)
        insufficient = ["vchao92_total:insufficient-data" in cell.split(";")
                        for cell in oracle.flags]
        assert np.isnan(traj.vchao92_total).tolist() == insufficient

    @settings(max_examples=100, deadline=None)
    @given(vote_logs(), st.booleans())
    def test_eq_exact_on_dtype_and_nan(self, log, with_truth):
        truth = GroundTruth(np.array([0]), log.item_count) if with_truth else None
        traj = evaluate_trajectory(log, truth=truth)
        copies = {name: column.copy() for name, column in vars(traj).items()
                  if column is not None}
        assert traj == replace(traj, **copies)
        # the same values under another dtype
        assert traj != replace(traj, nominal=traj.nominal.astype(np.float64))
        assert traj != replace(traj, task_index=traj.task_index.astype(np.int32))
        assert traj != replace(traj, flags=traj.flags.astype(str))
        if truth is None:
            assert traj != replace(traj, truth=np.zeros(len(traj), np.int64))
        if len(traj):
            gap = traj.switch_total.copy()
            gap[-1] = np.nan
            assert traj != replace(traj, switch_total=gap)  # NaN against a value
            assert replace(traj, switch_total=gap) != traj
            assert replace(traj, switch_total=gap) == replace(traj, switch_total=gap.copy())
