import json
import math
import re
from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from errest.core import VoteLog, fstats_from_tally, tally
from errest.estimators import chao92, majority, nominal
from errest.sim import (
    GroundTruth,
    SimScenario,
    load_scenario,
    permute_and_average,
    permute_tasks,
    scm,
    simulate,
    srmse,
)
from errest.trajectory import evaluate_trajectory

from helpers import (
    C,
    D,
    dirty_mask,
    log_votes,
    make_log,
    nan_aggregate_oracle,
    permute_tasks_oracle,
    pooled_vote_logs,
    task_tuples,
    vote_ids,
    vote_logs,
)


def small_scenario(**kw):
    base = dict(
        n_items=50, n_dirty=10, task_size=5, n_tasks=30, fn_rate=0.1, fp_rate=0.02, seed=7
    )
    base.update(kw)
    return SimScenario(**base)


class TestSimulate:
    def test_deterministic_under_seed(self):
        sc = small_scenario()
        log_a, truth_a = simulate(sc)
        log_b, truth_b = simulate(sc)
        assert truth_a.dirty_ids.tolist() == truth_b.dirty_ids.tolist()
        assert log_a.item_ids.tolist() == log_b.item_ids.tolist()
        assert log_a.dirty.tolist() == log_b.dirty.tolist()
        assert vote_ids(log_a) == vote_ids(log_b)

    def test_different_seeds_differ(self):
        log_a, _ = simulate(small_scenario(seed=1))
        log_b, _ = simulate(small_scenario(seed=2))
        assert log_votes(log_a) != log_votes(log_b)

    def test_perfect_workers_vote_the_truth(self):
        sc = small_scenario(fn_rate=0.0, fp_rate=0.0)
        log, truth = simulate(sc)
        dirty = dirty_mask(truth)
        assert (log.dirty == dirty[log.item_ids]).all()
        t = tally(log)
        seen_dirty = {item for item in log.item_ids.tolist() if dirty[item]}
        assert majority(t) == len(seen_dirty) == nominal(t)

    def test_flip_rate_calibration(self):
        # >= 1e5 votes, both rates within 3-sigma binomial bounds
        sc = SimScenario(
            n_items=1000, n_dirty=200, task_size=20, n_tasks=6000,
            fn_rate=0.1, fp_rate=0.01, seed=5,
        )
        log, truth = simulate(sc)
        assert len(log) >= 100_000
        dirty = dirty_mask(truth)
        n_d = flips_d = n_c = flips_c = 0
        for item, vote_dirty in log_votes(log):
            if dirty[item]:
                n_d += 1
                flips_d += not vote_dirty
            else:
                n_c += 1
                flips_c += vote_dirty
        for flips, n, rate in ((flips_d, n_d, 0.1), (flips_c, n_c, 0.01)):
            sigma = np.sqrt(n * rate * (1 - rate))
            assert abs(flips - n * rate) <= 3 * sigma

    def test_task_structure(self):
        sc = small_scenario()
        log, _ = simulate(sc)
        assert log.task_count == sc.n_tasks
        for _, start, end in task_tuples(log):
            items = log.item_ids[start:end].tolist()
            assert len(items) == sc.task_size
            assert len(set(items)) == len(items)

    def test_prioritized_draws_respect_epsilon_zero(self):
        sc = small_scenario(prioritize=True, epsilon=0.0, heuristic_error=0.0)
        log, truth = simulate(sc)
        dirty = dirty_mask(truth)
        # perfect heuristic puts exactly the dirty items in the band
        assert dirty[log.item_ids].all()

    def test_task_size_capped_at_pool(self):
        sc = SimScenario(n_items=3, n_dirty=1, task_size=10, n_tasks=4, seed=0)
        log, _ = simulate(sc)
        for _, start, end in task_tuples(log):
            assert end - start == 3

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SimScenario(n_items=10, n_dirty=2, task_size=2, n_tasks=1, fp_rate=1.5)

    def test_too_many_dirty_rejected(self):
        with pytest.raises(ValueError):
            SimScenario(n_items=10, n_dirty=11, task_size=2, n_tasks=1)

    @pytest.mark.parametrize("n_tasks, permutations", [
        (20, 10**20), (0, 2**60), (2**30, 2**30), (3, 2**59),
    ])
    def test_permutation_runs_at_2_60_rejected(self, n_tasks, permutations):
        # permute_and_average's per_run holds 8 bytes per permutation and task: past 2**60
        # its size would overflow, so the scenario is refused before any permutation runs
        runs = permutations * max(n_tasks, 1)
        message = f"permutations * n_tasks (at least 1) must be below 2**60: {runs}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SimScenario(n_items=10, n_dirty=2, task_size=2, n_tasks=n_tasks,
                        permutations=permutations)

    @pytest.mark.parametrize("n_tasks, permutations", [(0, 2**60 - 1), (2**30, 2**30 - 1)])
    def test_permutation_runs_below_2_60_accepted(self, n_tasks, permutations):
        sc = SimScenario(n_items=10, n_dirty=2, task_size=2, n_tasks=n_tasks,
                         permutations=permutations)
        assert sc.permutations == permutations


class TestGroundTruth:
    @pytest.mark.parametrize("ids", [
        frozenset({0, 1}), [0, 1], (0, 1), np.array([1, 0]), np.array([0, 1, 1]),
        np.array([-1, 2]), np.array([0, 4]), np.array([0, 1], np.int32),
        np.array([0.0, 1.0]), np.array([[0, 1]]),
    ], ids=["frozenset", "list", "tuple", "unsorted", "repeated", "negative", "past-universe",
            "int32", "float", "2-d"])
    def test_rejects_all_but_increasing_int64_array(self, ids):
        # an old-style set would match nothing in np.isin; it fails loudly instead
        with pytest.raises(ValueError, match="strictly increasing int64 array"):
            GroundTruth(ids, n_items=4)

    @pytest.mark.parametrize("ids", [[], [3], [0, 1, 3]])
    def test_accepts_increasing_int64_array(self, ids):
        truth = GroundTruth(np.array(ids, np.int64), n_items=4)
        assert truth.dirty_ids.tolist() == ids

    @pytest.mark.parametrize("kw", [dict(), dict(n_dirty=0), dict(n_dirty=50, seed=3),
                                    dict(prioritize=True, seed=11)])
    def test_simulated_truth_is_sorted_draw(self, kw):
        # the sorted rng.choice draw: strictly increasing int64, and the seed stream unchanged
        sc = small_scenario(**kw)
        _, truth = simulate(sc)
        draw = np.random.default_rng(sc.seed).choice(sc.n_items, size=sc.n_dirty, replace=False)
        assert truth.dirty_ids.dtype == np.int64 and truth.n_items == sc.n_items
        assert truth.dirty_ids.tolist() == sorted(draw.tolist())
        assert (np.diff(truth.dirty_ids) > 0).all()

    def test_switches_needed(self):
        from errest.core import TallyState

        truth = GroundTruth(dirty_ids=np.array([0, 1]), n_items=4)
        # consensus: item0 dirty, item1 clean, item2 dirty, item3 clean
        t = TallyState(np.array([2, 0, 3, 0]), np.array([0, 1, 1, 0]))
        pos, neg = truth.switches_needed(t)
        assert pos == 1  # item 1 should be dirty
        assert neg == 1  # item 2 should be clean


class TestSrmse:
    def test_exact_estimates(self):
        assert srmse([100.0, 100.0], 100.0) == 0.0

    def test_single_run(self):
        assert srmse([150.0], 100.0) == pytest.approx(0.5)

    def test_two_runs(self):
        assert srmse([90.0, 110.0], 100.0) == pytest.approx(0.1)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            srmse([1.0], 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            srmse([], 10.0)


class TestScm:
    def test_direct(self):
        assert scm(100, 10) == 30

    def test_rounds_up(self):
        assert scm(63, 10) == 19

    def test_empty_sample(self):
        assert scm(0, 10) == 0

    def test_zero_task_size_rejected(self):
        with pytest.raises(ValueError):
            scm(10, 0)


def assert_blocks_kept(log, permuted):
    """Every task block of `permuted` holds the same votes as in `log`."""
    votes, permuted_votes = log_votes(log), log_votes(permuted)
    workers, permuted_workers = vote_ids(log)[0], vote_ids(permuted)[0]
    original = {tid: (votes[s:e], workers[s:e]) for tid, s, e in task_tuples(log)}
    for tid, s, e in task_tuples(permuted):
        assert (permuted_votes[s:e], permuted_workers[s:e]) == original[tid]


class TestPermuteAndAverage:
    def nominal_trajectory(self, log):
        return evaluate_trajectory(log).nominal

    def test_r1_equals_single_run(self):
        log, _ = simulate(small_scenario())
        out = permute_and_average(log, 1, self.nominal_trajectory, seed=3)
        assert out.mean.tolist() == self.nominal_trajectory(log).tolist()
        assert (out.std == 0).all()

    def test_final_point_invariant_for_order_free_estimators(self):
        log, _ = simulate(small_scenario())

        def multi(permuted):
            return evaluate_trajectory(permuted).chao92_total

        for estimator in (self.nominal_trajectory, multi):
            out = permute_and_average(log, 5, estimator, seed=9)
            finals = out.per_run[:, -1]
            assert np.allclose(finals, finals[0])

    def test_switch_spread_is_reported_finite(self):
        log, _ = simulate(small_scenario())

        def switch_traj(permuted):
            return evaluate_trajectory(permuted).switch_total

        out = permute_and_average(log, 5, switch_traj, seed=9)
        assert np.isfinite(out.std).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mean_and_std_equal_silenced_nan_aggregation(self, data):
        # filled whole-NaN columns give the same bits as nanmean and nanstd under a
        # silenced warning, and no warning
        r, n_tasks = data.draw(st.integers(1, 10)), data.draw(st.integers(0, 6))
        shape = (r, n_tasks, *data.draw(st.sampled_from([(), (1,), (3,)])))
        size = math.prod(shape)
        cells = st.one_of(st.floats(-1e9, 1e9), st.just(math.nan))
        per_run = np.array(data.draw(st.lists(cells, min_size=size, max_size=size))).reshape(shape)
        empty = data.draw(st.lists(st.booleans(), min_size=n_tasks, max_size=n_tasks))
        per_run[:, np.array(empty, dtype=bool)] = np.nan
        ids = [f"t{k}" for k in range(n_tasks)]
        log = VoteLog.from_ids([0] * n_tasks, [True] * n_tasks, ids, ids, item_count=1)
        runs = iter(per_run)
        out = permute_and_average(log, r, lambda permuted: next(runs), seed=0)
        for got, want in zip((out.mean, out.std), nan_aggregate_oracle(per_run)):
            nan = np.isnan(want)
            assert got.shape == want.shape and (np.isnan(got) == nan).all()
            assert got[~nan].tobytes() == want[~nan].tobytes()  # -0.0 differs from 0.0

    def test_permutation_preserves_task_blocks(self):
        log, _ = simulate(small_scenario(n_tasks=6))
        permuted = permute_tasks(log, [5, 4, 3, 2, 1, 0])
        assert permuted.task_count == 6
        assert_blocks_kept(log, permuted)

    @pytest.mark.parametrize("order", [
        [2.0, 1.0, 0.0], np.array([2.0, 1.0, 0.0]), (k for k in [2, 1, 0]), [[2, 1, 0]],
        np.array([[2], [1], [0]]), [0, 0, 1], [0, 1], [0, 1, 2, 3], [],
    ], ids=["float-list", "float-array", "generator", "2-D", "column", "repeated", "short",
            "long", "empty"])
    def test_order_not_a_permutation_rejected(self, order):
        # a float order once passed the check and ended in an IndexError, and a generator
        # in a numpy broadcast error
        log = make_log([[(0, D)], [(1, C), (2, D)], [(2, C)]], item_count=3)
        with pytest.raises(ValueError) as exc:
            permute_tasks(log, order)
        assert str(exc.value) == "order must be a permutation of the task indices"

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_keeps_blocks_and_totals(self, data):
        log = data.draw(vote_logs())
        order = data.draw(st.permutations(range(log.task_count)))
        permuted = permute_tasks(log, order)
        blocks = task_tuples(log)
        assert [tid for tid, _, _ in task_tuples(permuted)] == [blocks[b][0] for b in order]
        assert_blocks_kept(log, permuted)
        t, t_permuted = tally(log), tally(permuted)
        assert (t.pos == t_permuted.pos).all() and (t.neg == t_permuted.neg).all()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(vote_logs(), pooled_vote_logs()), st.data())
    def test_permutation_matches_str_gather_oracle(self, log, data):
        order = data.draw(st.permutations(range(log.task_count)))
        permuted, expected = permute_tasks(log, order), permute_tasks_oracle(log, order)
        assert log_votes(permuted) == log_votes(expected)
        assert vote_ids(permuted) == vote_ids(expected)
        assert task_tuples(permuted) == task_tuples(expected)
        # task names follow the new block order; worker codes are gathered
        assert permuted.task_names == expected.task_names
        assert permuted.worker_names == log.worker_names

    def test_permutation_of_simulated_log_matches_oracle(self):
        log, _ = simulate(small_scenario(n_tasks=9))
        order = [4, 0, 8, 2, 6, 1, 3, 7, 5]
        permuted, expected = permute_tasks(log, order), permute_tasks_oracle(log, order)
        assert log_votes(permuted) == log_votes(expected)
        assert vote_ids(permuted) == vote_ids(expected)
        assert task_tuples(permuted) == task_tuples(expected)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_final_row_order_free_columns_invariant(self, data):
        log = data.draw(vote_logs())
        order = data.draw(st.permutations(range(log.task_count)))
        columns = ("nominal", "majority", "chao92_total", "vchao92_total", "coverage_hat")

        def final(votes):
            traj = evaluate_trajectory(votes)
            return [getattr(traj, c)[-1:] for c in columns]

        for got, want in zip(final(permute_tasks(log, order)), final(log), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)

    def test_full_log_statistics_order_free(self):
        log, _ = simulate(small_scenario(n_tasks=8))
        rng = np.random.default_rng(0)
        f_ref = fstats_from_tally(tally(log))
        for _ in range(5):
            permuted = permute_tasks(log, list(rng.permutation(8)))
            assert fstats_from_tally(tally(permuted)) == f_ref
            assert chao92(fstats_from_tally(tally(permuted))).total_errors_hat == pytest.approx(
                chao92(f_ref).total_errors_hat
            )


class TestScenarioOrderings:
    def test_false_positive_votes_inflate_discovery_statistics(self):
        # fp=0.01 companion to the clean-worker statistics: roughly 19
        # wrongly marked items push f1 toward 46 and n toward 208
        # (within +/-20% on seed averages).
        from errest.core import error_fstats

        base = SimScenario(
            n_items=1000, n_dirty=100, task_size=20, n_tasks=100,
            fn_rate=0.1, fp_rate=0.01,
        )
        f1s, ns, false_marks = [], [], []
        for seed in range(50):
            log, truth = simulate(replace(base, seed=seed))
            f = error_fstats(log)
            t = tally(log)
            dirty = dirty_mask(truth)
            false_marks.append(int(((t.pos > 0) & ~dirty).sum()))
            f1s.append(f.f1)
            ns.append(f.n)
        assert 19 * 0.8 <= np.mean(false_marks) <= 19 * 1.2
        assert 46 * 0.8 <= np.mean(f1s) <= 46 * 1.2
        assert 208 * 0.8 <= np.mean(ns) <= 208 * 1.2

    def test_false_negatives_only_favor_chao92(self):
        # with no false positives the discovery-based estimate is the
        # sharpest and lands on the truth; the hardened variant trails it
        sc = SimScenario(
            n_items=1000, n_dirty=100, task_size=15, n_tasks=300, fn_rate=0.1
        )
        chao_finals, vchao_finals = [], []
        for seed in range(20):
            log, truth = simulate(replace(sc, seed=seed))
            traj = evaluate_trajectory(log, truth=truth)
            chao_finals.append(traj.chao92_total[-1])
            if not np.isnan(traj.vchao92_total[-1]):
                vchao_finals.append(traj.vchao92_total[-1])
        assert srmse(chao_finals, 100.0) < srmse(vchao_finals, 100.0)
        assert abs(np.mean(chao_finals) - 100.0) <= 5.0


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "n_items": 100,
                    "n_dirty": 10,
                    "task_size": 5,
                    "n_tasks": 20,
                    "fp_rate": 0.01,
                    "seed": 3,
                }
            )
        )
        sc = load_scenario(path)
        assert sc == SimScenario(
            n_items=100, n_dirty=10, task_size=5, n_tasks=20, fp_rate=0.01, seed=3
        )

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "scenario.json"
        text = json.dumps({"n_items": 10, "n_dirty": 2, "task_size": 3, "n_tasks": 4})
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load_scenario(path) == SimScenario(n_items=10, n_dirty=2, task_size=3, n_tasks=4)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n_items": 10, "tasksize": 5}))
        with pytest.raises(ValueError, match="tasksize"):
            load_scenario(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n_items": 10}))
        with pytest.raises(ValueError, match="incomplete"):
            load_scenario(path)
