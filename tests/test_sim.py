import json
from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from errest.core import fstats_from_tally, tally
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

from helpers import log_votes, vote_logs


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
        assert truth_a.dirty_set == truth_b.dirty_set
        assert log_a.item_ids.tolist() == log_b.item_ids.tolist()
        assert log_a.dirty.tolist() == log_b.dirty.tolist()
        assert log_a.task_ids == log_b.task_ids

    def test_different_seeds_differ(self):
        log_a, _ = simulate(small_scenario(seed=1))
        log_b, _ = simulate(small_scenario(seed=2))
        assert log_votes(log_a) != log_votes(log_b)

    def test_perfect_workers_vote_the_truth(self):
        sc = small_scenario(fn_rate=0.0, fp_rate=0.0)
        log, truth = simulate(sc)
        dirty = truth.dirty_mask()
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
        dirty = truth.dirty_mask()
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
        for _, start, end in log.tasks:
            items = log.item_ids[start:end].tolist()
            assert len(items) == sc.task_size
            assert len(set(items)) == len(items)

    def test_prioritized_draws_respect_epsilon_zero(self):
        sc = small_scenario(prioritize=True, epsilon=0.0, heuristic_error=0.0)
        log, truth = simulate(sc)
        dirty = truth.dirty_mask()
        # perfect heuristic puts exactly the dirty items in the band
        assert dirty[log.item_ids].all()

    def test_task_size_capped_at_pool(self):
        sc = SimScenario(n_items=3, n_dirty=1, task_size=10, n_tasks=4, seed=0)
        log, _ = simulate(sc)
        for _, start, end in log.tasks:
            assert end - start == 3

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            SimScenario(n_items=10, n_dirty=2, task_size=2, n_tasks=1, fp_rate=1.5)

    def test_too_many_dirty_rejected(self):
        with pytest.raises(ValueError):
            SimScenario(n_items=10, n_dirty=11, task_size=2, n_tasks=1)


class TestGroundTruth:
    def test_switches_needed(self):
        from errest.core import TallyState

        truth = GroundTruth(dirty_set=frozenset({0, 1}), n_items=4)
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
    original = {tid: (votes[s:e], log.worker_ids[s:e]) for tid, s, e in log.tasks}
    for tid, s, e in permuted.tasks:
        assert (permuted_votes[s:e], permuted.worker_ids[s:e]) == original[tid]


class TestPermuteAndAverage:
    def nominal_trajectory(self, log):
        rows = evaluate_trajectory(log)
        return [r.nominal for r in rows]

    def test_r1_equals_single_run(self):
        log, _ = simulate(small_scenario())
        out = permute_and_average(log, 1, self.nominal_trajectory, seed=3)
        assert out.mean.tolist() == self.nominal_trajectory(log)
        assert (out.std == 0).all()

    def test_final_point_invariant_for_order_free_estimators(self):
        log, _ = simulate(small_scenario())

        def multi(permuted):
            rows = evaluate_trajectory(permuted)
            return [r.chao92_total for r in rows]

        for estimator in (self.nominal_trajectory, multi):
            out = permute_and_average(log, 5, estimator, seed=9)
            finals = out.per_run[:, -1]
            assert np.allclose(finals, finals[0])

    def test_switch_spread_is_reported_finite(self):
        log, _ = simulate(small_scenario())

        def switch_traj(permuted):
            return [r.switch_total for r in evaluate_trajectory(permuted)]

        out = permute_and_average(log, 5, switch_traj, seed=9)
        assert np.isfinite(out.std).all()

    def test_permutation_preserves_task_blocks(self):
        log, _ = simulate(small_scenario(n_tasks=6))
        permuted = permute_tasks(log, [5, 4, 3, 2, 1, 0])
        assert permuted.task_count == 6
        assert_blocks_kept(log, permuted)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_keeps_blocks_and_totals(self, data):
        log = data.draw(vote_logs())
        order = data.draw(st.permutations(range(log.task_count)))
        permuted = permute_tasks(log, order)
        assert [tid for tid, _, _ in permuted.tasks] == [log.tasks[b][0] for b in order]
        assert_blocks_kept(log, permuted)
        t, t_permuted = tally(log), tally(permuted)
        assert (t.pos == t_permuted.pos).all() and (t.neg == t_permuted.neg).all()

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
            dirty = truth.dirty_mask()
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
            row = evaluate_trajectory(log, truth=truth)[-1]
            chao_finals.append(row.chao92_total)
            if row.vchao92_total is not None:
                vchao_finals.append(row.vchao92_total)
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
