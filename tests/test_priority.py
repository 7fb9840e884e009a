import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from errest.priority import (
    EpsilonPolicy,
    HeuristicPartition,
    draw_task,
    draw_tasks,
    partition,
    stratum_rule,
    total_with_perfect_heuristic,
)
from helpers import draw_task_oracle, partition_oracle

unit_scores = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


class CountingPCG64(np.random.PCG64):
    """PCG64 that records the size of each random_raw fetch."""

    def __init__(self, seed):
        super().__init__(seed)
        self.fetches = []

    def random_raw(self, size=None, output=True):
        self.fetches.append(size)
        return super().random_raw(size, output)


def stream_after(draw, epsilon, seed, spare, bit_generator=np.random.PCG64):
    """Run draw(policy) on a fresh policy; return its picks, warnings and stream after."""
    policy = EpsilonPolicy(epsilon=epsilon, seed=seed)
    policy.rng = np.random.Generator(bit_generator(seed))  # what default_rng(seed) builds
    if spare:
        policy.rng.integers(7)  # buffers the high half of a word
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        picks = draw(policy)
    state = policy.rng.bit_generator.state
    after = (policy.rng.random(), int(policy.rng.integers(1000)))
    warned = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return picks, warned, state, after


def rows(tasks):
    return [tuple(row) for row in tasks.tolist()]


class TestPartition:
    def test_three_way_split(self):
        p = partition([0.95, 0.7, 0.3], alpha=0.5, beta=0.9)
        assert p.auto_dirty == (0,)
        assert p.ambiguous == (1,)
        assert p.auto_clean == (2,)

    def test_everything_ambiguous(self):
        p = partition([0.0, 0.4, 1.0], alpha=0.0, beta=1.0)
        assert p.ambiguous == (0, 1, 2)

    def test_boundaries_are_ambiguous(self):
        p = partition([0.5, 0.9], alpha=0.5, beta=0.9)
        assert p.ambiguous == (0, 1)

    def test_alpha_above_beta_rejected(self):
        with pytest.raises(ValueError):
            partition([0.5], alpha=0.9, beta=0.5)

    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            partition([1.5], alpha=0.0, beta=1.0)

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError):
            partition([0.1, float("nan"), 0.95, 0.6], alpha=0.5, beta=0.9)

    def test_sets_partition_universe(self):
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        p = partition(scores, alpha=0.3, beta=0.7)
        everything = sorted(p.ambiguous + p.auto_dirty + p.auto_clean)
        assert everything == list(range(200))

    def test_membership_is_per_item_and_idempotent(self):
        rng = np.random.default_rng(2)
        scores = rng.random(100)
        p1 = partition(scores, alpha=0.3, beta=0.7)
        p2 = partition(scores, alpha=0.3, beta=0.7)
        assert p1.ambiguous == p2.ambiguous
        for i, s in enumerate(scores):
            expected = "amb" if 0.3 <= s <= 0.7 else ("dirty" if s > 0.7 else "clean")
            assert (i in p1.ambiguous) == (expected == "amb")
            assert (i in p1.auto_dirty) == (expected == "dirty")
            assert (i in p1.auto_clean) == (expected == "clean")

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(st.one_of(unit_scores, st.sampled_from([-0.0, 0.3, 0.7])), max_size=40),
        band=st.one_of(st.lists(unit_scores, min_size=2, max_size=2).map(sorted),
                       unit_scores.map(lambda a: [a, a]), st.just([0.3, 0.7])),
    )
    @example(scores=[0.0, -0.0, 1.0, 0.3, 0.7, 0.5], band=[0.3, 0.7])
    @example(scores=[0.0, -0.0, 1.0, 0.5, 0.4], band=[0.5, 0.5])
    @example(scores=[0.0, -0.0, 1.0], band=[0.0, 0.0])
    @example(scores=[0.0, -0.0, 1.0], band=[1.0, 1.0])
    def test_same_split_as_one_rule_call_per_item(self, scores, band):
        p = partition(scores, *band)
        assert p == partition_oracle(scores, *band)
        rule = stratum_rule(*band)
        for name in ("ambiguous", "auto_dirty", "auto_clean"):
            items = getattr(p, name)
            assert all(type(i) is int for i in items) and list(items) == sorted(set(items))
            assert all(rule(scores[i]) == name for i in items)


class TestDrawTask:
    def band_partition(self, n_ambiguous, n_other):
        scores = [0.6] * n_ambiguous + [0.1] * n_other
        return partition(scores, alpha=0.5, beta=0.9)

    def test_epsilon_zero_stays_in_band(self):
        p = self.band_partition(20, 20)
        policy = EpsilonPolicy(epsilon=0.0, seed=3)
        for _ in range(20):
            items = draw_task(p, policy, 5)
            assert all(i in set(p.ambiguous) for i in items)

    def test_epsilon_one_stays_outside(self):
        p = self.band_partition(20, 20)
        policy = EpsilonPolicy(epsilon=1.0, seed=3)
        for _ in range(20):
            items = draw_task(p, policy, 5)
            assert all(i in set(p.complement) for i in items)

    def test_no_repeats_within_task(self):
        import warnings

        # size 8 from 6+6 strata: exhaustion (and its fallback warning) is expected
        p = self.band_partition(6, 6)
        policy = EpsilonPolicy(epsilon=0.5, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(50):
                items = draw_task(p, policy, 8)
                assert len(set(items)) == len(items) == 8

    def test_deterministic_under_seed(self):
        p = self.band_partition(10, 10)
        a = EpsilonPolicy(epsilon=0.3, seed=42)
        b = EpsilonPolicy(epsilon=0.3, seed=42)
        draws_a = [draw_task(p, a, 4) for _ in range(10)]
        draws_b = [draw_task(p, b, 4) for _ in range(10)]
        assert draws_a == draws_b

    def test_empty_stratum_falls_back_with_warning(self):
        p = partition([0.1, 0.2, 0.3], alpha=0.5, beta=0.9)  # no ambiguous items
        policy = EpsilonPolicy(epsilon=0.0, seed=1)
        with pytest.warns(RuntimeWarning):
            items = draw_task(p, policy, 2)
        assert len(items) == 2

    def test_oversized_task_rejected(self):
        p = self.band_partition(2, 2)
        with pytest.raises(ValueError):
            draw_task(p, EpsilonPolicy(seed=0), 5)

    def test_stratum_frequencies_match_epsilon(self):
        p = self.band_partition(50, 50)
        policy = EpsilonPolicy(epsilon=0.25, seed=6)
        n_draws, hits = 20_000, 0
        amb = set(p.ambiguous)
        for _ in range(n_draws // 4):
            hits += sum(1 for i in draw_task(p, policy, 4) if i in amb)
        sigma = np.sqrt(n_draws * 0.25 * 0.75)
        assert abs(hits - 0.75 * n_draws) <= 3 * sigma

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            EpsilonPolicy(epsilon=1.2, seed=0)

    def test_non_pcg64_generator_rejected_untouched(self):
        p = self.band_partition(5, 5)
        for draw in (lambda policy: draw_task(p, policy, 3),
                     lambda policy: draw_tasks(p, policy, 3, 4)):
            policy = EpsilonPolicy(seed=0)
            policy.rng = np.random.Generator(np.random.MT19937(0))
            with pytest.raises(TypeError, match="MT19937"):
                draw(policy)
            fresh = np.random.Generator(np.random.MT19937(0))
            assert policy.rng.random(4).tolist() == fresh.random(4).tolist()

    @pytest.mark.parametrize("n_tasks", [None, 3])
    def test_fallback_warning_names_the_caller(self, n_tasks):
        # The warning points at the line that asked for the task, not into errest.
        p = partition([0.1, 0.2, 0.3], alpha=0.5, beta=0.9)  # no ambiguous items
        policy = EpsilonPolicy(epsilon=0.0, seed=1)
        with pytest.warns(RuntimeWarning) as caught:
            if n_tasks is None:
                draw_task(p, policy, 2)
            else:
                draw_tasks(p, policy, 2, n_tasks)
        assert [w.filename for w in caught] == [__file__] * (n_tasks or 1)

    def test_rejection_in_a_huge_stratum_same_stream(self):
        # With n = 3 * 2**30, Lemire's method rejects a quarter of the halves;
        # a range stands in for a stratum tuple of that size.
        p = HeuristicPartition(ambiguous=range(3 * 2**30), auto_dirty=(), auto_clean=())
        results = []
        for draw in (lambda policy: [draw_task(p, policy, 40) for _ in range(3)],
                     lambda policy: rows(draw_tasks(p, policy, 40, 3)),
                     lambda policy: [draw_task_oracle(p, policy, 40) for _ in range(3)]):
            results.append(stream_after(draw, epsilon=0.0, seed=5, spare=False))
        assert results[0] == results[1] == results[2]

    def test_words_cross_a_block_mid_task(self):
        # One task of the whole 20-item universe fetches words in blocks of 40, and
        # its duplicate draws use more than that.
        p = self.band_partition(10, 10)
        fetches = []

        def counted(policy):
            fetches.append(policy.rng.bit_generator.fetches)
            return rows(draw_tasks(p, policy, 20, 1))

        got = stream_after(counted, epsilon=0.5, seed=1, spare=False, bit_generator=CountingPCG64)
        want = stream_after(lambda policy: [draw_task_oracle(p, policy, 20)],
                            epsilon=0.5, seed=1, spare=False)
        del got[2]["bit_generator"], want[2]["bit_generator"]  # the class names differ
        assert got == want
        assert len(fetches[0]) > 1

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(unit_scores, max_size=60),
        band=st.lists(unit_scores, min_size=2, max_size=2).map(sorted),
        epsilon=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        spare=st.booleans(),
    )
    @example(scores=[0.1, 0.95, 0.2], band=[0.5, 0.9], epsilon=0.0, seed=1,
             fractions=[1.0], spare=False)  # empty ambiguous band
    @example(scores=[0.6, 0.1, 0.2, 0.3], band=[0.5, 0.9], epsilon=0.5, seed=2,
             fractions=[1.0, 0.5], spare=True)  # a one-item stratum
    @example(scores=[0.6, 0.7, 0.1, 0.2, 0.3], band=[0.5, 0.9], epsilon=0.0, seed=3,
             fractions=[0.8], spare=False)  # the band runs out mid-task
    def test_same_stream_as_scalar_calls(self, scores, band, epsilon, seed, fractions, spare):
        # Twin policies: the raw-word decode against one random() and one
        # integers(n) call per draw, from the same seed and spare half.
        p = partition(scores, *band)
        sizes = [int(f * p.universe_size) for f in fractions]
        results = [stream_after(lambda policy: [draw(p, policy, size) for size in sizes],
                                epsilon, seed, spare)
                   for draw in (draw_task, draw_task_oracle)]
        assert results[0] == results[1]

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(unit_scores, max_size=60),
        band=st.lists(unit_scores, min_size=2, max_size=2).map(sorted),
        epsilon=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        fraction=st.floats(0.0, 1.0),
        n_tasks=st.one_of(st.sampled_from([0, 1]), st.integers(0, 12)),
        spare=st.booleans(),
    )
    @example(scores=[0.1, 0.95, 0.2], band=[0.5, 0.9], epsilon=0.0, seed=1,
             fraction=1.0, n_tasks=3, spare=True)  # empty ambiguous band, one warning a task
    @example(scores=[0.6] * 10 + [0.1] * 10, band=[0.5, 0.9], epsilon=0.5, seed=1,
             fraction=1.0, n_tasks=1, spare=False)  # a block boundary inside the task
    @example(scores=[0.6] * 10 + [0.1] * 10, band=[0.5, 0.9], epsilon=0.3, seed=2,
             fraction=0.5, n_tasks=400, spare=True)  # blocks of 4096 words over 400 tasks
    @example(scores=[0.6, 0.1], band=[0.5, 0.9], epsilon=0.5, seed=3,
             fraction=0.5, n_tasks=0, spare=True)
    def test_many_tasks_same_stream_as_scalar_calls(
        self, scores, band, epsilon, seed, fraction, n_tasks, spare
    ):
        # One draw_tasks call against n_tasks tasks of scalar Generator calls.
        p = partition(scores, *band)
        size = int(fraction * p.universe_size)
        shapes = []

        def batched(policy):
            tasks = draw_tasks(p, policy, size, n_tasks)
            shapes.append((tasks.shape, tasks.dtype))
            return rows(tasks)

        got = stream_after(batched, epsilon, seed, spare)
        want = stream_after(
            lambda policy: [draw_task_oracle(p, policy, size) for _ in range(n_tasks)],
            epsilon, seed, spare)
        assert got == want
        assert shapes == [((n_tasks, size), np.int64)]


class TestTotals:
    def test_perfect_with_no_auto_matches(self):
        p = partition([0.6] * 5, alpha=0.5, beta=0.9)
        assert total_with_perfect_heuristic(12.0, p) == 12.0

    def test_perfect_zero_estimate(self):
        p = partition([0.95, 0.95, 0.6], alpha=0.5, beta=0.9)
        assert total_with_perfect_heuristic(0.0, p) == 2.0

    def test_perfect_additive(self):
        p = partition([0.95, 0.95, 0.95, 0.6], alpha=0.5, beta=0.9)
        assert total_with_perfect_heuristic(5.5, p) == 8.5


class TestHeuristicScenarios:
    """Simulation-backed behavior of the two estimation regimes."""

    def test_perfect_heuristic_trusted_band_converges(self):
        # epsilon=0 with an error-free heuristic: every task stays in the
        # band, and the switch-corrected total plus the (empty) auto-dirty
        # set recovers the planted error count.
        from dataclasses import replace

        from errest.sim import SimScenario, simulate
        from errest.trajectory import evaluate_trajectory

        sc = SimScenario(
            n_items=1000, n_dirty=100, task_size=15, n_tasks=200,
            fn_rate=0.1, fp_rate=0.01, epsilon=0.0, heuristic_error=0.0,
            prioritize=True,
        )
        finals = []
        for seed in range(10):
            log, truth = simulate(replace(sc, seed=seed))
            d_hat_on_band = evaluate_trajectory(log, truth=truth).switch_total[-1]
            finals.append(total_with_perfect_heuristic(d_hat_on_band, self.band(log)))
        assert abs(np.mean(finals) - 100.0) <= 10.0

    def test_imperfect_heuristic_estimate_stays_near_truth(self):
        # epsilon-randomized draws with a 10%-error heuristic: the
        # whole-universe switch estimate stays within a quarter of truth
        from dataclasses import replace

        from errest.sim import SimScenario, simulate
        from errest.trajectory import evaluate_trajectory

        sc = SimScenario(
            n_items=1000, n_dirty=100, task_size=15, n_tasks=300,
            fn_rate=0.1, fp_rate=0.01, epsilon=0.1, heuristic_error=0.1,
            prioritize=True,
        )
        finals = []
        for seed in range(10):
            log, truth = simulate(replace(sc, seed=seed))
            finals.append(evaluate_trajectory(log, truth=truth).switch_total[-1])
        assert 75.0 <= np.mean(finals) <= 125.0

    @staticmethod
    def band(log):
        # stand-in partition with no auto-dirty items, as the synthetic
        # heuristic produces; only len(auto_dirty) matters for the total
        return partition([0.6] * 2, alpha=0.5, beta=0.9)

