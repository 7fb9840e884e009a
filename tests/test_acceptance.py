"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criterion 6 is implemented faithfully and is a KNOWN FAILURE: the
skew-corrected switch estimate provably does not decrease monotonically
under consensus-confirming votes once a log contains superseded
singleton switch events (a multiplicity-1 switch followed by another
switch on the same item). Confirmations concentrate on each item's
latest event, so the squared-CV numerator grows quadratically against
a linearly growing sample and the correction term rises toward
f1_frozen * (c/k - 1) instead of vanishing. Only the coverage-only form
converges monotonically; that true half of the property is verified in
tests/test_switch.py.
"""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import stats as sps

from errest.core import FStatistics
from errest.estimators import chao92
from errest.cli import main
from errest.priority import EpsilonPolicy, draw_task, partition
from errest.sim import SimScenario, simulate, srmse
from errest.switch import Direction, SwitchReplay, d_switch, replay_switches, switch_fstats
from errest.trajectory import evaluate_trajectory

from helpers import (
    C,
    D,
    append_task,
    confirming_round,
    consensus_oracle,
    eq7_switch_count,
    make_log,
    random_log,
)

DATA = Path(__file__).parent / "data"


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def test_criterion_1_worked_examples():
    f1 = FStatistics(freq={1: 30, 2: 9, 3: 44}, n=180)
    out1 = chao92(f1)
    ok1 = (
        out1.cv2_hat == 0.0
        and abs(out1.remaining_hat - 16.6) <= 1e-9 * 16.6
        and abs(out1.total_errors_hat - 99.6) <= 1e-9 * 99.6
    )
    f2 = FStatistics(freq={1: 46, 2: 6, 3: 50}, n=208)
    out2 = chao92(f2)
    expected2 = 102 * 208 / 162
    ok2 = out2.cv2_hat == 0.0 and abs(out2.total_errors_hat - expected2) <= 1e-9 * expected2
    report(1, ok1 and ok2, f"remaining={out1.remaining_hat:.10g}, total={out2.total_errors_hat:.6f}")
    assert ok1 and ok2


def test_criterion_2_switch_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    # exhaustive single-item label patterns up to length 6
    for k in range(1, 7):
        for pattern in itertools.product((D, C), repeat=k):
            log = make_log([[(0, lab)] for lab in pattern], item_count=1)
            stats = replay_switches(log)
            events, _, n_switch = consensus_oracle(log)
            assert stats.c_switch == eq7_switch_count(log)
            assert [
                (e.item_id, e.direction is Direction.POSITIVE, e.multiplicity)
                for e in stats.events
            ] == events
            assert stats.n_switch == n_switch
            checked += 1
    # 1000 random logs, N <= 8, <= 8 votes/item
    for _ in range(1000):
        log = random_log(rng, max_items=8, max_votes_per_item=8)
        stats = replay_switches(log)
        events, _, n_switch = consensus_oracle(log)
        assert stats.c_switch == eq7_switch_count(log)
        assert [
            (e.item_id, e.direction is Direction.POSITIVE, e.multiplicity)
            for e in stats.events
        ] == events
        assert stats.n_switch == n_switch
        checked += 1
    report(2, True, f"{checked} logs, 100% agreement with the direct double sum")


def test_criterion_3_simulated_discovery_statistics():
    from errest.core import error_fstats

    base = SimScenario(n_items=1000, n_dirty=100, task_size=20, n_tasks=100, fn_rate=0.1)
    cs, f1s, ns = [], [], []
    for seed in range(50):
        log, _ = simulate(replace(base, seed=seed))
        f = error_fstats(log)
        cs.append(f.c)
        f1s.append(f.f1)
        ns.append(f.n)
    c_bar, f1_bar, n_bar = np.mean(cs), np.mean(f1s), np.mean(ns)
    ok = 70 <= c_bar <= 96 and 24 <= f1_bar <= 36 and 153 <= n_bar <= 207
    report(3, ok, f"mean c={c_bar:.1f} in [70,96], f1={f1_bar:.1f} in [24,36], n={n_bar:.1f} in [153,207]")
    assert ok


def test_criterion_4_false_positive_sensitivity():
    sc = SimScenario(n_items=1000, n_dirty=100, task_size=15, n_tasks=300, fp_rate=0.01)
    chao_finals, switch_finals = [], []
    for seed in range(20):
        log, truth = simulate(replace(sc, seed=seed))
        traj = evaluate_trajectory(log, truth=truth)
        chao_finals.append(traj.chao92_total[-1])
        switch_finals.append(traj.switch_total[-1])
    overshoot = np.mean(chao_finals) >= 1.25 * 100
    s_switch, s_chao = srmse(switch_finals, 100.0), srmse(chao_finals, 100.0)
    ordered = s_switch < s_chao
    report(
        4,
        overshoot and ordered,
        f"chao92 mean={np.mean(chao_finals):.1f} (>=125), "
        f"SRMSE switch={s_switch:.3f} < chao92={s_chao:.3f}",
    )
    assert overshoot and ordered


def test_criterion_5_mixed_error_minimum():
    sc = SimScenario(
        n_items=1000, n_dirty=100, task_size=15, n_tasks=300, fp_rate=0.01, fn_rate=0.1
    )
    finals = {"chao92": [], "vchao92": [], "switch": []}
    for seed in range(20):
        log, truth = simulate(replace(sc, seed=seed))
        traj = evaluate_trajectory(log, truth=truth)
        finals["chao92"].append(traj.chao92_total[-1])
        finals["switch"].append(traj.switch_total[-1])
        if not np.isnan(traj.vchao92_total[-1]):
            finals["vchao92"].append(traj.vchao92_total[-1])
    scores = {name: srmse(vals, 100.0) for name, vals in finals.items()}
    ok = scores["switch"] == min(scores.values())
    report(
        5,
        ok,
        "final SRMSE " + ", ".join(f"{k}={v:.3f}" for k, v in scores.items()),
    )
    assert ok


def test_criterion_6_convergence():
    """Faithful implementation of the stated criterion; a known failure.

    Once every item's latest switch stops being a singleton, appending
    more unanimous consensus-confirming votes must never raise the
    remaining-switch estimate (tolerance 1e-9). The skew term of the
    estimate breaks this on logs with superseded singleton events (see
    the module docstring); the no-skew form is verified monotone in
    tests/test_switch.py.
    """
    rng = np.random.default_rng(6)
    violations = []
    for trial in range(100):
        log = random_log(rng, max_items=8, max_votes_per_item=8)
        replay = SwitchReplay(log)
        replay.advance(len(log))

        def xi_all():
            stats = replay.snapshot()
            f = switch_fstats(stats)
            if f.c == 0:
                return 0.0, True
            est = d_switch(f, universe=log.item_count)
            latest = {}
            for e in stats.events:
                latest[e.item_id] = e
            settled = all(e.multiplicity >= 2 for e in latest.values())
            return max(est.total_errors_hat - f.c, 0.0), settled

        prev = None
        settled_seen = False
        for step in range(12):
            # replay the log with this step's confirming votes appended
            c_switch = replay.snapshot().c_switch
            log = append_task(log, confirming_round(log, replay))
            replay = SwitchReplay(log)
            replay.advance(len(log))
            flipped = replay.snapshot().c_switch > c_switch  # a flip is a new event
            assert not flipped, "a consensus-confirming vote must never flip"
            xi, settled = xi_all()
            if settled_seen and prev is not None and xi > prev + 1e-9:
                violations.append((trial, step, prev, xi))
            if settled:
                settled_seen = True
            prev = xi
    ok = not violations
    report(
        6,
        ok,
        f"{len(violations)} monotonicity violations across 100 logs"
        + ("" if ok else " (known failure: the skew correction grows under confirmation; see module docstring)"),
    )
    assert ok, (
        f"{len(violations)} violations, e.g. trial/step/xi_prev/xi_new = "
        f"{violations[0]} — known failure: the skew-corrected switch estimate "
        "is not monotone under confirmations (see module docstring)"
    )


def test_criterion_7_epsilon_policy_limits():
    scores = np.where(np.arange(1000) < 500, 0.7, 0.2)
    part = partition(scores, 0.5, 0.9)
    amb = set(part.ambiguous)
    n_draws = 100_000
    details = []
    all_ok = True
    for eps in (0.0, 0.1, 0.5, 1.0):
        policy = EpsilonPolicy(epsilon=eps, seed=11)
        counts = np.zeros(1000, dtype=np.int64)
        hits = 0
        for _ in range(n_draws // 10):
            for item in draw_task(part, policy, 10):
                counts[item] += 1
                hits += item in amb
        expected = (1 - eps) * n_draws
        sigma = np.sqrt(n_draws * eps * (1 - eps))
        ok = abs(hits - expected) <= 3 * sigma if sigma > 0 else hits == expected
        all_ok &= ok
        details.append(f"eps={eps}: |{hits}-{expected:.0f}|<=3s")
        if eps == 0.5:  # = |R_H|/|R| for this 50/50 universe: the uniform limit
            _, p_value = sps.chisquare(counts)
            all_ok &= p_value > 0.01
            details.append(f"chi2 p={p_value:.3f}>0.01")
    report(7, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_8_determinism(tmp_path):
    import json

    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            dict(
                n_items=200, n_dirty=20, task_size=10, n_tasks=40,
                fn_rate=0.1, fp_rate=0.01, permutations=4, seed=99,
            )
        )
    )
    outs = []
    votes = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}.csv"
        votes_out = tmp_path / f"votes_{tag}.csv"
        assert main(["simulate", str(scenario), "--out", str(out), "--votes-out", str(votes_out)]) == 0
        outs.append(out.read_bytes())
        votes.append(votes_out.read_bytes())
    est = []
    for tag in ("a", "b"):
        out = tmp_path / f"est_{tag}.csv"
        assert main(
            ["estimate", str(tmp_path / "votes_a.csv"), "--n-items", "200", "--out", str(out)]
        ) == 0
        est.append(out.read_bytes())
    ok = outs[0] == outs[1] and votes[0] == votes[1] and est[0] == est[1]
    report(8, ok, "simulate and estimate outputs byte-identical across reruns")
    assert ok


def test_criterion_9_golden_trajectory_substitute(tmp_path):
    out = tmp_path / "out.csv"
    code = main(
        [
            "estimate", str(DATA / "fixture_votes.csv"),
            "--n-items", "3",
            "--truth", str(DATA / "fixture_truth.csv"),
            "--out", str(out),
        ]
    )
    ok = code == 0 and out.read_bytes() == (DATA / "fixture_golden.csv").read_bytes()
    report(9, ok, "hand-computed golden trajectory reproduced byte-for-byte")
    assert ok
