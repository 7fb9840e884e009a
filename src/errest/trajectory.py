"""Per-task estimator trajectories over a replayed vote log.

Evaluates every estimator after each completed task: the fingerprint
moments of all prefixes come from per-vote deltas, the switch
fingerprints from one incremental replay, and each estimator runs once
over its column. This is the engine behind the CLI's estimate and
simulate commands.
"""

from dataclasses import dataclass

import numpy as np

from .core import VoteLog
from .estimators import LOW_COVERAGE, Moments, chao92, vchao92_columns
from .sim import GroundTruth
from .switch import SwitchReplay, d_switch, switch_total_errors

__all__ = ["TrajectoryRow", "evaluate_trajectory"]

DEFAULT_SHIFT = 1
DEFAULT_TREND_WINDOW = 10

ESTIMATE_COLUMNS = (
    "nominal",
    "majority",
    "chao92_total",
    "vchao92_total",
    "switch_total",
    "xi_pos",
    "xi_neg",
)


@dataclass(frozen=True)
class TrajectoryRow:
    """Snapshot of every estimator after one completed task.

    None marks an estimate that is undefined at this prefix (the CSV
    shows a gap); flags carries degeneracy markers of the form
    "column:marker". truth_xi_* are filled only when ground truth is
    available (simulation runs).
    """

    task_index: int
    nominal: int
    majority: int
    chao92_total: float
    vchao92_total: float | None
    switch_total: float
    xi_pos: float
    xi_neg: float
    coverage_hat: float
    truth: int | None = None
    flags: tuple[str, ...] = ()
    truth_xi_pos: int | None = None
    truth_xi_neg: int | None = None


def evaluate_trajectory(
    log: VoteLog,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    truth: GroundTruth | None = None,
) -> list[TrajectoryRow]:
    """Replay the log and emit one TrajectoryRow per completed task.

    The discovery, majority and truth columns come from per-vote deltas
    of the fingerprint moments, accumulated over tasks; only the switch
    fingerprints are replayed prefix by prefix. Each estimator then runs
    once over its column.
    """
    for name, value in (("shift", shift), ("trend_window", trend_window)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if not log.tasks:
        return []
    n, n_tasks = log.item_count, log.task_count
    # Exact clamps: no multiplicity exceeds the vote count, no lag the task count.
    shift, trend_window = min(shift, len(log) + 1), min(trend_window, n_tasks)
    replay = SwitchReplay(log)
    starts = [start for _, start, _ in log.tasks]
    d, p, q = log.dirty, replay.vote_pos, replay.vote_neg

    def reaching(j):  # the dirty votes that bring their item's dirty count to j
        return d & (p == j)

    def step(j_in, j_out):  # class count: +1 as an item reaches j_in, -1 as it reaches j_out
        return reaching(j_in).astype(np.int8) - reaching(j_out)

    # An item holds a strict majority while p > q: a dirty vote gains it at p - q = 1,
    # a clean one loses it at p = q.
    majority_step = (d & (p - q == 1)).astype(np.int8) - (~d & (p == q))
    deltas = [
        d,  # n
        reaching(1),  # c
        step(1, 2),  # f1
        step(1 + shift, 2 + shift),  # f_{1+shift}
        step(1, 1 + shift),  # the sum of f_j over j <= shift
        majority_step,
        p * d,  # with n, the skew moment: a dirty vote adds 2(p-1)
    ]
    if truth is not None:
        hit = np.isin(log.item_ids, [*truth.dirty_set])  # sized by the log, not the universe
        deltas += [majority_step * hit, majority_step * ~hit]
    # Summed within each task one delta row at a time, so no int64 copy of them all.
    totals = np.cumsum([np.add.reduceat(x, starts, dtype=np.int64) for x in deltas], axis=1)
    del deltas, majority_step
    n_votes, c, f1, f_next, n_low, m, dirty_pos = totals[:7]
    discovery = Moments(c, f1, n_votes, 2 * (dirty_pos - n_votes))

    chao = chao92(discovery, universe=n)
    vchao, insufficient = vchao92_columns(discovery, m, f_next, n_low, universe=n)
    switch_moments = replay.prefix_moments(end for _, _, end in log.tasks)
    xi_pos, xi_neg = (d_switch(moments, n) for moments in switch_moments)
    lag = np.concatenate([np.zeros(trend_window, m.dtype), m])[:n_tasks]  # 0 before the log
    total = switch_total_errors(m, xi_pos.remaining, xi_neg.remaining, np.sign(m - lag), n)

    def marks(column, est):
        return np.where(est.coverage == 0.0, f"{column}:{LOW_COVERAGE}", "").tolist()

    vchao_marks = np.where(insufficient, "vchao92_total:insufficient-data",
                           marks("vchao92_total", vchao)).tolist()
    flags = [tuple(filter(None, row)) for row in zip(
        marks("chao92_total", chao), vchao_marks, marks("xi_pos", xi_pos), marks("xi_neg", xi_neg))]
    vchao_total = np.where(insufficient, None, vchao.total).tolist()
    truth_columns = [[None] * n_tasks] * 3
    if truth is not None:
        dirty_count = len(truth.dirty_set)
        truth_columns = [[dirty_count] * n_tasks, (dirty_count - totals[7]).tolist(),
                         totals[8].tolist()]
    columns = zip(range(n_tasks), c.tolist(), m.tolist(), chao.total.tolist(), vchao_total,
                  total.tolist(), xi_pos.remaining.tolist(), xi_neg.remaining.tolist(),
                  chao.coverage.tolist(), truth_columns[0], flags, *truth_columns[1:])
    return [TrajectoryRow(*values) for values in columns]
