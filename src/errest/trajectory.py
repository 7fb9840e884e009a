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

__all__ = ["Trajectory", "evaluate_trajectory"]

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
class Trajectory:
    """Every estimator after each completed task: one numpy array per column.

    Entry k of a column belongs to the prefix that ends with task k. Counts are
    int64; estimates and coverage_hat are float64, NaN where undefined (a CSV gap).
    flags holds object CSV cells: each prefix's degeneracy markers, "column:marker",
    joined by ";". truth and truth_xi_* are None unless ground truth is given.
    """

    task_index: np.ndarray
    nominal: np.ndarray
    majority: np.ndarray
    chao92_total: np.ndarray
    vchao92_total: np.ndarray
    switch_total: np.ndarray
    xi_pos: np.ndarray
    xi_neg: np.ndarray
    coverage_hat: np.ndarray
    truth: np.ndarray | None
    flags: np.ndarray
    truth_xi_pos: np.ndarray | None
    truth_xi_neg: np.ndarray | None

    def __len__(self) -> int:
        # The prefix count; the benchmark's trajectory.prefixes count reads it.
        return len(self.task_index)

    def __eq__(self, other):
        """Exact: each column has the same shape, dtype and values, and NaN equals only NaN."""
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(a is b if a is None or b is None else a.dtype == b.dtype
                   and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
                   for a, b in zip(vars(self).values(), vars(other).values()))


def evaluate_trajectory(
    log: VoteLog,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    truth: GroundTruth | None = None,
) -> Trajectory:
    """Replay the log into a Trajectory with one entry per completed task.

    The discovery, majority and truth columns come from per-vote deltas
    of the fingerprint moments, accumulated over tasks; only the switch
    fingerprints are replayed prefix by prefix. Each estimator then runs
    once over its column.
    """
    for name, value in (("shift", shift), ("trend_window", trend_window)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
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
        hit = np.isin(log.item_ids, truth.dirty_ids)  # sized by the log, not the universe
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
    total = switch_total_errors(m, xi_pos.remaining_hat, xi_neg.remaining_hat, np.sign(m - lag), n)

    # Each prefix's markers as the bits of one code; each code's cell is joined once.
    markers = {
        f"chao92_total:{LOW_COVERAGE}": chao.coverage_hat == 0.0,
        "vchao92_total:insufficient-data": insufficient,
        f"vchao92_total:{LOW_COVERAGE}": ~insufficient & (vchao.coverage_hat == 0.0),
        f"xi_pos:{LOW_COVERAGE}": xi_pos.coverage_hat == 0.0,
        f"xi_neg:{LOW_COVERAGE}": xi_neg.coverage_hat == 0.0,
    }
    code = sum(present.astype(np.intp) << bit for bit, present in enumerate(markers.values()))
    cells = np.array([";".join(name for bit, name in enumerate(markers) if k >> bit & 1)
                      for k in range(1 << len(markers))], dtype=object)
    truth_columns = [None] * 3
    if truth is not None:
        dirty_count = np.full(n_tasks, len(truth.dirty_ids), np.int64)
        truth_columns = [dirty_count, dirty_count - totals[7], totals[8]]
    return Trajectory(np.arange(n_tasks, dtype=np.int64), c, m, chao.total_errors_hat,
                      np.where(insufficient, np.nan, vchao.total_errors_hat), total,
                      xi_pos.remaining_hat, xi_neg.remaining_hat, chao.coverage_hat,
                      truth_columns[0], cells[code], *truth_columns[1:])
