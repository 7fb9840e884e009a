"""Per-task estimator trajectories over a replayed vote log.

Replays a log task by task with incremental tallies and switch
detection, and snapshots every estimator after each completed task.
This is the engine behind the CLI's estimate and simulate commands.
"""

import math
from dataclasses import dataclass

from .core import TallyState, VoteLog, fstats_from_tally
from .estimators import InsufficientDataError, chao92, majority, vchao92
from .sim import GroundTruth
from .switch import (
    Direction,
    SwitchReplay,
    Trend,
    d_switch,
    switch_fstats,
    switch_total_errors,
)

__all__ = ["TrajectoryRow", "evaluate_trajectory", "trend_from_history"]

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

    def value(self, column: str) -> float:
        v = getattr(self, column)
        return math.nan if v is None else float(v)


def trend_from_history(history: list[int], window: int) -> Trend:
    """Sign of the majority-count change over the last `window` tasks.

    Before the log starts the majority count is zero, so early prefixes
    compare against zero.
    """
    now = history[-1]
    ref_index = len(history) - 1 - window
    ref = history[ref_index] if ref_index >= 0 else 0
    if now > ref:
        return Trend.INCREASING
    if now < ref:
        return Trend.DECREASING
    return Trend.FLAT


def evaluate_trajectory(
    log: VoteLog,
    shift: int = DEFAULT_SHIFT,
    trend_window: int = DEFAULT_TREND_WINDOW,
    truth: GroundTruth | None = None,
) -> list[TrajectoryRow]:
    """Replay the log and emit one TrajectoryRow per completed task."""
    for name, value in (("shift", shift), ("trend_window", trend_window)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    n = log.item_count
    replay = SwitchReplay(n)
    tally_state = TallyState(replay.pos, replay.neg)  # live view of the replay's counts
    majority_history: list[int] = []
    rows = []
    item_ids = log.item_ids.tolist()
    dirty = log.dirty.tolist()
    for task_index, (_, start, end) in enumerate(log.tasks):
        for k in range(start, end):
            replay.apply(item_ids[k], dirty[k])

        m = majority(tally_state)
        majority_history.append(m)
        fstats = fstats_from_tally(tally_state)
        chao = chao92(fstats, universe=n)
        try:
            vest = vchao92(fstats, m, shift=shift, universe=n)
            vchao_total, vchao_flags = vest.total_errors_hat, vest.flags
        except InsufficientDataError:
            vchao_total, vchao_flags = None, ("insufficient-data",)

        stats = replay.snapshot()
        xi_pos = d_switch(switch_fstats(stats, Direction.POSITIVE), n)
        xi_neg = d_switch(switch_fstats(stats, Direction.NEGATIVE), n)
        trend = trend_from_history(majority_history, trend_window)
        total = switch_total_errors(m, xi_pos.remaining_hat, xi_neg.remaining_hat, trend, n)
        named = zip(("chao92_total", "vchao92_total", "xi_pos", "xi_neg"),
                    (chao.flags, vchao_flags, xi_pos.flags, xi_neg.flags))
        flags = tuple(f"{column}:{marker}" for column, ms in named for marker in ms)

        truth_count = truth_xi_pos = truth_xi_neg = None
        if truth is not None:
            truth_count = len(truth.dirty_set)
            truth_xi_pos, truth_xi_neg = truth.switches_needed(tally_state)

        rows.append(
            TrajectoryRow(
                task_index=task_index,
                nominal=fstats.c,
                majority=m,
                chao92_total=chao.total_errors_hat,
                vchao92_total=vchao_total,
                switch_total=total,
                xi_pos=xi_pos.remaining_hat,
                xi_neg=xi_neg.remaining_hat,
                coverage_hat=chao.coverage_hat,
                truth=truth_count,
                flags=flags,
                truth_xi_pos=truth_xi_pos,
                truth_xi_neg=truth_xi_neg,
            )
        )
    return rows
