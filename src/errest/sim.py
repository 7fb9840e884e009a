"""Seeded synthetic-crowd generator and evaluation metrics.

Generates vote logs from a scenario description: a pool of items with a
planted dirty subset, tasks of fixed size served to one fresh worker
each, and votes that flip away from the truth at configurable false-
positive / false-negative rates. Also provides the scaled-RMSE metric,
the fixed-quorum task budget, and task-order permutation averaging used
to smooth trajectory comparisons.
"""

import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import Label, TallyState, Vote, VoteLog
from .priority import EpsilonPolicy, HeuristicPartition, draw_task, partition

__all__ = [
    "SimScenario",
    "GroundTruth",
    "PermutedTrajectory",
    "simulate",
    "srmse",
    "scm",
    "permute_tasks",
    "permute_and_average",
    "nan_aware_mean",
    "nan_aware_std",
    "load_scenario",
]

# Internal score band used to synthesize heuristic scores in prioritized runs.
_BAND_LOW, _BAND_HIGH = 0.5, 0.9


@dataclass(frozen=True)
class SimScenario:
    """A reproducible crowd-cleaning setup.

    fp_rate / fn_rate are per-vote flip probabilities for truly clean /
    truly dirty items. With prioritize=False tasks sample uniformly from
    the whole pool and the heuristic fields are inert; with
    prioritize=True a synthetic heuristic scores the pool
    (heuristic_error is the chance an item lands on the wrong side of
    the ambiguous band) and tasks follow the epsilon policy.
    """

    n_items: int
    n_dirty: int
    task_size: int
    n_tasks: int
    fp_rate: float = 0.0
    fn_rate: float = 0.0
    epsilon: float = 0.1
    heuristic_error: float = 0.0
    permutations: int = 10
    seed: int = 0
    prioritize: bool = False

    def __post_init__(self):
        if self.n_dirty > self.n_items:
            raise ValueError("n_dirty cannot exceed n_items")
        for name in ("fp_rate", "fn_rate", "epsilon", "heuristic_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.task_size < 1 or self.n_tasks < 0 or self.permutations < 1:
            raise ValueError("task_size >= 1, n_tasks >= 0, permutations >= 1 required")


@dataclass(frozen=True)
class GroundTruth:
    """The planted dirty set, with helpers for switch-distance bookkeeping."""

    dirty_set: frozenset[int]
    n_items: int

    @cached_property
    def _mask(self) -> np.ndarray:
        mask = np.zeros(self.n_items, dtype=bool)
        mask[list(self.dirty_set)] = True
        return mask

    def dirty_mask(self) -> np.ndarray:
        return self._mask.copy()

    def switches_needed(self, t: TallyState) -> tuple[int, int]:
        """Consensus flips needed to reach the truth from a tally.

        Returns (positive, negative): items whose strict-majority label
        is clean but should be dirty, and vice versa. Each wrong item
        needs exactly one flip.
        """
        consensus = t.pos > t.neg
        truth = self._mask
        positive = int(np.count_nonzero(truth & ~consensus))
        negative = int(np.count_nonzero(~truth & consensus))
        return positive, negative


def _synthetic_partition(
    truth: np.ndarray, heuristic_error: float, rng: np.random.Generator
) -> HeuristicPartition:
    """Score the pool so errors land in the ambiguous band, mistakes aside."""
    n = len(truth)
    in_band = rng.uniform(_BAND_LOW, _BAND_HIGH, size=n)
    below = rng.uniform(0.0, _BAND_LOW / 2, size=n)
    wrong = rng.random(n) < heuristic_error
    use_band = truth ^ wrong
    return partition(np.where(use_band, in_band, below), _BAND_LOW, _BAND_HIGH)


def simulate(sc: SimScenario) -> tuple[VoteLog, GroundTruth]:
    """Generate a vote log and its ground truth, deterministic under seed."""
    rng = np.random.default_rng(sc.seed)
    dirty_items = rng.choice(sc.n_items, size=sc.n_dirty, replace=False)
    truth_mask = np.zeros(sc.n_items, dtype=bool)
    truth_mask[dirty_items] = True

    policy = None
    part = None
    if sc.prioritize:
        part = _synthetic_partition(truth_mask, sc.heuristic_error, rng)
        policy = EpsilonPolicy(epsilon=sc.epsilon, seed=int(rng.integers(2**32)))

    size = min(sc.task_size, sc.n_items)
    votes = []
    for k in range(sc.n_tasks):
        if sc.prioritize:
            items = draw_task(part, policy, size)
        else:
            items = rng.choice(sc.n_items, size=size, replace=False)
        for item in items:
            item = int(item)
            if truth_mask[item]:
                is_dirty = rng.random() >= sc.fn_rate
            else:
                is_dirty = rng.random() < sc.fp_rate
            votes.append(
                Vote(
                    item_id=item,
                    worker_id=f"w{k}",
                    task_id=str(k),
                    label=Label.DIRTY if is_dirty else Label.CLEAN,
                    seq=len(votes),
                )
            )
    log = VoteLog(votes=tuple(votes), item_count=sc.n_items, task_size=sc.task_size)
    return log, GroundTruth(dirty_set=frozenset(int(i) for i in dirty_items), n_items=sc.n_items)


def srmse(estimates: Sequence[float], truth: float) -> float:
    """Root-mean-square estimation error scaled by the true count."""
    if truth <= 0:
        raise ValueError(f"truth must be positive, got {truth}")
    if len(estimates) == 0:
        raise ValueError("need at least one estimate")
    arr = np.asarray(estimates, dtype=float)
    return float(np.sqrt(np.mean((arr - truth) ** 2)) / truth)


def scm(sample_size: int, task_size: int) -> int:
    """Task budget to give every item in a sample exactly three reviews."""
    if task_size <= 0:
        raise ValueError(f"task_size must be positive, got {task_size}")
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    return math.ceil(3 * sample_size / task_size)


def permute_tasks(log: VoteLog, order: Sequence[int]) -> VoteLog:
    """Reorder whole tasks by `order`, renumbering arrival indices."""
    blocks = log.tasks
    if sorted(order) != list(range(len(blocks))):
        raise ValueError("order must be a permutation of the task indices")
    votes = []
    for b in order:
        _, start, end = blocks[b]
        for v in log.votes[start:end]:
            votes.append(Vote(v.item_id, v.worker_id, v.task_id, v.label, len(votes)))
    return VoteLog(votes=tuple(votes), item_count=log.item_count, task_size=log.task_size)


@dataclass(frozen=True)
class PermutedTrajectory:
    """Per-task mean and spread of an estimator across task-order permutations."""

    mean: np.ndarray
    std: np.ndarray
    per_run: np.ndarray


def nan_aware_mean(runs: np.ndarray) -> np.ndarray:
    """Column means ignoring NaN; NaN where no run produced a value."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(runs, axis=0)


def nan_aware_std(runs: np.ndarray) -> np.ndarray:
    """Column standard deviations ignoring NaN; NaN where empty."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanstd(runs, axis=0)


def permute_and_average(
    log: VoteLog,
    r: int,
    estimator: Callable[[VoteLog], Sequence[float] | np.ndarray],
    seed: int = 0,
) -> PermutedTrajectory:
    """Average an estimator trajectory over r task-order permutations.

    The first permutation is always the identity, so r=1 reproduces the
    single-run trajectory. `estimator` maps a log to one value per task,
    or to one row of k values per task (shape (tasks, k)). NaN marks
    undefined points and is ignored by the aggregation.
    """
    if r < 1:
        raise ValueError(f"need r >= 1 permutations, got {r}")
    rng = np.random.default_rng(seed)
    n_tasks = log.task_count
    runs = []
    for i in range(r):
        permuted = log if i == 0 else permute_tasks(log, list(rng.permutation(n_tasks)))
        values = np.asarray(estimator(permuted), dtype=float)
        if len(values) != n_tasks:
            raise ValueError("estimator must produce one value per task")
        runs.append(values)
    per_run = np.stack(runs)
    return PermutedTrajectory(
        mean=nan_aware_mean(per_run), std=nan_aware_std(per_run), per_run=per_run
    )


def load_scenario(path) -> SimScenario:
    """Read a scenario from flat-key JSON, rejecting unknown keys."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("scenario file must hold a JSON object")
    known = {f.name for f in fields(SimScenario)}
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown scenario key: {key!r}")
    try:
        return SimScenario(**raw)
    except TypeError as exc:
        raise ValueError(f"incomplete scenario: {exc}") from None
