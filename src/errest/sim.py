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
from itertools import chain
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from .core import TallyState, VoteLog, _read_text
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
        for name, low in (("n_items", 0), ("n_dirty", 0), ("task_size", 1),
                          ("n_tasks", 0), ("permutations", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.n_dirty > self.n_items:
            raise ValueError("n_dirty cannot exceed n_items")
        for name in ("fp_rate", "fn_rate", "epsilon", "heuristic_error"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool) or not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not isinstance(self.prioritize, bool):
            raise ValueError(f"prioritize must be true or false, got {self.prioritize!r}")


@dataclass(frozen=True)
class GroundTruth:
    """The planted dirty set, with helpers for switch-distance bookkeeping."""

    dirty_set: frozenset[int]
    n_items: int

    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean mask of the dirty set over the universe."""
        mask = np.zeros(self.n_items, dtype=bool)
        mask[list(self.dirty_set)] = True
        return mask

    def switches_needed(self, t: TallyState) -> tuple[int, int]:
        """Consensus flips needed to reach the truth from a tally.

        Returns (positive, negative): items whose strict-majority label
        is clean but should be dirty, and vice versa. Each wrong item
        needs exactly one flip.
        """
        consensus = t.pos > t.neg
        truth = self.mask
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
    items = np.empty((sc.n_tasks, size), dtype=np.int64)
    draws = np.empty((sc.n_tasks, size))  # one uniform per vote, drawn after its task
    for k in range(sc.n_tasks):
        if sc.prioritize:
            items[k] = draw_task(part, policy, size)
        else:
            items[k] = rng.choice(sc.n_items, size=size, replace=False)
        draws[k] = rng.random(size)
    items, draws = items.ravel(), draws.ravel()
    dirty = np.where(truth_mask[items], draws >= sc.fn_rate, draws < sc.fp_rate)
    tasks = range(sc.n_tasks)
    log = VoteLog(
        item_ids=items,
        dirty=dirty,
        worker_ids=tuple(chain.from_iterable([f"w{k}"] * size for k in tasks)),
        task_ids=tuple(chain.from_iterable([str(k)] * size for k in tasks)),
        item_count=sc.n_items,
    )
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
    """Reorder whole tasks by `order`: a gather of the task blocks' positions."""
    blocks = log.tasks
    if sorted(order) != list(range(len(blocks))):
        raise ValueError("order must be a permutation of the task indices")
    index = [pos for b in order for pos in range(blocks[b][1], blocks[b][2])]
    return VoteLog(
        item_ids=log.item_ids[index],
        dirty=log.dirty[index],
        worker_ids=tuple(log.worker_ids[pos] for pos in index),
        task_ids=tuple(log.task_ids[pos] for pos in index),
        item_count=log.item_count,
    )


@dataclass(frozen=True)
class PermutedTrajectory:
    """Per-task mean and spread of an estimator across task-order permutations."""

    mean: np.ndarray
    std: np.ndarray
    per_run: np.ndarray


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
    with warnings.catch_warnings():
        # All-NaN columns (no run produced a value) stay NaN without a warning.
        warnings.simplefilter("ignore", RuntimeWarning)
        mean, std = np.nanmean(per_run, axis=0), np.nanstd(per_run, axis=0)
    return PermutedTrajectory(mean=mean, std=std, per_run=per_run)


def load_scenario(path) -> SimScenario:
    """Read a scenario from flat-key JSON, rejecting unknown keys."""
    raw = json.loads(_read_text(path))
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
