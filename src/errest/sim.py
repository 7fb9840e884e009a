"""Seeded synthetic-crowd generator and evaluation metrics.

Generates vote logs from a scenario description: a pool of items with a
planted dirty subset, tasks of fixed size served to one fresh worker
each, and votes that flip away from the truth at configurable false-
positive / false-negative rates. Also provides the scaled-RMSE metric,
the fixed-quorum task budget, and task-order permutation averaging used
to smooth trajectory comparisons.
"""

from __future__ import annotations  # np.random loads only when a run draws

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

from .core import TallyState, VoteLog, _decode, _read_bytes
from .priority import DEFAULT_EPSILON, EpsilonPolicy, HeuristicPartition, draw_tasks, partition

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
    epsilon: float = DEFAULT_EPSILON
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
        for name in ("n_items", "n_tasks"):  # numpy sizes arrays by them as int64
            if getattr(self, name) >= 2**63:
                raise ValueError(f"{name} must be below 2**63, got {getattr(self, name)!r}")
        votes = self.n_tasks * min(self.task_size, self.n_items)  # simulate holds 8 bytes each
        if votes >= 2**60:
            raise ValueError(f"n_tasks * task_size (at most n_items) must be below 2**60: {votes}")
        runs = self.permutations * max(self.n_tasks, 1)  # the CLI's per_run: 9 float64 each
        if runs >= 2**60:
            raise ValueError(f"permutations * n_tasks (at least 1) must be below 2**60: {runs}")
        if self.n_items == 0 and self.n_tasks > 0:
            raise ValueError("n_items must be >= 1 when n_tasks > 0, got 0")
        if self.n_dirty > self.n_items:
            raise ValueError("n_dirty cannot exceed n_items")
        for name in ("fp_rate", "fn_rate", "epsilon", "heuristic_error"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool) or not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        if not isinstance(self.prioritize, bool):
            raise ValueError(f"prioritize must be true or false, got {self.prioritize!r}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """The planted dirty items as increasing int64 ids, with switch-distance helpers."""

    dirty_ids: np.ndarray
    n_items: int

    def __post_init__(self):
        ids = self.dirty_ids  # a frozenset or list would match nothing in np.isin
        typed = isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1
        if not typed or not (ids[1:] > ids[:-1]).all() or len(ids) and not (
                0 <= ids[0] and int(ids[-1]) < self.n_items):
            raise ValueError("dirty_ids must be a strictly increasing int64 array in [0, n_items)")

    def switches_needed(self, t: TallyState) -> tuple[int, int]:
        """Consensus flips needed to reach the truth from a tally.

        Returns (positive, negative): items whose strict-majority label
        is clean but should be dirty, and vice versa. Each wrong item
        needs exactly one flip.
        """
        consensus = t.pos > t.neg
        agree = int(np.count_nonzero(consensus[self.dirty_ids]))  # dirty by consensus and truth
        return len(self.dirty_ids) - agree, int(np.count_nonzero(consensus)) - agree


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

    size = min(sc.task_size, sc.n_items)
    if sc.prioritize:
        part = _synthetic_partition(truth_mask, sc.heuristic_error, rng)
        policy = EpsilonPolicy(epsilon=sc.epsilon, seed=int(rng.integers(2**32)))
        # The policy has its own stream, so one call gives the uniforms per-task calls would.
        items = draw_tasks(part, policy, size, sc.n_tasks)
        draws = rng.random((sc.n_tasks, size))
    else:
        items = np.empty((sc.n_tasks, size), dtype=np.int64)
        draws = np.empty((sc.n_tasks, size))  # one uniform per vote, drawn after its task
        for k in range(sc.n_tasks):
            items[k] = rng.choice(sc.n_items, size=size, replace=False)
            draws[k] = rng.random(size)
    items, draws = items.ravel(), draws.ravel()
    dirty = np.where(truth_mask[items], draws >= sc.fn_rate, draws < sc.fp_rate)
    codes, names = np.repeat(np.arange(sc.n_tasks), size), tuple(map(str, range(sc.n_tasks)))
    # Task k goes to worker k alone, so one code column serves both.
    log = VoteLog(items, dirty, codes, codes, tuple(f"w{k}" for k in names), names, sc.n_items)
    return log, GroundTruth(dirty_ids=np.sort(dirty_items), n_items=sc.n_items)


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


def permute_tasks(log: VoteLog, order: Sequence[int] | np.ndarray) -> VoteLog:
    """Reorder whole tasks by `order`, an int array of each task index once: one gather."""
    order, n_tasks = np.asarray(order), log.task_count
    if ((order.dtype.kind not in "iu" and order.size) or order.shape != (n_tasks,)
            or not np.array_equal(np.sort(order), np.arange(n_tasks))):
        raise ValueError("order must be a permutation of the task indices")
    order = order.astype(np.int64)  # an empty list reads as float64
    starts, sizes = log.task_bounds[order], np.diff(log.task_bounds)[order]
    index = np.arange(len(log)) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return VoteLog(
        log.item_ids[index], log.dirty[index], log.worker_codes[index],
        task_codes=np.repeat(np.arange(n_tasks), sizes), worker_names=log.worker_names,
        task_names=tuple(map(log.task_names.__getitem__, log.task_codes[starts].tolist())),
        item_count=log.item_count)


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
        permuted = log if i == 0 else permute_tasks(log, rng.permutation(n_tasks))
        values = np.asarray(estimator(permuted), dtype=float)
        if len(values) != n_tasks:
            raise ValueError("estimator must produce one value per task")
        runs.append(values)
    per_run = np.stack(runs)
    # nanmean and nanstd warn on a whole-NaN column, so it is filled, then set back to NaN.
    empty = np.isnan(per_run).all(axis=0)
    filled = np.where(empty, 0.0, per_run)
    mean, std = np.nanmean(filled, axis=0), np.nanstd(filled, axis=0)
    mean[empty], std[empty] = np.nan, np.nan
    return PermutedTrajectory(mean=mean, std=std, per_run=per_run)


def _scenario_object(pairs: list) -> dict:
    """A JSON object's dict, rejecting a repeated key, which json.loads keeps the last of."""
    raw = {}
    for key, value in pairs:
        if key in raw:
            raise ValueError(f"repeated scenario key: {key!r}")
        raw[key] = value
    return raw


def load_scenario(path) -> SimScenario:
    """Read a scenario from flat-key JSON, rejecting unknown and repeated keys."""
    try:
        raw = json.loads(_decode(_read_bytes(path)), object_pairs_hook=_scenario_object)
    except RecursionError:
        raise ValueError("scenario file nests too deeply to parse") from None
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
