"""Vote-log data model, prefix tallies, and frequency fingerprints.

A cleaning pass is an ordered stream of worker votes over a fixed item
universe of size N. Every estimator in this package consumes one of two
summaries of a log prefix: the per-item tally of dirty/clean votes, or
the frequency-of-frequencies fingerprint (how many items were marked
dirty exactly once, exactly twice, ...).
"""

import csv
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "VoteLog",
    "TallyState",
    "FStatistics",
    "MalformedInputError",
    "tally",
    "error_fstats",
    "fstats_from_tally",
    "read_votes_csv",
    "write_votes_csv",
    "read_truth_csv",
    "write_truth_csv",
]

VOTES_CSV_HEADER = ["task_id", "worker_id", "item_id", "label"]


class MalformedInputError(ValueError):
    """Raised when an input file or vote stream violates the data contract."""

    def __init__(self, message: str, line: int | None = None, position: int | None = None):
        self.line = line
        self.position = position  # index of the offending vote, when known
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class VoteLog:
    """An ordered vote stream over items [0, item_count), held as columns.

    Vote k is (item_ids[k], dirty[k], worker_ids[k], task_ids[k]); its
    position k is its arrival index. Votes belonging to one task are
    contiguous (tasks arrive whole), and a worker votes at most once per
    item.
    """

    item_ids: np.ndarray
    dirty: np.ndarray
    worker_ids: tuple[str, ...]
    task_ids: tuple[str, ...]
    item_count: int
    task_size: int

    def __post_init__(self):
        columns = (self.item_ids, self.dirty, self.worker_ids, self.task_ids)
        if len({len(col) for col in columns}) > 1:
            raise ValueError("vote-log columns must have equal length")
        seen_pairs = set()
        seen_tasks = set()
        prev_task = None
        # Check the raw ids before the int64 cast, which would overflow on huge ones.
        rows = zip(np.asarray(self.item_ids).tolist(), self.worker_ids, self.task_ids)
        for idx, (item_id, worker_id, task_id) in enumerate(rows):
            if not 0 <= item_id < self.item_count:
                raise MalformedInputError(
                    f"item_id {item_id} outside universe [0, {self.item_count})",
                    position=idx,
                )
            pair = (item_id, worker_id)
            if pair in seen_pairs:
                raise MalformedInputError(
                    f"worker {worker_id!r} votes twice on item {item_id}",
                    position=idx,
                )
            seen_pairs.add(pair)
            if task_id != prev_task:
                if task_id in seen_tasks:
                    raise MalformedInputError(
                        f"task {task_id!r} is split into non-contiguous blocks",
                        position=idx,
                    )
                seen_tasks.add(task_id)
                prev_task = task_id
        object.__setattr__(self, "item_ids", np.asarray(self.item_ids, dtype=np.int64))
        object.__setattr__(self, "dirty", np.asarray(self.dirty, dtype=bool))

    def __len__(self) -> int:
        return len(self.item_ids)

    @cached_property
    def tasks(self) -> tuple[tuple[str, int, int], ...]:
        """Task blocks as (task_id, start, end) positions with end exclusive."""
        ids = self.task_ids
        blocks = []
        start = 0
        for idx in range(1, len(ids) + 1):
            if idx == len(ids) or ids[idx] != ids[start]:
                blocks.append((ids[start], start, idx))
                start = idx
        return tuple(blocks)

    @property
    def task_count(self) -> int:
        return len(self.tasks)


@dataclass(eq=False)
class TallyState:
    """Per-item dirty/clean vote counters over some log prefix."""

    pos: np.ndarray
    neg: np.ndarray

    @property
    def item_count(self) -> int:
        return len(self.pos)


@dataclass(frozen=True)
class FStatistics:
    """Frequency-of-frequencies fingerprint of a sample.

    freq maps a multiplicity j >= 1 to f_j, the number of distinct
    classes observed exactly j times; c is the distinct-class count and
    n the effective sample size. For discovery statistics n equals
    sum(j * f_j); switch statistics supply an externally adjusted n.
    """

    freq: Mapping[int, int]
    n: int
    c: int

    def __post_init__(self):
        clean = {j: int(fj) for j, fj in self.freq.items() if fj}
        object.__setattr__(self, "freq", clean)
        if any(j < 1 or fj < 0 for j, fj in clean.items()):
            raise ValueError("fingerprint multiplicities must be >= 1 with counts >= 0")
        if self.c != sum(clean.values()):
            raise ValueError("distinct count c must equal the sum of the f_j")
        if self.n < 0:
            raise ValueError("sample size n must be >= 0")

    def f(self, j: int) -> int:
        return self.freq.get(j, 0)

    @property
    def f1(self) -> int:
        return self.freq.get(1, 0)


def tally(log: VoteLog, upto_seq: int | None = None) -> TallyState:
    """Count dirty/clean votes per item over the prefix votes[0:upto_seq)."""
    upto = len(log) if upto_seq is None else upto_seq
    if not 0 <= upto <= len(log):
        raise MalformedInputError(f"prefix end {upto} outside [0, {len(log)}]")
    items = log.item_ids[:upto]
    dirty = log.dirty[:upto]
    pos = np.bincount(items[dirty], minlength=log.item_count).astype(np.int64)
    neg = np.bincount(items[~dirty], minlength=log.item_count).astype(np.int64)
    return TallyState(pos, neg)


def fstats_from_tally(t: TallyState) -> FStatistics:
    """Fingerprint of the dirty-vote counts in a tally.

    Classes are the items marked dirty at least once; clean votes do
    not contribute.
    """
    counts = np.bincount(t.pos)
    multiplicities = np.flatnonzero(counts[1:]) + 1
    freq = dict(zip(multiplicities.tolist(), counts[multiplicities].tolist()))
    return FStatistics(freq=freq, n=int(t.pos.sum()), c=sum(freq.values()))


def error_fstats(log: VoteLog, upto_seq: int | None = None) -> FStatistics:
    """Fingerprint of error discoveries over the prefix votes[0:upto_seq)."""
    return fstats_from_tally(tally(log, upto_seq))


def _parse_votes(rows: Iterable[Sequence[str]], first_line: int) -> tuple[tuple, ...]:
    """Parse vote rows into columns (item_ids, dirty, worker_ids, task_ids, lines).

    lines holds each vote's source line. Checks only the row format;
    VoteLog checks the log contract.
    """
    parsed = []
    for line, row in enumerate(rows, first_line):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise MalformedInputError(f"expected 4 columns, got {len(row)}", line)
        task_id, worker_id, item_s, label_s = (col.strip() for col in row)
        try:
            item_id = int(item_s)
        except ValueError:
            raise MalformedInputError(f"item_id {item_s!r} is not an integer", line) from None
        if label_s not in ("0", "1"):
            raise MalformedInputError(f"label {label_s!r} must be 0 or 1", line)
        parsed.append((item_id, label_s == "1", worker_id, task_id, line))
    return tuple(zip(*parsed)) if parsed else ((),) * 5


def read_votes_csv(path, item_count: int) -> VoteLog:
    """Load a vote log from CSV (header task_id,worker_id,item_id,label).

    Row order is arrival order; rows must be grouped by task. The item
    universe size is supplied out of band. Contract errors name the
    offending line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInputError("missing header row", 1) from None
        if [h.strip() for h in header] != VOTES_CSV_HEADER:
            raise MalformedInputError(
                f"header must be {','.join(VOTES_CSV_HEADER)}", 1
            )
        item_ids, dirty, worker_ids, task_ids, lines = _parse_votes(reader, first_line=2)
    sizes = Counter(task_ids)
    task_size = max(sizes.values()) if sizes else 0
    try:
        return VoteLog(item_ids, dirty, worker_ids, task_ids, item_count, task_size)
    except MalformedInputError as exc:
        raise MalformedInputError(str(exc), lines[exc.position]) from None


def write_votes_csv(log: VoteLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VOTES_CSV_HEADER)
        labels = log.dirty.astype(int).tolist()
        writer.writerows(zip(log.task_ids, log.worker_ids, log.item_ids.tolist(), labels))


def read_truth_csv(path, item_count: int) -> frozenset[int]:
    """Load the true-dirty item set, one item_id per line."""
    items = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text:
                continue
            try:
                item_id = int(text)
            except ValueError:
                raise MalformedInputError(
                    f"truth entry {text!r} is not an integer", line_no
                ) from None
            if not 0 <= item_id < item_count:
                raise MalformedInputError(
                    f"truth item {item_id} outside universe [0, {item_count})", line_no
                )
            items.add(item_id)
    return frozenset(items)


def write_truth_csv(dirty: Iterable[int], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in sorted(dirty):
            fh.write(f"{item}\n")
