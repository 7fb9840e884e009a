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
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Label",
    "Vote",
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


class Label(Enum):
    """A worker's verdict on one item. An unseen item simply has no vote."""

    CLEAN = 0
    DIRTY = 1


@dataclass(frozen=True)
class Vote:
    """One worker's verdict on one item, with its global arrival index."""

    item_id: int
    worker_id: str
    task_id: str
    label: Label
    seq: int


@dataclass(frozen=True)
class VoteLog:
    """An ordered vote stream over items [0, item_count).

    Votes belonging to one task occupy a contiguous seq range (tasks
    arrive whole), and a worker votes at most once per item.
    """

    votes: tuple[Vote, ...]
    item_count: int
    task_size: int

    def __post_init__(self):
        seen_pairs = set()
        seen_tasks = set()
        prev_task = None
        for idx, v in enumerate(self.votes):
            if v.seq != idx:
                raise MalformedInputError(
                    f"vote seq {v.seq} at position {idx}: seq must be the "
                    "0-based arrival index",
                    position=idx,
                )
            if not 0 <= v.item_id < self.item_count:
                raise MalformedInputError(
                    f"item_id {v.item_id} outside universe [0, {self.item_count})",
                    position=idx,
                )
            pair = (v.item_id, v.worker_id)
            if pair in seen_pairs:
                raise MalformedInputError(
                    f"worker {v.worker_id!r} votes twice on item {v.item_id}",
                    position=idx,
                )
            seen_pairs.add(pair)
            if v.task_id != prev_task:
                if v.task_id in seen_tasks:
                    raise MalformedInputError(
                        f"task {v.task_id!r} is split into non-contiguous blocks",
                        position=idx,
                    )
                seen_tasks.add(v.task_id)
                prev_task = v.task_id

    def __len__(self) -> int:
        return len(self.votes)

    @cached_property
    def tasks(self) -> tuple[tuple[str, int, int], ...]:
        """Task blocks as (task_id, start_seq, end_seq) with end exclusive."""
        blocks = []
        start = 0
        for idx in range(1, len(self.votes) + 1):
            if idx == len(self.votes) or self.votes[idx].task_id != self.votes[start].task_id:
                blocks.append((self.votes[start].task_id, start, idx))
                start = idx
        return tuple(blocks)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @cached_property
    def _item_arr(self) -> np.ndarray:
        return np.fromiter((v.item_id for v in self.votes), dtype=np.int64, count=len(self.votes))

    @cached_property
    def _dirty_arr(self) -> np.ndarray:
        return np.fromiter(
            (v.label is Label.DIRTY for v in self.votes), dtype=bool, count=len(self.votes)
        )


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
    items = log._item_arr[:upto]
    dirty = log._dirty_arr[:upto]
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


def _parse_votes(
    rows: Iterable[Sequence[str]], first_line: int
) -> tuple[list[Vote], list[int]]:
    """Parse vote rows; returns the votes and the source line of each.

    Checks only the row format; VoteLog checks the log contract.
    """
    votes = []
    lines = []
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
        votes.append(
            Vote(
                item_id=item_id,
                worker_id=worker_id,
                task_id=task_id,
                label=Label.DIRTY if label_s == "1" else Label.CLEAN,
                seq=len(votes),
            )
        )
        lines.append(line)
    return votes, lines


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
        votes, lines = _parse_votes(reader, first_line=2)
    sizes = Counter(v.task_id for v in votes)
    task_size = max(sizes.values()) if sizes else 0
    try:
        return VoteLog(votes=tuple(votes), item_count=item_count, task_size=task_size)
    except MalformedInputError as exc:
        raise MalformedInputError(str(exc), lines[exc.position]) from None


def write_votes_csv(log: VoteLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VOTES_CSV_HEADER)
        for v in log.votes:
            writer.writerow([v.task_id, v.worker_id, v.item_id, v.label.value])


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
