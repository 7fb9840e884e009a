"""Vote-log data model, prefix tallies, and frequency fingerprints.

A cleaning pass is an ordered stream of worker votes over a fixed item
universe of size N. Every estimator in this package consumes one of two
summaries of a log prefix: the per-item tally of dirty/clean votes, or
the frequency-of-frequencies fingerprint (how many items were marked
dirty exactly once, exactly twice, ...).
"""

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

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


def _codes(ids: Sequence[str]) -> np.ndarray:
    """Intern ids as int codes numbered in order of first appearance."""
    index = {key: code for code, key in enumerate(dict.fromkeys(ids))}
    return np.fromiter(map(index.__getitem__, ids), dtype=np.int64, count=len(ids))


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

    # Task blocks as (task_id, start, end) positions with end exclusive.
    tasks: tuple[tuple[str, int, int], ...] = field(init=False, repr=False)

    def __post_init__(self):
        columns = (self.item_ids, self.dirty, self.worker_ids, self.task_ids)
        if len({len(col) for col in columns}) > 1:
            raise ValueError("vote-log columns must have equal length")
        # Check the raw ids before the int64 cast, which would overflow on huge ones;
        # the other checks see only the votes before the first id outside.
        raw = np.asarray(self.item_ids)
        outside = np.flatnonzero((raw < 0) | (raw >= self.item_count))
        end = int(outside[0]) if len(outside) else len(raw)
        items = np.asarray(raw[:end], dtype=np.int64)
        workers, task_codes = _codes(self.worker_ids[:end]), _codes(self.task_ids[:end])
        order = np.lexsort((workers, items))  # stable: a pair's votes stay in arrival order
        repeats = order[1:][(np.diff(items[order]) == 0) & (np.diff(workers[order]) == 0)]
        # Codes follow first appearance: block k of a whole-task log has code k.
        starts = np.flatnonzero(np.diff(task_codes, prepend=-1))
        splits = starts[task_codes[starts] != np.arange(len(starts))]
        dup, split = int(repeats.min(initial=end)), int(splits.min(initial=end))
        if dup < end and dup <= split:
            message = f"worker {self.worker_ids[dup]!r} votes twice on item {items[dup]}"
            raise MalformedInputError(message, position=dup)
        if split < end:
            message = f"task {self.task_ids[split]!r} is split into non-contiguous blocks"
            raise MalformedInputError(message, position=split)
        if end < len(raw):
            message = f"item_id {self.item_ids[end]} outside universe [0, {self.item_count})"
            raise MalformedInputError(message, position=end)
        bounds = starts.tolist() + [end]
        blocks = [(self.task_ids[a], a, b) for a, b in zip(bounds, bounds[1:])]
        object.__setattr__(self, "tasks", tuple(blocks))
        object.__setattr__(self, "item_ids", items)
        object.__setattr__(self, "dirty", np.asarray(self.dirty, dtype=bool))

    def __len__(self) -> int:
        return len(self.item_ids)

    @property
    def task_count(self) -> int:
        return len(self.tasks)


@dataclass(eq=False)
class TallyState:
    """Per-item dirty/clean vote counters over some log prefix."""

    pos: np.ndarray
    neg: np.ndarray


@dataclass(frozen=True)
class FStatistics:
    """Frequency-of-frequencies fingerprint of a sample.

    freq maps a multiplicity j >= 1 to f_j, the number of distinct
    classes observed exactly j times, and n is the effective sample
    size. For discovery statistics n equals sum(j * f_j); switch
    statistics supply an externally adjusted n.
    """

    freq: Mapping[int, int]
    n: int

    def __post_init__(self):
        clean = {j: int(fj) for j, fj in self.freq.items() if fj}
        object.__setattr__(self, "freq", clean)
        if any(j < 1 or fj < 0 for j, fj in clean.items()):
            raise ValueError("fingerprint multiplicities must be >= 1 with counts >= 0")
        if self.n < 0:
            raise ValueError("sample size n must be >= 0")

    def f(self, j: int) -> int:
        return self.freq.get(j, 0)

    @property
    def f1(self) -> int:
        return self.freq.get(1, 0)

    @property
    def c(self) -> int:
        """Distinct-class count: the sum of the f_j."""
        return sum(self.freq.values())


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
    return FStatistics(freq=freq, n=int(t.pos.sum()))


def error_fstats(log: VoteLog, upto_seq: int | None = None) -> FStatistics:
    """Fingerprint of error discoveries over the prefix votes[0:upto_seq)."""
    return fstats_from_tally(tally(log, upto_seq))


@contextmanager
def _open_utf8(path, newline=None):
    """Open path as UTF-8 text; a decode error names the first line that fails.

    The decoder's message gives an offset inside a read chunk, so the file
    is re-scanned in binary; splitlines ends lines where text mode does.
    """
    with open(path, newline=newline, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                lines = (text for chunk in raw for text in chunk.splitlines())
                for line, text in enumerate(lines, 1):
                    try:
                        text.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        message = f"byte {text[exc.start]:#04x} is not valid UTF-8"
                        raise MalformedInputError(message, line) from None
            raise


def _csv_records(reader) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, row) for each record of a csv.reader.

    line is where the record starts: a quoted field may carry a record
    over several lines. A csv.Error becomes a MalformedInputError naming
    the line of the record being read.
    """
    line = reader.line_num + 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedInputError(str(exc), line) from None


def _parse_id(text: str, what: str, line: int) -> int:
    """An id in ASCII digits; int() alone reads "1_0" as 10 and non-ASCII digits."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise MalformedInputError(f"{what} {text!r} is not an integer", line)


def _parse_votes(records: Iterable[tuple[int, Sequence[str]]]) -> tuple[tuple, ...]:
    """Parse (line, row) records into (item_ids, dirty, worker_ids, task_ids, lines).

    lines holds each vote's source line. Checks only the row format;
    VoteLog checks the log contract.
    """
    parsed = []
    for line, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 4:
            raise MalformedInputError(f"expected 4 columns, got {len(row)}", line)
        task_id, worker_id, item_s, label_s = (col.strip() for col in row)
        item_id = _parse_id(item_s, "item_id", line)
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
    with _open_utf8(path, newline="") as fh:
        records = _csv_records(csv.reader(fh, strict=True))
        _, header = next(records, (1, None))
        if header is None:
            raise MalformedInputError("missing header row", 1)
        if [h.strip() for h in header] != VOTES_CSV_HEADER:
            raise MalformedInputError(f"header must be {','.join(VOTES_CSV_HEADER)}", 1)
        item_ids, dirty, worker_ids, task_ids, lines = _parse_votes(records)
    try:
        return VoteLog(item_ids, dirty, worker_ids, task_ids, item_count)
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
    with _open_utf8(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text:
                continue
            item_id = _parse_id(text, "truth entry", line_no)
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
