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
from itertools import chain
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

    @property
    def ssum(self) -> int:
        """Skew moment: the sum of j(j-1)f_j."""
        return sum(j * (j - 1) * fj for j, fj in self.freq.items())


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
    """Open path as UTF-8 text past any byte-order mark; a decode error names the first
    line that fails.

    The decoder's message gives an offset inside a read chunk, so the file
    is re-scanned in binary; splitlines ends lines where text mode does.
    """
    with open(path, newline=newline, encoding="utf-8-sig") as fh:
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


def _vote_lines(path) -> list[int]:
    """Re-scan a votes CSV row by row for each vote's line; raises naming the first bad line."""
    with _open_utf8(path, newline="") as fh:
        records = _csv_records(csv.reader(fh, strict=True))
        _, header = next(records, (1, None))
        if header is None:
            raise MalformedInputError("missing header row", 1)
        if [h.strip() for h in header] != VOTES_CSV_HEADER:
            raise MalformedInputError(f"header must be {','.join(VOTES_CSV_HEADER)}", 1)
        lines = []
        for line, row in records:
            if len(row) > 1 or row and row[0].strip():
                if len(row) != 4:
                    raise MalformedInputError(f"expected 4 columns, got {len(row)}", line)
                _parse_id(row[2].strip(), "item_id", line)
                if (label := row[3].strip()) not in ("0", "1"):
                    raise MalformedInputError(f"label {label!r} must be 0 or 1", line)
                lines.append(line)
    return lines


def read_votes_csv(path, item_count: int) -> VoteLog:
    """Load a vote log from CSV (header task_id,worker_id,item_id,label).

    Row order is arrival order; rows must be grouped by task. The item
    universe size is supplied out of band. The rows are checked a column
    at a time; when a check fails, a re-scan names the offending line.
    """
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            header = next(reader, None)
            rows = list(filter(None, reader))  # an empty line is an empty row
        except csv.Error:
            header = rows = None
    try:
        if header is None or [h.strip() for h in header] != VOTES_CSV_HEADER:
            raise ValueError("header")
        if {*map(len, rows)} - {4}:  # drop the blank rows that hold spaces, then recheck
            rows = [row for row in rows if len(row) > 1 or row[0].strip()]
            if {*map(len, rows)} - {4}:
                raise ValueError("row length")
        cells = list(map(str.strip, chain.from_iterable(rows)))
        task_ids, worker_ids, id_texts, labels = (tuple(cells[k::4]) for k in range(4))
        joined = "".join(id_texts)
        if not joined.isascii() or "_" in joined or not {*labels} <= {"0", "1"}:
            raise ValueError("id or label")
        dirty = np.fromiter(map("1".__eq__, labels), dtype=bool, count=len(labels))
        return VoteLog(list(map(int, id_texts)), dirty, worker_ids, task_ids, item_count)
    except ValueError as exc:  # the re-scan raises on any row-format error
        lines = _vote_lines(path)  # so here exc is VoteLog's contract error
        raise MalformedInputError(str(exc), lines[exc.position]) from None


def write_votes_csv(log: VoteLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VOTES_CSV_HEADER)
        labels = log.dirty.astype(int).tolist()
        writer.writerows(zip(log.task_ids, log.worker_ids, log.item_ids.tolist(), labels))


def read_truth_csv(path, item_count: int) -> frozenset[int]:
    """Load the true-dirty item set, one item_id per line; a failed check walks the lines."""
    with _open_utf8(path) as fh:
        lines = fh.read().split("\n")  # not splitlines: that also ends lines at \x0c and others
    entries = list(filter(None, map(str.strip, lines)))
    joined = "".join(entries)
    if joined.isascii() and "_" not in joined:
        try:
            items = frozenset(map(int, entries))
            if not items or min(items) >= 0 and max(items) < item_count:
                return items
        except ValueError:
            pass
    items = set()
    for line_no, raw in enumerate(lines, 1):
        text = raw.strip()
        if text:
            item_id = _parse_id(text, "truth entry", line_no)
            if not 0 <= item_id < item_count:
                message = f"truth item {item_id} outside universe [0, {item_count})"
                raise MalformedInputError(message, line_no)
            items.add(item_id)
    return frozenset(items)


def write_truth_csv(dirty: Iterable[int], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in sorted(dirty):
            fh.write(f"{item}\n")
