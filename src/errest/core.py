"""Vote-log data model, prefix tallies, and frequency fingerprints.

A cleaning pass is an ordered stream of worker votes over a fixed item
universe of size N. Every estimator in this package consumes one of two
summaries of a log prefix: the per-item tally of dirty/clean votes, or
the frequency-of-frequencies fingerprint (how many items were marked
dirty exactly once, exactly twice, ...).
"""

import csv
import io
import warnings
from dataclasses import dataclass, field
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


def _read_text(path) -> str:
    """The text of a UTF-8 file past any byte-order mark; a decode error names its line."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # lines end where csv.reader and text mode end them
        line = len((raw[:exc.start] + b"x").splitlines())
        raise MalformedInputError(f"byte {raw[exc.start]:#04x} is not valid UTF-8", line) from None


def _csv_cells(text: str) -> tuple:
    """Scan CSV text into one flat cell list, each row as wide as the header.

    Returns (header, cells, lines, error): lines holds each row's start line
    (a quoted field may carry a row over several lines). A narrower row
    whose only cell is blank, such as an empty line, is skipped. Any other
    ragged row or a csv.Error past the header ends the scan as error, not
    raised, so the caller can first name a bad cell above it.
    """
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    header, cells, lines, line, error = None, [], [], 1, None
    try:
        header = next(reader, None)
        line = reader.line_num + 1  # where the next record starts
        for row in reader:  # the rows die here: keeping them as lists wakes the collector
            if len(row) == len(header):
                cells += row
                lines.append(line)
            elif len(row) > 1 or row and row[0].strip():
                error = MalformedInputError(f"expected {len(header)} columns, got {len(row)}", line)
                break
            line = reader.line_num + 1
    except csv.Error as exc:
        error = MalformedInputError(str(exc), line)
    if header is None:
        raise error or MalformedInputError("missing header row", 1)
    return header, cells, lines, error


def _parse_id(text: str, what: str, line: int) -> int:
    """An id in ASCII digits; int() alone reads "1_0" as 10 and non-ASCII digits."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise MalformedInputError(f"{what} {text!r} is not an integer", line)


_PLAIN_HEADER = ",".join(VOTES_CSV_HEADER) + "\n"
# What csv.reader or str.strip reads specially: the quote, NUL, ASCII whitespace but LF.
_NOT_PLAIN = bytes(b for b in range(128) if chr(b).isspace() and b != 10) + b'"\0'
_PLAIN_VOTE = [("task", "O"), ("worker", "O"), ("item", "i8"), ("label", "O")]


def _plain_columns(text: str):
    """Parse a plain votes CSV in C; None for any other text, or one loadtxt rejects.

    Plain text is ASCII with the exact header, LF line ends, no byte of _NOT_PLAIN and
    no line over the csv field limit: csv.reader plus strip would give the same cells.
    """
    raw = text.encode("ascii", "ignore")  # shorter than text if any character is not ASCII
    breaks = np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)
    lengths = np.diff(breaks, prepend=-1, append=len(raw)) - 1  # of each line
    if (len(raw.translate(None, _NOT_PLAIN)) < len(text) or not text.startswith(_PLAIN_HEADER)
            or lengths.max() > csv.field_size_limit() or not lengths[1:].any()):
        return None  # not plain, or no row after the header, on which loadtxt would warn
    try:  # a ragged row, or an item_id that is no int64 (an older numpy reads "1.9" as 1, warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            votes = np.loadtxt(io.StringIO(text), delimiter=",", dtype=_PLAIN_VOTE, skiprows=1,
                               comments=None, quotechar=None, ndmin=1)
    except (ValueError, DeprecationWarning):
        return None
    labels = votes["label"]
    if not {*labels} <= {"0", "1"}:
        return None
    return votes["item"].copy(), labels == "1", tuple(votes["worker"]), tuple(votes["task"])


def _vote_cells(cells: list[str], lines: list[int]) -> tuple:
    """The four columns of a flat cell list, checked at once; a failed check names its line."""
    tasks, workers, items, labels = (tuple(map(str.strip, cells[k::4])) for k in range(4))
    joined = "".join(items)
    if joined.isascii() and "_" not in joined and {*labels} <= {"0", "1"}:
        try:
            return list(map(int, items)), [label == "1" for label in labels], workers, tasks
        except ValueError:
            pass
    for item, label, line in zip(items, labels, lines):  # raises at the first bad vote
        _parse_id(item, "item_id", line)
        if label not in ("0", "1"):
            raise MalformedInputError(f"label {label!r} must be 0 or 1", line)


def _vote_rows(text: str) -> tuple:
    """Scan a votes CSV row by row; raises naming the first bad line.

    Returns (item_ids, dirty, worker_ids, task_ids, lines), lines holding each vote's line.
    """
    header, cells, lines, error = _csv_cells(text)
    if [h.strip() for h in header] != VOTES_CSV_HEADER:
        raise MalformedInputError(f"header must be {','.join(VOTES_CSV_HEADER)}", 1)
    columns = _vote_cells(cells, lines)  # a bad cell above the error's line is named first
    if error:
        raise error
    return *columns, lines


def read_votes_csv(path, item_count: int) -> VoteLog:
    """Load a vote log from CSV (header task_id,worker_id,item_id,label).

    Row order is arrival order; rows must be grouped by task. The item
    universe size is supplied out of band. A plain file is parsed in C,
    any other row by row; an error names its line either way.
    """
    text = _read_text(path)
    columns = _plain_columns(text.replace("\r\n", "\n")) or _vote_rows(text)
    try:
        return VoteLog(*columns[:4], item_count)
    except MalformedInputError as exc:  # the log contract: the row scan names the vote's line
        raise MalformedInputError(str(exc), _vote_rows(text)[4][exc.position]) from None


def write_votes_csv(log: VoteLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VOTES_CSV_HEADER)
        labels = log.dirty.astype(int).tolist()
        writer.writerows(zip(log.task_ids, log.worker_ids, log.item_ids.tolist(), labels))


def read_truth_csv(path, item_count: int) -> frozenset[int]:
    """Load the true-dirty item set, one item_id per line; a failed check walks the lines."""
    text = _read_text(path).replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")  # not splitlines: that also ends lines at \x0c and others
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
