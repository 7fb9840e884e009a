"""Vote-log data model, prefix tallies, and frequency fingerprints.

A cleaning pass is an ordered stream of worker votes over a fixed item
universe of size N. Every estimator in this package consumes one of two
summaries of a log prefix: the per-item tally of dirty/clean votes, or
the frequency-of-frequencies fingerprint (how many items were marked
dirty exactly once, exactly twice, ...).
"""

import csv
import io
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import Iterator, Mapping, Sequence

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

    Vote k is (item_ids[k], dirty[k], worker_names[worker_codes[k]],
    task_names[task_codes[k]]); its position k is its arrival index. Votes
    of one task are contiguous (tasks arrive whole), and a worker votes at
    most once per item. Codes index distinct names; read and simulated logs
    number them in order of first appearance.
    """

    item_ids: np.ndarray
    dirty: np.ndarray
    worker_codes: np.ndarray
    task_codes: np.ndarray
    worker_names: tuple[str, ...]
    task_names: tuple[str, ...]
    item_count: int

    # Task blocks as (task_id, start, end) positions with end exclusive.
    tasks: tuple[tuple[str, int, int], ...] = field(init=False, repr=False)

    @classmethod
    def from_ids(cls, item_ids, dirty, worker_ids: Sequence[str], task_ids: Sequence[str],
                 item_count: int) -> "VoteLog":
        """A log from one str worker and task id per vote, coded in order of first appearance."""
        codes, names = [], []
        for ids in (worker_ids, task_ids):
            names.append((*dict.fromkeys(ids),))
            index = dict(zip(names[-1], range(len(names[-1]))))
            codes.append(np.fromiter(map(index.__getitem__, ids), np.int64, count=len(ids)))
        return cls(item_ids, dirty, *codes, *names, item_count)

    def __post_init__(self):
        columns = (self.item_ids, self.dirty, self.worker_codes, self.task_codes)
        if len({len(col) for col in columns}) > 1:
            raise ValueError("vote-log columns must have equal length")
        codes = np.asarray(self.worker_codes, np.int64), np.asarray(self.task_codes, np.int64)
        for code, names in zip(codes, (self.worker_names, self.task_names)):
            if ((code < 0) | (code >= len(names))).any() or len(set(names)) < len(names):
                raise ValueError("vote-log codes must index distinct names")
        # Ids are int64: check the raw ids exactly before the cast (an int past int64 may make
        # numpy round all to float64). Later checks see only the votes before the first outside.
        raw = np.asarray(self.item_ids)
        raw = raw if raw.dtype.kind in "iu" else np.asarray(self.item_ids, dtype=object)
        outside = np.flatnonzero((raw < 0) | (raw > min(self.item_count, 2**63) - 1))
        end = int(outside[0]) if len(outside) else len(raw)
        items = np.asarray(raw[:end], dtype=np.int64)
        workers, task_codes = codes[0][:end], codes[1][:end]
        pairs = _packable(items, len(self.worker_names)) * len(self.worker_names) + workers
        order = _stable_order(pairs)[0]  # stable: a pair's votes stay in arrival order
        repeats = order[1:][np.diff(pairs[order]) == 0]
        starts = np.flatnonzero(np.diff(task_codes, prepend=-1))
        later = np.ones(len(starts), dtype=bool)  # a block whose code an earlier block has
        later[np.unique(task_codes[starts], return_index=True)[1]] = False
        dup, split = int(repeats.min(initial=end)), int(starts[later].min(initial=end))
        if dup < end and dup <= split:
            message = f"worker {self.worker_names[workers[dup]]!r} votes twice on item {items[dup]}"
            raise MalformedInputError(message, position=dup)
        if split < end:
            task = self.task_names[task_codes[split]]
            message = f"task {task!r} is split into non-contiguous blocks"
            raise MalformedInputError(message, position=split)
        if end < len(raw):
            raise MalformedInputError(_outside("item_id", raw[end], self.item_count), position=end)
        bounds = starts.tolist() + [end]
        names = map(self.task_names.__getitem__, task_codes[starts].tolist())
        object.__setattr__(self, "tasks", tuple(zip(names, bounds, bounds[1:])))
        object.__setattr__(self, "item_ids", items)
        object.__setattr__(self, "dirty", np.asarray(self.dirty, dtype=bool))
        object.__setattr__(self, "worker_codes", codes[0])
        object.__setattr__(self, "task_codes", codes[1])

    def __len__(self) -> int:
        return len(self.item_ids)

    @property
    def task_count(self) -> int:
        return len(self.tasks)


def _outside(what: str, item_id: int, item_count: int) -> str:
    """The message for an id outside [0, item_count), or past int64 inside a larger universe."""
    if item_count > int(item_id) >= 2**63:
        return f"{what} {item_id} outside int64 range [0, 2**63)"
    return f"{what} {item_id} outside universe [0, {item_count})"


def _packable(keys: np.ndarray, scale: int) -> np.ndarray:
    """keys, or their dense ranks (same order and equality) where (max+1)*scale passes int64."""
    if len(keys) and int(keys.max()) >= np.iinfo(np.int64).max // scale:
        return np.unique(keys, return_inverse=True)[1].reshape(-1)
    return keys


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of non-negative int64 keys and its inverse, from one value sort
    of the packed keys key * n + position: they are distinct, so every sort algorithm agrees."""
    here = np.arange(len(keys))
    order = np.sort(_packable(keys, len(keys)) * len(keys) + here) % len(keys)
    back = np.empty_like(order)
    back[order] = here
    return order, back


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
_NOT_PLAIN = "".join(chr(b) for b in range(128) if chr(b).isspace() and b != 10) + '"\0'
# A plain read holds ids and labels as wide as the longest cell of their column. Past this
# many bytes per file byte (one long id widens a whole column), about what the row scan's
# str cells take on short ids, the row scan reads the file instead.
_WIDTH_BUDGET = 32


def _plain_columns(text: str):
    """Parse a plain votes CSV in C; None for any other text, or one loadtxt rejects.

    Plain text is ASCII with the exact header, LF line ends, no character of _NOT_PLAIN,
    no line over the csv field limit: csv.reader plus strip would give the same cells.
    Ids and labels are read as bytes as wide as the longest cell of their column, which
    the separators give; returns the VoteLog columns, ids as codes and names, and each
    vote's line, as _vote_rows does.
    """
    scans = map(text.__contains__, _NOT_PLAIN)  # one scan of text per character, no copy
    if not (text.startswith(_PLAIN_HEADER) and text.isascii()) or any(scans):
        return None
    byte = np.frombuffer(text.encode("ascii"), np.uint8)
    breaks, commas = np.flatnonzero(byte == 10), np.flatnonzero(byte == 44)
    starts, ends = np.append(0, breaks + 1), np.append(breaks, len(byte))  # of each line
    full = ends > starts  # the lines that are not blank, the header first
    rows = np.count_nonzero(full) - 1
    if ((ends - starts).max() > csv.field_size_limit() or not rows
            or len(commas) != 3 * rows + 3):
        return None  # not plain, a ragged row, or no row, on which loadtxt would warn
    # Each row's four cells lie between the line's ends and its three commas.
    left, middle, right = commas.reshape(-1, 3)[1:].T
    cells = (left - starts[full][1:], middle - left - 1, right - middle - 1,
             ends[full][1:] - right - 1)
    widths = [max(int(cell.max()), 1) for cell in cells]  # per column
    lines = np.flatnonzero(full)[1:] + 1
    if rows * (sum(widths) - widths[2] + 8) > _WIDTH_BUDGET * len(byte) or widths[2] > 18:
        return None  # too wide, or an item_id over 18 digits, maybe past int64
    first, last = middle + 1, right - 1  # of each item cell; an empty cell's last is its comma
    del breaks, commas, starts, ends, full, left, middle, right, cells  # freed before the check
    for _ in range(widths[2]):  # one gather per byte position: loadtxt may read "1.9" via a float
        item_bytes = byte[np.minimum(first, last, out=first)]  # clamped, in place, to the last
        if ((item_bytes < 48) | (item_bytes > 57)).any():
            return None
        first += 1
    del byte, first, last, item_bytes  # freed before parsing: one left live raised the peak RSS
    kinds = [("task", f"S{widths[0]}"), ("worker", f"S{widths[1]}"), ("item", "i8"),
             ("label", f"S{widths[3]}")]
    try:
        votes = np.loadtxt(io.StringIO(text), delimiter=",", dtype=kinds, skiprows=1,
                           comments=None, quotechar=None, ndmin=1)
    except ValueError:  # a ragged row
        return None
    dirty = votes["label"] == b"1"
    if not (dirty | (votes["label"] == b"0")).all():
        return None
    codes, names = [], []
    for column in (votes["worker"], votes["task"]):
        unique, first, inverse = np.unique(column, return_index=True, return_inverse=True)
        order, rank = _stable_order(first)  # numbered by first appearance, as from_ids does
        codes.append(rank[inverse])
        names.append(tuple(unique[order].astype(str).tolist()))
    return votes["item"].copy(), dirty, *codes, *names, lines


def _vote_rows(text: str) -> tuple:
    """Scan a votes CSV row by row; raises naming the first bad line.

    Returns (item_ids, dirty, worker_ids, task_ids, lines), lines holding each vote's line.
    Ids and labels are checked a column at a time; a bad cell above a ragged row or a
    csv.Error is named first.
    """
    header, cells, lines, error = _csv_cells(text)
    if [h.strip() for h in header] != VOTES_CSV_HEADER:
        raise MalformedInputError(f"header must be {','.join(VOTES_CSV_HEADER)}", 1)
    tasks, workers, items, labels = (tuple(map(str.strip, cells[k::4])) for k in range(4))
    joined = "".join(items)
    if not error and joined.isascii() and "_" not in joined and {*labels} <= {"0", "1"}:
        try:
            return list(map(int, items)), [label == "1" for label in labels], workers, tasks, lines
        except ValueError:
            pass
    for item, label, line in zip(items, labels, lines):  # raises at the first bad vote
        _parse_id(item, "item_id", line)
        if label not in ("0", "1"):
            raise MalformedInputError(f"label {label!r} must be 0 or 1", line)
    raise error


def read_votes_csv(path, item_count: int) -> VoteLog:
    """Load a vote log from CSV (header task_id,worker_id,item_id,label).

    Row order is arrival order; rows must be grouped by task. The item
    universe size is supplied out of band. A plain file is parsed in C,
    any other row by row; an error names its line either way.
    """
    text = _read_text(path)
    columns, make = _plain_columns(text.replace("\r\n", "\n") if "\r" in text else text), VoteLog
    if columns is None:
        columns, make = _vote_rows(text), VoteLog.from_ids
    *columns, lines = columns
    try:
        return make(*columns, item_count)
    except MalformedInputError as exc:  # the log contract: the vote's line from its reader
        raise MalformedInputError(str(exc), int(lines[exc.position])) from None


def _write_table(path, header: Sequence[str], row_format: str, rows: Iterator[tuple]) -> None:
    """Write a CSV table as UTF-8 with LF line ends to path, or to sys.stdout (left open) for
    "-": the header line unless empty, then one row_format % per block of 4,096 rows."""
    out = nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="", encoding="utf-8")
    with out as fh:
        fh.write(",".join(header) + "\n" if header else "")
        while block := tuple(chain.from_iterable(islice(rows, 4096))):
            fh.write(row_format * (len(block) // row_format.count("%")) % block)


def _csv_quoted(names: Sequence[str]) -> list[str]:
    """Each name as a csv.writer cell; the CRLF terminator makes csv quote a lone CR too."""
    buf = io.StringIO()
    lengths = list(map(csv.writer(buf, lineterminator="\r\n").writerow, zip(names, repeat(""))))
    text = buf.getvalue()  # each name's row is its cell, then ",\r\n"; quoting lengthens it
    return [text[end - n:end - 3] if n - 3 > len(name) else name
            for name, n, end in zip(names, lengths, accumulate(lengths))]


def write_votes_csv(log: VoteLog, path) -> None:
    """Write the log as a plain votes CSV to path, or to stdout for "-"."""
    for kind, names in (("task_id", log.task_names), ("worker_id", log.worker_names)):
        if padded := [name for name in names if name != name.strip()]:  # would not read back
            raise ValueError(f"{kind} {padded[0]!r} has edge whitespace, which readers strip")
    tasks = map(_csv_quoted(log.task_names).__getitem__, log.task_codes.tolist())
    workers = map(_csv_quoted(log.worker_names).__getitem__, log.worker_codes.tolist())
    votes = zip(tasks, workers, log.item_ids.tolist(), log.dirty.astype(int).tolist())
    _write_table(path, VOTES_CSV_HEADER, "%s,%s,%d,%d\n", votes)


def read_truth_csv(path, item_count: int) -> np.ndarray:
    """Load the true-dirty item ids, one a line, as a sorted int64 array without repeats."""
    text = _read_text(path)
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    raw = text.encode("ascii", "ignore")  # shorter than text if any character is not ASCII
    if len(raw) == len(text) and not raw.translate(None, b"0123456789\n"):  # digits and LF alone
        breaks = np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)
        widths = np.diff(breaks, prepend=-1, append=len(raw)) - 1  # of each line
        ids = np.count_nonzero(widths)  # fromstring reads a text without one as [0]
        if ids and widths.max() <= 18:  # so each id fits in int64
            items = np.sort(np.fromstring(raw, np.int64, sep="\n"))
            if len(items) == ids and int(items[-1]) < item_count:
                return items[np.diff(items, prepend=-1) > 0]  # np.unique hashes: slower
    items = set()  # any other text, line by line: the first bad line is named
    for line_no, line in enumerate(text.split("\n"), 1):  # splitlines also ends at \x0c
        entry = line.strip()
        if entry:
            item_id = _parse_id(entry, "truth entry", line_no)
            if not 0 <= item_id < min(item_count, 2**63):
                raise MalformedInputError(_outside("truth item", item_id, item_count), line_no)
            items.add(item_id)
    return np.array(sorted(items), dtype=np.int64)


def write_truth_csv(dirty, path) -> None:
    """Write the item ids (int64 array-like), sorted, one a line to path, or to stdout for "-"."""
    _write_table(path, (), "%d\n", zip(np.sort(np.asarray(dirty, np.int64)).tolist()))
