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
from dataclasses import dataclass
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

    Vote k is (item_ids[k], dirty[k], worker_names[worker_codes[k]]); its position k is its
    arrival index. Task block j is the votes task_bounds[j]:task_bounds[j+1], named
    task_names[j]: a task's votes are contiguous (tasks arrive whole), so a name on two
    blocks splits its task. A worker votes at most once per item. Worker codes index
    distinct names; read and simulated logs number them in order of first appearance.
    """

    item_ids: np.ndarray
    dirty: np.ndarray
    worker_codes: np.ndarray
    task_bounds: np.ndarray  # int64, rising strictly from 0 to len(item_ids): [0] for no vote
    worker_names: tuple[str, ...]
    task_names: tuple[str, ...]
    item_count: int

    @classmethod
    def from_ids(cls, item_ids, dirty, worker_ids: Sequence[str], task_ids: Sequence[str],
                 item_count: int) -> "VoteLog":
        """A log from one str worker and task id per vote; a run of equal task ids is a block."""
        names = (*dict.fromkeys(worker_ids),)
        index = dict(zip(names, range(len(names))))
        codes = np.fromiter(map(index.__getitem__, worker_ids), np.int64, count=len(worker_ids))
        heads = [k for k, (now, was) in enumerate(zip(task_ids, [None, *task_ids])) if now != was]
        return cls(item_ids, dirty, codes, np.array([*heads, len(task_ids)], np.int64), names,
                   tuple(map(task_ids.__getitem__, heads)), item_count)

    def __post_init__(self):
        if len({len(col) for col in (self.item_ids, self.dirty, self.worker_codes)}) > 1:
            raise ValueError("vote-log columns must have equal length")
        raw, codes, bounds = map(_integers, (self.item_ids, self.worker_codes, self.task_bounds))
        if ((codes < 0) | (codes >= len(self.worker_names))).any() or len(
                set(self.worker_names)) < len(self.worker_names):
            raise ValueError("vote-log codes must index distinct names")
        if bounds.shape != (len(self.task_names) + 1,) or bounds[0] != 0 or (
                bounds[-1] != len(raw) or (bounds[1:] <= bounds[:-1]).any()):
            raise ValueError("vote-log task_bounds must be len(task_names) + 1 integers "
                             "rising strictly from 0 to len(item_ids)")
        # The raw ids are checked before the int64 cast, later checks only up to the first outside.
        outside = np.flatnonzero((raw < 0) | (raw > min(self.item_count, 2**63) - 1))
        end = int(outside[0]) if len(outside) else len(raw)
        items, workers = np.asarray(raw[:end], np.int64), np.asarray(codes[:end], np.int64)
        pairs = _packable(items, len(self.worker_names)) * len(self.worker_names) + workers
        order = _stable_order(pairs)[0]  # stable: a pair's votes stay in arrival order
        repeats = order[1:][np.diff(pairs[order]) == 0]
        names, block, first = self.task_names, -1, {}  # block: the first to repeat a name
        if len(set(names)) < len(names):  # a repeated name splits its task at the later block
            block = next(k for k, name in enumerate(names) if first.setdefault(name, k) < k)
        dup, split = int(repeats.min(initial=end)), min(int(bounds[block]), end)
        if dup < end and dup <= split:
            message = f"worker {self.worker_names[workers[dup]]!r} votes twice on item {items[dup]}"
            raise MalformedInputError(message, position=dup)
        if split < end:
            message = f"task {names[block]!r} is split into non-contiguous blocks"
            raise MalformedInputError(message, position=split)
        if end < len(raw):
            raise MalformedInputError(_outside("item_id", raw[end], self.item_count), position=end)
        object.__setattr__(self, "item_ids", items)
        object.__setattr__(self, "dirty", np.asarray(self.dirty, dtype=bool))
        object.__setattr__(self, "worker_codes", np.asarray(codes, np.int64))
        object.__setattr__(self, "task_bounds", np.asarray(bounds, np.int64))

    def __len__(self) -> int:
        return len(self.item_ids)

    @property
    def task_count(self) -> int:
        return len(self.task_names)


def _integers(values) -> np.ndarray:
    """values as an int array, object for ints past int64; ValueError for float or bool values."""
    array = np.asarray(values)
    array = array if array.dtype.kind in "iu" else np.asarray(values, dtype=object)
    if array.dtype == object and not all(type(v) is int for v in array.flat):  # bool is no int
        raise ValueError("vote-log item_ids, worker_codes and task_bounds must be integers")
    return array


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
    of the packed keys key * 2**s + position, 2**s > n: they are distinct, so every sort
    algorithm agrees, and a mask takes the positions back."""
    here, shift = np.arange(len(keys)), len(keys).bit_length()
    order = np.sort(_packable(keys, 1 << shift) << shift | here) & ((1 << shift) - 1)
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


def _read_bytes(path) -> bytes:
    """The bytes of a file past any UTF-8 byte-order mark."""
    with open(path, "rb") as fh:
        return fh.read().removeprefix(b"\xef\xbb\xbf")


def _decode(raw: bytes) -> str:
    """The text of UTF-8 bytes; a decode error names its line."""
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


_PLAIN_HEADER = ",".join(VOTES_CSV_HEADER).encode() + b"\n"
# What csv.reader or str.strip reads specially: the quote, NUL, ASCII whitespace but LF.
_NOT_PLAIN = bytes(b for b in range(128) if chr(b).isspace() and b != 10) + b'"\0'
# A plain read holds ids as wide as their column's longest cell, an int64 item and a label
# byte. Past this many bytes per file byte (one long id widens a whole column), about what
# the row scan's str cells take on short ids, the row scan reads the file instead.
_WIDTH_BUDGET = 32


def _plain_columns(raw: bytes):
    """Read a plain votes CSV from its separators alone; None for any other bytes.

    Plain bytes are ASCII with the exact header, LF line ends, no byte of _NOT_PLAIN,
    no line over the csv field limit: csv.reader plus strip would give the same cells.
    Each row must hold three commas, an item_id of 1 to 18 digits and a label 0 or 1.
    Returns the VoteLog columns, each task run one block, and each vote's line, as _vote_rows.
    """
    scans = map(raw.__contains__, _NOT_PLAIN)  # one memchr scan per byte, no copy
    if not (raw.startswith(_PLAIN_HEADER) and raw.isascii()) or any(scans):
        return None
    byte = np.frombuffer(raw, np.uint8)  # a read-only view: nothing writes into it
    breaks, commas = np.flatnonzero(byte == 10), np.flatnonzero(byte == 44)
    starts, ends = np.append(0, breaks + 1), np.append(breaks, len(byte))  # of each line
    full = ends > starts  # the lines that are not blank, the header first
    rows = np.count_nonzero(full) - 1
    if ((ends - starts).max() > csv.field_size_limit() or not rows
            or len(commas) != 3 * rows + 3):
        return None  # not plain, a ragged row, or no row
    # Taken in threes, the commas are each row's own three when every third one lies two bytes
    # before its row's end: the byte between is a label, checked 0 or 1 below, so no comma.
    left, middle, right = commas.reshape(-1, 3)[1:].T
    starts, lines = starts[full][1:], np.flatnonzero(full)[1:] + 1
    if not (right + 2 == ends[full][1:]).all():
        return None
    del breaks, ends, full
    widths = [max(int(c.max()), 1) for c in (left - starts, middle - left - 1, right - middle - 1)]
    label = byte[right + 1] - 48  # uint8, so a byte below "0" wraps past 1, as past 9 below
    if (rows * (widths[0] + widths[1] + 9) > _WIDTH_BUDGET * len(byte) or widths[2] > 18
            or (label > 1).any()):
        return None  # too wide, an item_id over 18 digits, maybe past int64, or a bad label
    items, first, last = np.zeros(rows, np.int64), middle + 1, right - 1  # of each item cell
    for _ in range(widths[2]):  # one gather per byte position; an empty cell's last is its comma
        digit = byte[np.minimum(first, last)] - 48  # clamped to the last byte
        if (digit > 9).any():
            return None
        items = np.where(first <= last, items * 10 + digit, items)
        first += 1
    ids = []
    for first, last, width in ((left + 1, middle, widths[1]), (starts, left, widths[0])):
        matrix, new = np.zeros((rows, width), np.uint8), np.zeros(rows - 1, bool)
        for column in matrix.T:  # one gather per byte position; last is the comma after
            column[:] = byte[np.minimum(first, last)] * (first < last)
            new |= column[1:] != column[:-1]  # a row whose id differs from the row above
            first += 1
        ids.append((matrix.view(f"S{width}").ravel(), np.flatnonzero(np.append(True, new))))
    del byte, commas, starts, left, middle, right, first, last  # freed before np.unique
    (workers, heads), (tasks, blocks) = ids  # the heads of each column's runs of equal ids
    unique, first, inverse = np.unique(workers[heads], return_index=True, return_inverse=True)
    order, rank = _stable_order(first)  # workers numbered by first appearance, as from_ids does
    codes = np.repeat(rank[inverse], np.diff(heads, append=rows))
    names = [tuple(column.astype(str).tolist()) for column in (unique[order], tasks[blocks])]
    return items, label == 1, codes, np.append(blocks, rows), *names, lines


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
    universe size is supplied out of band. A plain file is read from the
    separators of its bytes, any other decoded and read row by row; an error names its line.
    """
    raw = _read_bytes(path)
    columns, make = _plain_columns(raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw), VoteLog
    if columns is None:  # the original bytes, so a quoted CRLF keeps its CR
        columns, make = _vote_rows(_decode(raw)), VoteLog.from_ids
    del raw  # freed before the log is built
    try:
        return make(*columns[:-1], item_count)
    except MalformedInputError as exc:  # the log contract: the vote's line from its reader
        raise MalformedInputError(str(exc), int(columns[-1][exc.position])) from None


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
    tasks = chain.from_iterable(map(repeat, _csv_quoted(log.task_names),
                                    np.diff(log.task_bounds).tolist()))
    workers = map(_csv_quoted(log.worker_names).__getitem__, log.worker_codes.tolist())
    votes = zip(tasks, workers, log.item_ids.tolist(), log.dirty.astype(int).tolist())
    _write_table(path, VOTES_CSV_HEADER, "%s,%s,%d,%d\n", votes)


def read_truth_csv(path, item_count: int) -> np.ndarray:
    """Load the true-dirty item ids, one a line, as a sorted int64 array without repeats."""
    raw = _read_bytes(path)  # no UTF-8 sequence holds a CR, so decode errors keep their line
    raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw
    if not raw.translate(None, b"0123456789\n"):  # digits and LF alone
        breaks = np.flatnonzero(np.frombuffer(raw, np.uint8) == 10)
        widths = np.diff(breaks, prepend=-1, append=len(raw)) - 1  # of each line
        ids = np.count_nonzero(widths)  # fromstring reads a text without one as [0]
        if ids and widths.max() <= 18:  # so each id fits in int64
            items = np.sort(np.fromstring(raw, np.int64, sep="\n"))
            if len(items) == ids and int(items[-1]) < item_count:
                return items[np.diff(items, prepend=-1) > 0]  # np.unique hashes: slower
    items = set()  # any other text, line by line: the first bad line is named
    for line_no, line in enumerate(_decode(raw).split("\n"), 1):  # splitlines ends at \x0c
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
