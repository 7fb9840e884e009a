"""Shared log builders and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first
principles (direct double sums, label state machines, full-matrix edit
distance) so they stay independent of the implementation paths they
check.
"""

from collections import Counter
import csv
import math

from hypothesis import strategies as st
import numpy as np

from errest.core import FStatistics, MalformedInputError, VoteLog, error_fstats, tally
from errest.estimators import LOW_COVERAGE, EstimatorOutput, InsufficientDataError
from errest.estimators import chao92, majority, nominal, vchao92
from errest.pairs import RecordTable
from errest.switch import Direction, Trend, d_switch, replay_switches, switch_fstats
from errest.switch import switch_total_errors
from errest.trajectory import TrajectoryRow

D, C = True, False  # a vote's `dirty` value


def make_log(task_votes, item_count):
    """Build a VoteLog from [[(item, dirty), ...] per task]."""
    votes = [
        (item, dirty, f"w{k}", str(k)) for k, task in enumerate(task_votes) for item, dirty in task
    ]
    item_ids, dirty, worker_ids, task_ids = zip(*votes) if votes else ((),) * 4
    return VoteLog(item_ids, dirty, worker_ids, task_ids, item_count)


def dirty_mask(truth):
    """Boolean mask over the universe of a GroundTruth's planted dirty items."""
    mask = np.zeros(truth.n_items, dtype=bool)
    mask[list(truth.dirty_set)] = True
    return mask


def log_votes(log, upto=None):
    """The (item_id, dirty) pairs of the prefix [0:upto), as Python values."""
    return list(zip(log.item_ids[:upto].tolist(), log.dirty[:upto].tolist()))


def append_task(log, votes):
    """The log with one more task: the (item, dirty) votes of one new worker."""
    k = log.task_count
    items, dirty = zip(*votes)
    return VoteLog(
        log.item_ids.tolist() + list(items),
        log.dirty.tolist() + list(dirty),
        log.worker_ids + (f"appended-w{k}",) * len(votes),
        log.task_ids + (f"appended-t{k}",) * len(votes),
        log.item_count,
    )


def event_labels(stats, item_count):
    """Per-item consensus labels: the direction of the latest event, clean before the first."""
    labels = [False] * item_count
    for e in stats.events:
        labels[e.item_id] = e.direction is Direction.POSITIVE
    return labels


def confirming_round(log, replay):
    """One vote per item that backs the consensus of a replay advanced to the log's end."""
    t, labels = tally(log), event_labels(replay.snapshot(), log.item_count)
    return [
        (item, bool(pos > neg or (pos == neg and labels[item])))
        for item, (pos, neg) in enumerate(zip(t.pos.tolist(), t.neg.tolist()))
    ]


def single_item_log(labels, item_count=1, item=0):
    """One vote per task on a single item, in the given label order."""
    return make_log([[(item, lab)] for lab in labels], item_count=item_count)


def random_log(rng, max_items=8, max_votes_per_item=8, p_dirty=0.5):
    """A random well-formed log: every vote is its own task."""
    n_items = int(rng.integers(1, max_items + 1))
    per_item = [int(rng.integers(0, max_votes_per_item + 1)) for _ in range(n_items)]
    slots = [i for i, k in enumerate(per_item) for _ in range(k)]
    rng.shuffle(slots)
    tasks = [
        [(item, D if rng.random() < p_dirty else C)]
        for item in slots
    ]
    return make_log(tasks, item_count=n_items)


@st.composite
def vote_logs(draw, max_items=6, max_tasks=12, max_task_size=3):
    """Hypothesis strategy: a well-formed log of tasks of distinct items."""
    n_items = draw(st.integers(1, max_items))
    vote = st.tuples(st.integers(0, n_items - 1), st.sampled_from([D, C]))
    task = st.lists(vote, min_size=1, max_size=max_task_size, unique_by=lambda v: v[0])
    return make_log(draw(st.lists(task, max_size=max_tasks)), item_count=n_items)


@st.composite
def broken_columns(draw):
    """Columns of a vote_logs() log with up to four injected contract violations.

    Returns (item_ids, worker_ids, task_ids, item_count). Each injection
    picks a vote and, in any combination, puts its id outside the
    universe (negative, or beyond int64), gives it an earlier vote's
    worker-item pair, or gives it an earlier vote's task.
    """
    log = draw(vote_logs())
    items, workers, tasks = log.item_ids.tolist(), list(log.worker_ids), list(log.task_ids)
    kinds = st.sets(st.sampled_from(["universe", "duplicate", "split"]), min_size=1)
    spots = st.lists(st.tuples(st.integers(0, len(items) - 1), kinds), max_size=4)
    for k, chosen in draw(spots) if items else ():
        j = draw(st.integers(0, k))
        if "duplicate" in chosen:
            items[k], workers[k] = items[j], workers[j]
        if "split" in chosen:
            tasks[k] = tasks[j]
        if "universe" in chosen:
            items[k] = draw(st.sampled_from([-1, -(2**70), log.item_count, 2**63, 10**22]))
    return items, tuple(workers), tuple(tasks), log.item_count


def contract_violation(item_ids, worker_ids, task_ids, item_count):
    """The vote-log contract checked one vote at a time, with two sets.

    Returns the (message, position) of the first violation in arrival
    order, checking universe, then duplicate pair, then split task at each
    vote; None for a valid log.
    """
    seen_pairs = set()
    seen_tasks = set()
    prev_task = None
    for idx, (item_id, worker_id, task_id) in enumerate(zip(item_ids, worker_ids, task_ids)):
        if not 0 <= item_id < item_count:
            return f"item_id {item_id} outside universe [0, {item_count})", idx
        pair = (item_id, worker_id)
        if pair in seen_pairs:
            return f"worker {worker_id!r} votes twice on item {item_id}", idx
        seen_pairs.add(pair)
        if task_id != prev_task:
            if task_id in seen_tasks:
                return f"task {task_id!r} is split into non-contiguous blocks", idx
            seen_tasks.add(task_id)
            prev_task = task_id
    return None


def task_blocks(task_ids):
    """(task_id, start, end) runs of equal task ids, end exclusive."""
    blocks = []
    start = 0
    for idx in range(1, len(task_ids) + 1):
        if idx == len(task_ids) or task_ids[idx] != task_ids[start]:
            blocks.append((task_ids[start], start, idx))
            start = idx
    return blocks


VOTES_HEADER = ["task_id", "worker_id", "item_id", "label"]


def _oracle_id(text, what, line):
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    raise MalformedInputError(f"{what} {text!r} is not an integer", line)


def parse_votes_oracle(path):
    """A votes CSV parsed one row at a time, tracking each record's first line.

    Returns (item_ids, dirty, worker_ids, task_ids, lines), lines holding
    each vote's source line, or raises MalformedInputError naming the line
    of the first malformed header, row or CSV record. Checks only the row
    format; VoteLog checks the log contract.
    """
    parsed = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True)
        header = None
        while True:
            line = reader.line_num + 1  # a quoted field may carry a record over lines
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise MalformedInputError(str(exc), line) from None
            if header is None:
                header = row
                if [h.strip() for h in header] != VOTES_HEADER:
                    raise MalformedInputError(f"header must be {','.join(VOTES_HEADER)}", 1)
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise MalformedInputError(f"expected 4 columns, got {len(row)}", line)
            task_id, worker_id, item_s, label_s = (col.strip() for col in row)
            item_id = _oracle_id(item_s, "item_id", line)
            if label_s not in ("0", "1"):
                raise MalformedInputError(f"label {label_s!r} must be 0 or 1", line)
            parsed.append((item_id, label_s == "1", worker_id, task_id, line))
    if header is None:
        raise MalformedInputError("missing header row", 1)
    return tuple(zip(*parsed)) if parsed else ((),) * 5


def read_truth_oracle(path, item_count):
    """A truth file read one line at a time, naming the first bad line."""
    items = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text:
                continue
            item_id = _oracle_id(text, "truth entry", line_no)
            if not 0 <= item_id < item_count:
                message = f"truth item {item_id} outside universe [0, {item_count})"
                raise MalformedInputError(message, line_no)
            items.add(item_id)
    return frozenset(items)


def read_records_oracle(path):
    """A records CSV read one record at a time, tracking each record's first line.

    Returns the RecordTable, or raises MalformedInputError naming the line
    of the first malformed header, row or CSV record, or of the first
    repeated record_id. An empty line is skipped, and so is a row whose only
    cell is blank, unless the header has one column: there that row is a
    record with an empty id.
    """
    ids, fields, lines = [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        header = None
        while True:
            line = reader.line_num + 1  # a quoted field may carry a record over lines
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise MalformedInputError(str(exc), line) from None
            if header is None:
                header = row
                if not header or header[0].strip() != "record_id":
                    raise MalformedInputError("first column must be record_id", 1)
                continue
            if not row or len(row) == 1 < len(header) and not row[0].strip():
                continue
            if len(row) != len(header):
                raise MalformedInputError(f"expected {len(header)} columns, got {len(row)}", line)
            rid = row[0].strip()
            if not rid:
                raise MalformedInputError("empty record_id", line)
            ids.append(rid)
            fields.append(tuple(row[1:]))
            lines.append(line)
    if header is None:
        raise MalformedInputError("missing header row", 1)
    try:
        return RecordTable(ids=tuple(ids), fields=tuple(fields))
    except MalformedInputError as exc:
        raise MalformedInputError(str(exc), lines[exc.position]) from None


_ODD_IDS = ["1_0", "0_2", "\u0661", "\uff11", "-1", "+1", "x", "", "1 2", "10" * 12, str(10**22)]


@st.composite
def votes_csv_texts(draw, item_count=4):
    """Hypothesis strategy: votes CSV text, mostly well formed.

    Rows may be blank, padded or carry a multi-line quoted id. Up to two
    odd rows are inserted: ragged, a bad label, an odd id (1_0, non-ASCII
    or negative digits, a huge number) or a malformed quote. Few tasks,
    workers and items, so duplicate votes and split tasks are common.
    """
    pad = st.sampled_from(["{}", "{}", " {} ", "{}\t", "\x0c{}"])
    task = st.sampled_from(["t0", "t1", "t2", '"t\n3"'])
    worker = st.sampled_from(["w0", "w1", "w2", "w3", "w4", '"w\n\n5"'])
    item = st.integers(0, item_count - 1).map(str)
    vote = st.tuples(task, worker, item, st.sampled_from(["0", "1"]))
    blank = st.sampled_from([(), ("",), ("  ",)])
    odd = st.one_of(
        st.tuples(task, worker, st.integers(-2, 9).map(str) | st.sampled_from(_ODD_IDS),
                  st.sampled_from(["0", "1"])),
        st.tuples(task, worker, item, st.sampled_from(["2", "", "yes", "01"])),
        st.lists(st.sampled_from(["t0", "w0", "1", '"a\nb"']), min_size=1, max_size=6),
        st.just(('"a"b', "w0", "0", "1")),
    )
    rows = draw(st.lists(st.one_of(vote, vote, vote, blank), max_size=10))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    odd_header = [[" task_id", "worker_id ", "item_id", "label"], ["task_id", "worker"], []]
    rows.insert(0, draw(st.sampled_from([VOTES_HEADER] * 8 + odd_header)))

    def cell(text):  # a quoted field is left unpadded: text after its closing quote is an error
        return text if text.startswith('"') else draw(pad).format(text)

    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(",".join(map(cell, row)) for row in rows)
    return text + draw(st.sampled_from(["", ending, ending, '"open']))


# Ids that int() and numpy's int64 reader may disagree on: signs, leading zeros,
# the int64 edge (19 digits) and beyond it (19 and 20 digits), hex, floats, empty.
_PLAIN_ODD_IDS = ["+1", "-0", "007", str(2**63 - 1), str(10**18), str(2**63), str(10**19),
                  "0x1", "1e0", "1.", ""]


@st.composite
def plain_votes_csv_texts(draw, item_count=8):
    """Hypothesis strategy: unpadded ASCII votes CSV text with LF line ends.

    The header is exact and no cell is quoted, so the text is plain in the
    reader's sense; up to two odd rows test what loadtxt accepts: an odd
    id, a label 01, 2 or empty, a ragged row or a trailing comma. Rows may
    be blank, the file may end without a newline or hold only the header.
    """
    task = st.sampled_from(["t0", "t1", "#t2", ""])  # "#" is no comment
    worker = st.sampled_from(["w0", "w1", "w2", "'w3'"])
    item = st.integers(0, item_count - 1).map(str)
    label = st.sampled_from(["0", "1"])
    vote = st.tuples(task, worker, item, label)
    odd = st.one_of(
        st.tuples(task, worker, st.sampled_from(_PLAIN_ODD_IDS), label),
        st.tuples(task, worker, item, st.sampled_from(["01", "2", ""])),
        st.lists(st.sampled_from(["t0", "w0", "1", ""]), min_size=1, max_size=6),
        vote.map(lambda row: (*row, "")),
    )
    rows = draw(st.lists(st.one_of(vote, vote, vote, st.just(())), max_size=10))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    text = "\n".join(",".join(row) for row in [VOTES_HEADER, *rows])
    return text + draw(st.sampled_from(["\n", "\n", ""]))


@st.composite
def records_csv_texts(draw):
    """Hypothesis strategy: records CSV text, mostly well formed.

    The header has one to three columns. Rows may be blank or hold only
    whitespace, repeat a record_id and carry quoted fields over several
    lines; up to two odd rows are ragged, have an empty record_id or hold
    a malformed quote. The text may start with a byte-order mark, end its
    lines with CRLF and end inside an open quote.
    """
    header = ["record_id", "name", "city"][:draw(st.sampled_from([1, 2, 2, 3]))]
    rid = st.sampled_from(["a", "b", "c", "d", "e", " a ", '"f\ng"', '"b"'])
    cell = st.sampled_from(["x", "", " y ", '"p\nq"', '"r, s"', '"r""s"'])
    record = st.tuples(rid, *[cell] * (len(header) - 1))
    blank = st.sampled_from([(), (" ",), ("\t",)])
    odd = st.one_of(
        st.tuples(st.sampled_from(["", " ", '""']), *[cell] * (len(header) - 1)),
        st.lists(cell, min_size=1, max_size=4),
        st.just(('"a"b', "x")),
    )
    rows = draw(st.lists(st.one_of(record, record, record, blank), max_size=8))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd))
    odd_header = [["id", *header[1:]], [" record_id ", *header[1:]], []]
    rows.insert(0, draw(st.sampled_from([header] * 12 + odd_header)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "", "\ufeff"])) + ending.join(map(",".join, rows))
    return text + draw(st.sampled_from(["", ending, ending, '"open']))


@st.composite
def truth_texts(draw, item_count=6):
    r"""Hypothesis strategy: truth file text, with odd entries and line ends.

    Lines are joined by \n, \r\n or \r and may carry \x0c, padding,
    out-of-universe ids and the odd ids of votes_csv_texts.
    """
    entry = st.one_of(
        st.integers(0, item_count - 1).map(str), st.integers(0, item_count - 1).map(str),
        st.integers(-1, item_count + 2).map(str), st.sampled_from(_ODD_IDS),
        st.sampled_from(["", " ", "\x0c", "\t"]),
    )
    pad = st.sampled_from(["{}", " {} ", "{}\x0c", "\x0c{}", "{}\x0b"])
    lines = draw(st.lists(st.tuples(entry, pad), max_size=12))
    text = ""
    for e, p in lines:
        text += p.format(e) + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return text + draw(st.sampled_from(["", "3", "\x0c"]))


def counter_fstats(t):
    """Discovery fingerprint of a tally, counted one item at a time."""
    counts = t.pos[t.pos > 0]
    freq = Counter(int(x) for x in counts)
    return FStatistics(freq=freq, n=int(t.pos.sum()))


def brute_force_tally(log, upto):
    """Naive re-scan of the prefix: dict item -> [pos, neg]."""
    counts = {i: [0, 0] for i in range(log.item_count)}
    for item, dirty in log_votes(log, upto):
        counts[item][0 if dirty else 1] += 1
    return counts


def eq7_switch_count(log, upto=None):
    """Direct evaluation of the tie-plus-first-positive double sum."""
    upto = len(log) if upto is None else upto
    per_item = {}
    for item, dirty in log_votes(log, upto):
        per_item.setdefault(item, []).append(dirty)
    total = 0
    for labels in per_item.values():
        pos = neg = 0
        for j, is_dirty in enumerate(labels, 1):
            pos += is_dirty
            neg += not is_dirty
            if j == 1:
                total += is_dirty
            elif pos == neg:
                total += 1
    return total


def consensus_oracle(log, upto=None):
    """Vote-by-vote label state machine, independent of SwitchReplay.

    Returns (events, final_labels, n_switch) where events are
    (item, direction_is_positive, multiplicity) in creation order.
    The label starts clean, flips on a first dirty vote or a tie, and
    holds between flips.
    """
    upto = len(log) if upto is None else upto
    pos = {}
    neg = {}
    label = {}
    events = []  # [item, positive, multiplicity]
    latest = {}
    noops = 0
    total = 0
    for i, dirty in log_votes(log, upto):
        pos.setdefault(i, 0)
        neg.setdefault(i, 0)
        label.setdefault(i, False)
        if dirty:
            pos[i] += 1
        else:
            neg[i] += 1
        total += 1
        first_dirty = pos[i] + neg[i] == 1 and dirty
        tie = pos[i] == neg[i] and pos[i] > 0
        if first_dirty or tie:
            label[i] = not label[i]
            events.append([i, label[i], 1])
            latest[i] = len(events) - 1
        elif i in latest:
            events[latest[i]][2] += 1
        else:
            noops += 1
    return (
        [(i, positive, mult) for i, positive, mult in events],
        label,
        total - noops,
    )


def chao_form_oracle(c, f, skew, universe):
    """The coverage form c/C + f1*cv2/C in Python scalars, one branch at a time."""

    def coverage(g):
        return 1.0 if g.n == 0 else min(max(1.0 - g.f1 / g.n, 0.0), 1.0)

    cover = coverage(f)
    if cover == 0.0:
        total = float(universe) if universe is not None else math.inf
        return EstimatorOutput(total, max(total - c, 0.0), 0.0, 0.0, flags=(LOW_COVERAGE,))
    skew_cover = coverage(skew)
    gamma2 = 0.0
    if skew_cover > 0 and skew.n >= 2:
        ssum = sum(j * (j - 1) * fj for j, fj in skew.freq.items())
        gamma2 = max(skew.c / skew_cover * ssum / (skew.n * (skew.n - 1)) - 1.0, 0.0)
    total = c / cover + f.f1 * gamma2 / cover
    return EstimatorOutput(total, max(total - c, 0.0), cover, gamma2)


def vchao92_oracle(f, c_majority, shift, universe):
    """vchao92 on a shifted FStatistics, or None where the shift leaves no sample."""
    n_shifted = f.n - sum(fj for j, fj in f.freq.items() if j <= shift)
    if n_shifted <= 0:
        return None
    shifted = FStatistics({j - shift: fj for j, fj in f.freq.items() if j > shift}, n_shifted)
    return chao_form_oracle(c_majority, shifted, f, universe)


def trend_from_history(history, window):
    """Sign of the majority-count change over the last `window` tasks.

    Before the log starts the majority count is zero, so early prefixes
    compare against zero.
    """
    now = history[-1]
    ref_index = len(history) - 1 - window
    ref = history[ref_index] if ref_index >= 0 else 0
    if now > ref:
        return Trend.INCREASING
    if now < ref:
        return Trend.DECREASING
    return Trend.FLAT


def trajectory_oracle(log, shift, trend_window, truth=None):
    """The trajectory recomputed from scratch at every task's end with the scalar estimators.

    Truth switches are counted against the planted mask; None and flags
    follow evaluate_trajectory's conventions.
    """
    n = log.item_count
    history = []
    rows = []
    for task_index, (_, _, end) in enumerate(log.tasks):
        t = tally(log, end)
        f = error_fstats(log, end)
        stats = replay_switches(log, end)
        m = majority(t)
        history.append(m)
        chao = chao92(f, universe=n)
        try:
            vest = vchao92(f, m, shift=shift, universe=n)
            vchao_total, vchao_flags = vest.total_errors_hat, vest.flags
        except InsufficientDataError:
            vchao_total, vchao_flags = None, ("insufficient-data",)
        xi_pos = d_switch(switch_fstats(stats, Direction.POSITIVE), n)
        xi_neg = d_switch(switch_fstats(stats, Direction.NEGATIVE), n)
        trend = trend_from_history(history, trend_window)
        total = switch_total_errors(m, xi_pos.remaining_hat, xi_neg.remaining_hat, trend, n)
        flags = [f"chao92_total:{marker}" for marker in chao.flags]
        flags += [f"vchao92_total:{marker}" for marker in vchao_flags]
        flags += [f"xi_pos:{marker}" for marker in xi_pos.flags]
        flags += [f"xi_neg:{marker}" for marker in xi_neg.flags]
        truth_count = truth_xi_pos = truth_xi_neg = None
        if truth is not None:
            consensus = t.pos > t.neg
            dirty = dirty_mask(truth)
            truth_count = len(truth.dirty_set)
            truth_xi_pos = int((dirty & ~consensus).sum())
            truth_xi_neg = int((~dirty & consensus).sum())
        rows.append(TrajectoryRow(
            task_index, nominal(t), m, chao.total_errors_hat, vchao_total, total,
            xi_pos.remaining_hat, xi_neg.remaining_hat, chao.coverage_hat, truth_count,
            tuple(flags), truth_xi_pos, truth_xi_neg,
        ))
    return rows


def edit_distance_oracle(a, b):
    """Full-matrix Levenshtein, the textbook way."""
    rows = len(a) + 1
    cols = len(b) + 1
    dist = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        dist[i][0] = i
    for j in range(cols):
        dist[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j] + 1, dist[i][j - 1] + 1, dist[i - 1][j - 1] + cost
            )
    return dist[-1][-1]
