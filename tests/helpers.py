"""Shared log builders and independent oracles for the test suite.

The oracles here deliberately re-derive quantities from first
principles (direct double sums, label state machines, full-matrix edit
distance) so they stay independent of the implementation paths they
check.
"""

from collections import Counter

from hypothesis import strategies as st
import numpy as np

from errest.core import FStatistics, VoteLog

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
