import re
import tempfile
import tracemalloc
from unittest import mock
from pathlib import Path

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from errest import core
from errest.core import (
    FStatistics,
    MalformedInputError,
    VoteLog,
    TallyState,
    error_fstats,
    fstats_from_tally,
    read_truth_csv,
    read_votes_csv,
    tally,
    write_truth_csv,
    write_votes_csv,
)
from errest.sim import SimScenario, permute_tasks, simulate

from helpers import (
    C,
    D,
    VOTES_HEADER,
    assert_first_appearance_codes,
    assert_task_bounds,
    broken_columns,
    brute_force_tally,
    contract_violation,
    counter_fstats,
    log_votes,
    make_log,
    parse_votes_oracle,
    plain_truth_texts,
    plain_votes_csv_texts,
    pooled_vote_logs,
    random_log,
    read_truth_oracle,
    single_item_log,
    task_blocks,
    task_tuples,
    truth_texts,
    vote_ids,
    vote_logs,
    votes_csv_texts,
    write_rows_oracle,
)

DATA = Path(__file__).parent / "data"


class TestTally:
    def test_empty_log(self):
        log = make_log([], item_count=4)
        t = tally(log, 0)
        assert t.pos.tolist() == [0, 0, 0, 0]
        assert t.neg.tolist() == [0, 0, 0, 0]

    def test_direct_count(self):
        log = single_item_log([D, C, D])
        t = tally(log)
        assert (t.pos[0], t.neg[0]) == (2, 1)

    def test_matches_brute_force_rescan(self):
        rng = np.random.default_rng(11)
        log = make_log(
            [[(int(rng.integers(6)), D if rng.random() < 0.5 else C)] for _ in range(50)],
            item_count=6,
        )
        for upto in range(0, 51, 7):
            t = tally(log, upto)
            expected = brute_force_tally(log, upto)
            for i in range(6):
                assert (t.pos[i], t.neg[i]) == tuple(expected[i])

    def test_prefix_monotone(self):
        rng = np.random.default_rng(2)
        log = random_log(rng, max_items=5)
        prev = tally(log, 0)
        for upto in range(1, len(log) + 1):
            cur = tally(log, upto)
            assert (cur.pos >= prev.pos).all() and (cur.neg >= prev.neg).all()
            prev = cur

    def test_bad_prefix_rejected(self):
        log = single_item_log([D])
        with pytest.raises(MalformedInputError):
            tally(log, 2)


class TestErrorFStats:
    def test_worked_example_statistics(self):
        # 83 marked items over 180 positive votes, 30 of them singletons:
        # realized as 30x1 + 9x2 + 44x3.
        tasks = []
        item = 0
        for count, items in ((1, 30), (2, 9), (3, 44)):
            for _ in range(items):
                for _ in range(count):
                    tasks.append([(item, D)])
                item += 1
        log = make_log(tasks, item_count=100)
        f = error_fstats(log)
        assert f.c == 83 and f.n == 180 and f.f1 == 30
        assert f.freq == {1: 30, 2: 9, 3: 44}

    def test_all_clean_is_empty(self):
        log = make_log([[(0, C)], [(1, C)]], item_count=3)
        f = error_fstats(log)
        assert f.c == 0 and f.n == 0 and f.freq == {}

    def test_small_direct_count(self):
        # positive-vote counts (2, 2, 1)
        log = make_log([[(0, D)], [(0, D)], [(1, D)], [(1, D)], [(2, D)]], item_count=3)
        f = error_fstats(log)
        assert f.freq == {1: 1, 2: 2} and f.c == 3 and f.n == 5

    def test_fingerprint_identities_every_prefix(self):
        rng = np.random.default_rng(5)
        log = random_log(rng, max_items=7)
        for upto in range(len(log) + 1):
            f = error_fstats(log, upto)
            assert sum(f.freq.values()) == f.c
            assert sum(j * fj for j, fj in f.freq.items()) == f.n

    def test_permutation_closure(self):
        rng = np.random.default_rng(9)
        log = random_log(rng, max_items=6)
        full = error_fstats(log)
        order = rng.permutation(len(log))
        votes = log_votes(log)
        shuffled = make_log([[votes[i]] for i in order], item_count=log.item_count)
        assert error_fstats(shuffled) == full


class TestFStatsFromTally:
    """The vectorised fingerprint equals the per-item Counter oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 12), max_size=30))
    def test_matches_counter_on_any_tally(self, pos):
        pos = np.array(pos, dtype=np.int64)
        t = TallyState(pos, np.zeros_like(pos))
        assert fstats_from_tally(t) == counter_fstats(t)

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_matches_counter_at_every_prefix(self, log):
        for upto in range(len(log) + 1):
            t = tally(log, upto)
            assert fstats_from_tally(t) == counter_fstats(t)


def assert_contract_matches_oracle(columns, as_array):
    """VoteLog accepts the columns with contract_violation's task blocks, or raises its
    message at its position."""
    item_ids, worker_ids, task_ids, item_count = columns
    if as_array and all(-(2**63) <= i < 2**63 for i in item_ids):
        item_ids = np.array(item_ids, dtype=np.int64)
    dirty = [D] * len(task_ids)
    expected = contract_violation(item_ids, worker_ids, task_ids, item_count)
    if expected is None:
        log = VoteLog.from_ids(item_ids, dirty, worker_ids, task_ids, item_count)
        assert list(task_tuples(log)) == task_blocks(task_ids)
    else:
        with pytest.raises(MalformedInputError) as exc:
            VoteLog.from_ids(item_ids, dirty, worker_ids, task_ids, item_count)
        assert (str(exc.value), exc.value.position) == expected


class TestStableOrder:
    """core._stable_order: one value sort of packed keys, the stable argsort's order."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.lists(st.integers(0, 5), max_size=40),
                  st.sampled_from([0, 2**40, 2**63 - 6])).map(lambda t: [k + t[1] for k in t[0]]),
        st.lists(st.integers(0, 2**63 - 1), max_size=40)))
    @example([])
    @example([7])
    @example([3] * 9)
    @example([2**63 - 1] * 3)
    @example([2**63 - 1, 0, 2**63 - 2, 0, 2**63 - 1])
    @example([2**62, 2**62 - 1])  # (max + 1) * n is 2**63 + 2: one past int64
    @example([2**61, 2**61 - 1])  # two keys pack in 2 bits, and 2**61 << 2 is 2**63
    def test_equals_stable_argsort_with_inverse(self, keys):
        keys = np.array(keys, dtype=np.int64)
        order, back = core._stable_order(keys)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()
        here = list(range(len(keys)))
        assert back[order].tolist() == here and order[back].tolist() == here


class TestVoteLogValidation:
    def test_duplicate_worker_item_rejected(self):
        with pytest.raises(MalformedInputError, match="votes twice"):
            VoteLog.from_ids([0, 0], [D, C], ("w0", "w0"), ("t0", "t0"), item_count=1)

    def test_split_task_rejected(self):
        with pytest.raises(MalformedInputError, match="non-contiguous"):
            VoteLog.from_ids(
                [0, 1, 1], [D, D, D], ("w0", "w1", "w2"), ("t0", "t1", "t0"),
                item_count=2,
            )

    def test_item_out_of_universe_rejected(self):
        with pytest.raises(MalformedInputError, match="universe"):
            VoteLog.from_ids([5], [D], ("w0",), ("t0",), item_count=3)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            VoteLog.from_ids([0, 1], [D], ("w0", "w0"), ("t0", "t0"), item_count=2)

    @settings(max_examples=400, deadline=None)
    @given(broken_columns(), st.booleans())
    # two repeated pairs whose sort order is not their arrival order
    @example(([0, 0, 0, 0], ("w0", "w1", "w1", "w0"), ("0", "1", "2", "3"), 1), False)
    def test_matches_vote_by_vote_oracle(self, columns, as_array):
        assert_contract_matches_oracle(columns, as_array)

    @settings(max_examples=200, deadline=None)
    @given(broken_columns(near_int64_edge=True), st.booleans())
    # a repeat and a split on one vote, among ids whose packed keys pass int64: the repeat
    @example(([2**63 - 2, 2**63 - 3, 2**63 - 2, 2**63 - 3], ("w0", "w1", "w0", "w2"),
              ("0", "1", "0", "2"), 2**63 - 1), True)
    def test_matches_vote_by_vote_oracle_near_int64_edge(self, columns, as_array):
        assert_contract_matches_oracle(columns, as_array)

    @pytest.mark.parametrize(
        "item_ids, message",
        [
            ([0, -1, 2**63], "item_id -1 outside"),
            ([0, 10**22, -(2**70)], "item_id 10000000000000000000000 outside"),
        ],
    )
    def test_out_of_int64_universe_message_keeps_the_id(self, item_ids, message):
        # [-1, 2**63] becomes a float64 array: the message keeps the int
        with pytest.raises(MalformedInputError, match=message) as exc:
            VoteLog.from_ids(item_ids, [D] * 3, ("w0",) * 3, ("t0",) * 3, item_count=3)
        assert exc.value.position == 1

    def test_id_past_int64_beside_ids_near_it_named_exactly(self):
        # [2**63 - 2, 2**63] becomes a float64 array, in which both ids read 2**63
        ids = [2**63 - 2, 2**63]
        with pytest.raises(MalformedInputError, match=f"item_id {2**63} outside") as exc:
            VoteLog.from_ids(ids, [D, D], ("w0", "w1"), ("t0", "t1"), item_count=2**63 - 1)
        assert exc.value.position == 1

    @pytest.mark.parametrize("item_ids", [
        [0, 2**63], [0, 10**19], np.array([0, 2**63], np.uint64), [0, 2**64 + 1],
    ], ids=["2**63", "10**19", "uint64", "2**64+1"])
    def test_id_past_int64_inside_larger_universe_rejected(self, item_ids):
        # item ids are int64: a uint64 id once wrapped to a negative one, and a list of
        # Python ints ended in an OverflowError at the int64 cast
        past = int(item_ids[1])
        with pytest.raises(MalformedInputError) as exc:
            VoteLog.from_ids(item_ids, [D, D], ("w0", "w1"), ("t0", "t0"), item_count=10**20)
        assert str(exc.value) == f"item_id {past} outside int64 range [0, 2**63)"
        assert exc.value.position == 1

    def test_codes_in_any_order(self):
        # codes need not follow first appearance: only a block repeating an earlier
        # block's task code splits that task
        log = VoteLog([0, 1, 2], [D, C, D], [1, 1, 0], [1, 1, 0], ("w0", "w1"), ("a", "b"), 3)
        assert task_tuples(log) == (("b", 0, 2), ("a", 2, 3))
        assert log.worker_codes.dtype == np.int64 and log.task_codes.dtype == np.int64
        with pytest.raises(MalformedInputError, match="task 'b' is split") as exc:
            VoteLog([0, 1, 2], [D, C, D], [1, 0, 1], [1, 0, 1], ("w0", "w1"), ("a", "b"), 3)
        assert exc.value.position == 2

    @pytest.mark.parametrize(
        "worker_codes, worker_names",
        [([0, 2], ("w0", "w1")), ([0, -1], ("w0", "w1")), ([0, 1], ("w0", "w0"))],
    )
    def test_codes_must_index_distinct_names(self, worker_codes, worker_names):
        with pytest.raises(ValueError, match="codes must index distinct names"):
            VoteLog([0, 1], [D, D], worker_codes, [0, 0], worker_names, ("t0",), 2)
        with pytest.raises(ValueError, match="codes must index distinct names"):
            VoteLog([0, 1], [D, D], [0, 0], worker_codes, ("t0",), worker_names, 2)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(vote_logs(), pooled_vote_logs()))
    def test_from_ids_codes_follow_first_appearance(self, log):
        assert_first_appearance_codes(log)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(vote_logs(), pooled_vote_logs()), st.integers(0, 8), st.data())
    def test_task_blocks(self, drawn, n_tasks, data):
        log = make_log([[(0, D), (1, C)], [(2, D)]], item_count=3)
        assert task_tuples(log) == (("0", 0, 2), ("1", 2, 3))
        assert log.task_count == 2
        # task_bounds on every kind of log: drawn, simulated, permuted and read back by both
        # readers, the plain one and the row scan
        scenario = SimScenario(n_items=12, n_dirty=3, task_size=4, n_tasks=n_tasks,
                               fp_rate=0.1, fn_rate=0.1, seed=data.draw(st.integers(0, 99)))
        logs = [log, make_log([], item_count=3), drawn, simulate(scenario)[0]]
        logs += [permute_tasks(each, data.draw(st.permutations(range(each.task_count))))
                 for each in logs[2:]]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "votes.csv"
            write_votes_csv(drawn, path)
            with mock.patch.object(core, "_vote_rows", wraps=core._vote_rows) as row_scan:
                logs.append(read_votes_csv(path, item_count=drawn.item_count))
            assert row_scan.called == (len(drawn) == 0)  # a header alone is not plain
            with mock.patch.object(core, "_plain_columns", lambda raw: None):
                logs.append(read_votes_csv(path, item_count=drawn.item_count))
        for each in logs:
            assert_task_bounds(each)


class TestFStatisticsType:
    def test_zero_entries_dropped(self):
        f = FStatistics(freq={1: 2, 3: 0}, n=2)
        assert f.freq == {1: 2}

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            FStatistics(freq={0: 1}, n=0)


def assert_id_array(ids, expected):
    """ids is a strictly increasing int64 array of exactly the expected ids."""
    assert type(ids) is np.ndarray and ids.dtype == np.int64 and ids.ndim == 1
    assert ids.tolist() == sorted(set(expected))


def assert_same_columns(a, b):
    assert a.item_ids.tolist() == b.item_ids.tolist()
    assert a.dirty.tolist() == b.dirty.tolist()
    assert vote_ids(a) == vote_ids(b)
    assert a.item_count == b.item_count


def assert_matches_votes_oracle(text, item_count):
    """read_votes_csv gives the oracle's columns, or its message and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "votes.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = error = None
        try:
            *columns, lines = parse_votes_oracle(path)
            expected = VoteLog.from_ids(*columns, item_count)
        except MalformedInputError as exc:
            line = exc.line if exc.position is None else lines[exc.position]
            message = str(exc) if exc.position is None else f"line {line}: {exc}"
            error = (message, line)
        if error is None:
            log = read_votes_csv(path, item_count=item_count)
            assert_same_columns(log, expected)
            assert_first_appearance_codes(log)
        else:
            with pytest.raises(MalformedInputError) as got:
                read_votes_csv(path, item_count=item_count)
            assert (str(got.value), got.value.line) == error


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        log = make_log(
            [
                [(int(rng.integers(5)), D if rng.random() < 0.5 else C)]
                for _ in range(20)
            ],
            item_count=5,
        )
        path = tmp_path / "votes.csv"
        write_votes_csv(log, path)
        back = read_votes_csv(path, item_count=5)
        assert_same_columns(back, log)

    def test_edge_whitespace_id_rejected_before_writing(self, tmp_path):
        # the votes readers strip every cell, so " w" would read back as "w", one worker
        path = tmp_path / "votes.csv"
        workers = VoteLog.from_ids([0, 1], [True, False], [" w", "w"], ["t", "t"], 2)
        tasks = VoteLog.from_ids([0, 1], [True, False], ["w", "v"], ["t", "t\t"], 2)
        for log, name in ((workers, "worker_id ' w'"), (tasks, "task_id 't\\t'")):
            with pytest.raises(ValueError, match=re.escape(name)):
                write_votes_csv(log, path)
            assert not path.exists()
        log, _ = simulate(SimScenario(n_items=30, n_dirty=6, task_size=4, n_tasks=12,
                                      fp_rate=0.1, fn_rate=0.1, seed=2))
        write_votes_csv(log, path)
        worker_ids, task_ids = vote_ids(log)
        rows = zip(task_ids, worker_ids, log.item_ids.tolist(), log.dirty.astype(int).tolist())
        assert path.read_bytes() == write_rows_oracle([VOTES_HEADER, *rows]).encode()

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_round_trip_any_log(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "votes.csv"
            write_votes_csv(log, path)
            assert_same_columns(read_votes_csv(path, item_count=log.item_count), log)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 49)))
    def test_truth_round_trip(self, dirty):
        # written sorted, repeats kept; read back sorted without repeats
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            write_truth_csv(np.array(dirty, np.int64), path)
            assert path.read_text() == "".join(f"{item}\n" for item in sorted(dirty))
            assert_id_array(read_truth_csv(path, item_count=50), dirty)

    @settings(max_examples=400, deadline=None)
    @given(votes_csv_texts())
    @example("task_id,worker_id,item_id,label\nt0,w0,0_2,1\n")  # int() reads 2
    @example("task_id,worker_id,item_id,label\r\n\r\nt0,w0,\u0661,1\r\n")  # int() reads 1
    @example("task_id,worker_id,item_id,label\nt0, w0,1,1\nt0,w0,2,0\n")  # stripped to one worker
    def test_votes_match_row_by_row_oracle(self, text):
        assert_matches_votes_oracle(text, item_count=4)

    @settings(max_examples=400, deadline=None)
    @given(plain_votes_csv_texts())
    @example("task_id,worker_id,item_id,label\nt0,w0,9223372036854775808,1\n")  # int64 overflow
    @example("task_id,worker_id,item_id,label\nt0,w0,1,01\nt0,w1,2,1")
    @example("task_id,worker_id,item_id,label\nt0,w0,1,1,\nt0,5,1\n")  # 4 and 2 commas
    def test_plain_votes_match_row_by_row_oracle(self, text):
        assert_matches_votes_oracle(text, item_count=8)

    @settings(max_examples=200, deadline=None)
    @given(plain_votes_csv_texts())
    def test_plain_votes_read_without_loadtxt(self, text):
        # the separators alone give every cell: numpy's text reader is never asked
        def loadtxt(*args, **kwargs):
            raise AssertionError("a votes file reached np.loadtxt")

        with mock.patch.object(np, "loadtxt", loadtxt):
            assert_matches_votes_oracle(text, item_count=8)

    @settings(max_examples=200, deadline=None)
    @given(plain_votes_csv_texts())
    def test_plain_read_codes_equal_row_scan_codes(self, text):
        # the fixed-width bytes columns and the row scan's str columns give the same log
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "votes.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                plain = read_votes_csv(path, item_count=8)
            except MalformedInputError:
                return
            with mock.patch.object(core, "_plain_columns", lambda text: None):
                scanned = read_votes_csv(path, item_count=8)
        for name in ("item_ids", "dirty", "worker_codes", "task_codes"):
            assert getattr(plain, name).tolist() == getattr(scanned, name).tolist()
        assert (plain.worker_names, plain.task_names) == (scanned.worker_names, scanned.task_names)

    @pytest.mark.parametrize("body", [
        "a,b,1,0\nc,d,2,1\n",  # the header is wider than every cell
        "t0,w0,1,1\n\nt0,w1,2,0\nlong-task-id,long-worker-id,123456789,1\n",  # widest last
        "t0,w0,1,1\nt0,w1,2,0\nlong-task-id,long-worker-id,123456789,1",  # and no final LF
        "t0,w0,5,1\n",  # one row
        "t0,w0,5,0",  # one row, no final LF
        ",w0,1,1\n,,2,0\nt1,,3,1\n",  # empty task and worker ids
        ",,1,1\n",  # every id empty
    ])
    def test_plain_read_equals_row_scan_at_width_edges(self, body):
        # the column widths come from the rows alone: a narrower read would cut ids
        text = "task_id,worker_id,item_id,label\n" + body
        *columns, lines = core._plain_columns(text.encode())  # None, so an error, if not plain
        *scanned, scan_lines = core._vote_rows(text)
        plain, row_scan = VoteLog(*columns, 10**9), VoteLog.from_ids(*scanned, 10**9)
        assert_same_columns(plain, row_scan)
        assert (plain.worker_names, plain.task_names) == (row_scan.worker_names,
                                                          row_scan.task_names)
        for name in ("worker_codes", "task_codes"):
            assert getattr(plain, name).tolist() == getattr(row_scan, name).tolist()
        assert lines.tolist() == scan_lines

    @pytest.mark.parametrize("layout", ["blocks", "every-row", "returning", "split-task"])
    def test_run_coding_equals_row_scan_at_size(self, tmp_path, layout):
        # the plain read codes ids from their runs of equal adjacent rows; at 20,000 rows the
        # runs span thousands of rows. Ten tasks of 2,000 votes on distinct items, as in a
        # crowd log, with a blank line inside the sixth task.
        k = np.arange(20_000)
        tasks, workers = k // 2000, k // 2000  # blocks: one worker a task
        if layout == "every-row":
            workers = k % 7  # the worker id changes on every row
        elif layout == "returning":
            workers = tasks % 3  # worker 0 returns after the runs of workers 1 and 2
        elif layout == "split-task":
            tasks = np.where((k >= 15_000) & (k < 16_000), 2, tasks)  # task 2 comes back
        # names unsorted, and a name differs from the next before its last byte
        rows = [f"t{7 * t % 10}0,w{3 * w % 10}0,{i * 7919 % 20_000},{i % 2}"
                for t, w, i in zip(tasks, workers, k)]
        rows.insert(11_000, "")
        text = "task_id,worker_id,item_id,label\n" + "\n".join(rows) + "\n"
        *columns, lines = core._plain_columns(text.encode())
        *scanned, scan_lines = core._vote_rows(text)
        assert lines.tolist() == scan_lines
        assert columns[0].tolist() == scanned[0] and columns[1].tolist() == scanned[1]
        for codes, names, ids in zip(columns[2:4], columns[4:], scanned[2:]):
            first_seen = (*dict.fromkeys(ids),)
            assert names == first_seen
            assert codes.dtype == np.int64 and codes.tolist() == [*map(first_seen.index, ids)]
        path = tmp_path / "votes.csv"
        path.write_text(text)
        outcomes = []
        for plain in (core._plain_columns, lambda raw: None):
            with mock.patch.object(core, "_plain_columns", plain):
                try:
                    log = read_votes_csv(path, item_count=20_000)
                    outcomes.append((log.item_ids.tolist(), vote_ids(log), task_tuples(log)))
                except MalformedInputError as exc:
                    outcomes.append((str(exc), exc.line))
        assert outcomes[0] == outcomes[1]
        if layout == "split-task":
            assert outcomes[0] == ("line 15003: task 't40' is split into non-contiguous blocks",
                                   15003)

    def test_only_repeat_first_and_last_vote_named_by_both_readers(self, tmp_path):
        # the only repeated pair lies at the log's two ends; the stable order names the later
        # vote, on the file's last line
        rows = [f"t{k // 500},w{k // 500},{k},{k % 2}" for k in range(4_999)] + ["t9,w0,0,1"]
        path = tmp_path / "votes.csv"
        path.write_text("task_id,worker_id,item_id,label\n" + "\n".join(rows) + "\n")
        message = "line 5001: worker 'w0' votes twice on item 0"
        with pytest.raises(MalformedInputError, match=message) as plain:
            read_votes_csv(path, item_count=5_000)
        with mock.patch.object(core, "_plain_columns", lambda raw: None):
            with pytest.raises(MalformedInputError, match=message) as scanned:
                read_votes_csv(path, item_count=5_000)
        assert plain.value.line == scanned.value.line == 5001

    def test_long_id_goes_to_row_scan_within_width_budget(self, tmp_path):
        # one 5,000-character worker id would widen the worker column of a fixed-width
        # read to 5,000 bytes a row, 100 MB for 20k rows; the row scan reads the file
        rows = [f"{k // 2000},w{k // 2000},{k % 2000},{k % 2}" for k in range(20_000)]
        rows[7] = f"0,{'x' * 5000},7,1"
        path = tmp_path / "votes.csv"
        path.write_text("task_id,worker_id,item_id,label\n" + "\n".join(rows) + "\n")
        assert core._plain_columns(path.read_bytes()) is None
        *columns, lines = parse_votes_oracle(path)
        expected = VoteLog.from_ids(*columns, item_count=2000)
        tracemalloc.start()
        try:
            log = read_votes_csv(path, item_count=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_columns(log, expected)
        assert peak <= core._WIDTH_BUDGET * path.stat().st_size

    def test_plain_files_skip_row_scan(self, tmp_path, monkeypatch):
        # the fixture and write_votes_csv exports, one of a simulated log, are read by
        # numpy's C reader alone
        export, simulated = tmp_path / "votes.csv", tmp_path / "simulated.csv"
        write_votes_csv(make_log([[(0, D), (3, C)], [(3, D)], [(9, C)]], item_count=10), export)
        scenario = SimScenario(n_items=10, n_dirty=3, task_size=4, n_tasks=6, fp_rate=0.1,
                               fn_rate=0.1, permutations=1, seed=2)
        write_votes_csv(simulate(scenario)[0], simulated)
        paths = (DATA / "fixture_votes.csv", export, simulated)
        expected = [read_votes_csv(path, 10) for path in paths]

        def row_scan(text):
            raise AssertionError("a plain file reached the row scan")

        monkeypatch.setattr(core, "_vote_rows", row_scan)
        for path, log in zip(paths, expected):
            assert_same_columns(read_votes_csv(path, 10), log)

    @pytest.mark.parametrize("item", ["1.9", "1e0", "1."])
    def test_item_read_via_float_goes_to_row_scan(self, tmp_path, item):
        # a reader that goes through a float would truncate "1.9" to 1; the row scan names it
        path = tmp_path / "votes.csv"
        path.write_text(f"task_id,worker_id,item_id,label\nt0,w0,{item},1\n")
        with pytest.raises(MalformedInputError, match=re.escape(f"line 2: item_id '{item}' is")):
            read_votes_csv(path, item_count=4)

    @pytest.mark.parametrize("rows", [
        "t0,w0,1.9,1", "t0,w0,1e0,1", "t0,w0,+1,1",
        "t0,w0,,1\nt0,w1,1.9,1",  # an empty cell first
        f"t0,w0,{2**63},1", f"t0,w0,{10**19},1",
        # one bad byte first, in the middle or last in cells of 1, 2 and 5 bytes
        "t0,w0,7,1\nt0,w1,x2345,1\nt0,w2,12,1", "t0,w0,7,1\nt0,w1,12x45,1\nt0,w2,12,1",
        "t0,w0,7,1\nt0,w1,1234x,1\nt0,w2,12,1", "t0,w0,12345,1\nt0,w1,1x,1\nt0,w2,7,1",
        "t0,w0,12345,1\nt0,w1,x,1\nt0,w2,12,1", "t0,w0,12345,1\nt0,w1,12,1\nt0,w2,x,1",
        "t0,w0,12345,1\nt0,w1,,1\nt0,w2,7,1",  # an empty cell among wider ones
    ])
    def test_item_loadtxt_may_misread_never_reaches_loadtxt(self, rows):
        # the separators show the cell is no digit run short enough for int64, which numpy's
        # text reader might misread ("1.9" or 2**63 through a float): the plain read refuses it
        assert core._plain_columns(f"task_id,worker_id,item_id,label\n{rows}\n".encode()) is None

    @pytest.mark.parametrize("rows", [
        "t0,w0,1,1,\nt0,5,1",  # 4 then 2 commas, three a row in all
        "t0,5,1\nt0,w0,1,1,",  # 2 then 4
        "t0,w0,1,,\nt0,w1,1",  # 4 then 2, the fourth comma where the label goes
        "t0,w0,1,1,",  # a trailing comma
        "t0,w0,1,01", "t0,w0,1,2", "t0,w0,1,",  # labels 01, 2 and empty
    ])
    def test_row_without_three_commas_and_a_label_goes_to_row_scan(self, tmp_path, rows):
        # each row must hold its own three commas and a label 0 or 1; the row scan names
        # the line of any other
        text = f"task_id,worker_id,item_id,label\nt0,w9,0,0\n{rows}\n"
        assert core._plain_columns(text.encode()) is None
        path = tmp_path / "votes.csv"
        path.write_text(text)
        with mock.patch.object(core, "_plain_columns", lambda text: None):
            with pytest.raises(MalformedInputError) as scanned:
                read_votes_csv(path, item_count=8)
        with pytest.raises(MalformedInputError) as got:
            read_votes_csv(path, item_count=8)
        assert (str(got.value), got.value.line) == (str(scanned.value), scanned.value.line)

    def test_plain_byte_set(self):
        # each ASCII byte, and one non-ASCII character, inside a worker id: the plain read
        # refuses the quote, NUL and the str.isspace bytes but LF, which csv.reader or
        # str.strip read specially, and the comma and LF, which split the row; 0x01-0x08,
        # 0x0e-0x1b and 0x7f are plain. Either way the read equals the row-by-row oracle.
        refused = {*b'"\0\t\x0b\x0c\r\x1c\x1d\x1e\x1f ', *b",\n", ord("\u00e9")}
        for char in [*map(chr, range(128)), "\u00e9"]:
            text = f"task_id,worker_id,item_id,label\nt0,w{char}x,1,1\nt0,w1,2,0\n"
            plain = core._plain_columns(text.encode()) is not None
            assert plain == (ord(char) not in refused), repr(char)
            assert_matches_votes_oracle(text, item_count=8)

    @settings(max_examples=200, deadline=None)
    @given(plain_votes_csv_texts())
    @example("task_id,worker_id,item_id,label\nt0, w0,1,1\n")  # padded: decoded
    def test_plain_reads_never_decode(self, text):
        # a votes file the plain read takes, and a plain truth file, are parsed from their
        # bytes: with the decode patched to raise they still match their oracles, while any
        # other votes file, such as a padded one, reaches the decode
        def decode(raw):
            raise AssertionError("decoded")

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "_decode", decode):
            truth = Path(tmp) / "truth.csv"
            truth.write_bytes(b"3\r\n1\n\n3\r0")
            assert_id_array(read_truth_csv(truth, 4), read_truth_oracle(truth, 4))
            if core._plain_columns(text.encode()) is not None:
                assert_matches_votes_oracle(text, item_count=8)
                return
            votes = Path(tmp) / "votes.csv"
            votes.write_bytes(text.encode())
            with pytest.raises(AssertionError, match="decoded"):
                read_votes_csv(votes, item_count=8)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(truth_texts(), plain_truth_texts()), st.sampled_from([6, 2**63, 10**20]))
    @example("1\x0c2\n0_2\r3\r\n\u0661\n", 6)
    @example("", 6)
    @example("\n", 6)
    @example("\n\n", 6)
    @example("0\n", 1)
    @example("6\n", 6)  # an id equal to item_count
    @example("999999999999999999\n", 10**18)  # 18 digits, the widest array parse
    @example("9223372036854775807\n", 2**63)  # 19 digits: read line by line
    def test_truth_matches_line_by_line_oracle(self, text, item_count):
        # the oracle's set as a sorted array, or the same message on the same line, on any
        # text; an id past int64 inside a universe of 10**20 is named as such
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = read_truth_oracle(path, item_count)
            except MalformedInputError as exc:
                with pytest.raises(MalformedInputError) as got:
                    read_truth_csv(path, item_count)
                assert (str(got.value), got.value.line) == (str(exc), exc.line)
            else:
                assert_id_array(read_truth_csv(path, item_count), expected)

    def test_plain_truth_parsed_as_array(self, tmp_path, monkeypatch):
        # a write_truth_csv export, with or without CRLF line ends, is one np.fromstring
        calls = []

        def fromstring(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        parse = np.fromstring
        monkeypatch.setattr(np, "fromstring", fromstring)
        dirty = [0, 7, 10**17, 999_999_999_999_999_999]
        path = tmp_path / "truth.csv"
        write_truth_csv(dirty, path)
        assert_id_array(read_truth_csv(path, item_count=10**18), dirty)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_id_array(read_truth_csv(path, item_count=10**18), dirty)
        assert len(calls) == 2

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("pad, plain", [(b"%d", True), (b" %d", False)],
                             ids=["array-parse", "line-by-line"])
    def test_truth_repeats_dropped_on_both_paths(self, tmp_path, monkeypatch, bom, newline,
                                                 pad, plain):
        calls = []

        def fromstring(*args, **kwargs):
            calls.append(args[0])
            return parse(*args, **kwargs)

        parse = np.fromstring
        monkeypatch.setattr(np, "fromstring", fromstring)
        ids = [7, 3, 7, 0, 3, 10**17, 0, 999_999_999_999_999_999]
        path = tmp_path / "truth.csv"
        path.write_bytes(bom + b"".join(pad % item + newline for item in ids))
        expected = read_truth_oracle(path, item_count=10**18)
        assert sorted(expected) == [0, 3, 7, 10**17, 999_999_999_999_999_999]
        assert_id_array(read_truth_csv(path, item_count=10**18), expected)
        assert len(calls) == plain

    def test_crlf_votes_read_as_lf(self, tmp_path, monkeypatch):
        # CRLF line ends are read in C as their LF form is, to the same log
        scenario = SimScenario(n_items=40, n_dirty=8, task_size=5, n_tasks=12, fp_rate=0.1,
                               fn_rate=0.1, permutations=1, seed=3)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_votes_csv(simulate(scenario)[0], lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))

        def row_scan(text):
            raise AssertionError("a plain file reached the row scan")

        monkeypatch.setattr(core, "_vote_rows", row_scan)
        logs = [read_votes_csv(path, item_count=40) for path in (lf, crlf)]
        assert_same_columns(*logs)
        for name in ("worker_codes", "task_codes"):
            assert getattr(logs[0], name).tolist() == getattr(logs[1], name).tolist()
        assert task_tuples(logs[0]) == task_tuples(logs[1])

    def test_votes_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_bytes(b"\xef\xbb\xbftask_id,worker_id,item_id,label\n0,w0,1,1\n")
        log = read_votes_csv(path, item_count=2)
        assert log.item_ids.tolist() == [1] and log.dirty.tolist() == [True]

    def test_truth_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_bytes(b"\xef\xbb\xbf1\n3\n")
        assert_id_array(read_truth_csv(path, item_count=5), {1, 3})

    def test_earliest_violation_reported(self, tmp_path):
        # vote 1 repeats a worker-item pair, vote 2 leaves the universe and
        # vote 3 splits task t0: the log and the CSV reader both report vote 1
        rows = [("t0", "w0", 0, 1), ("t0", "w0", 0, 0), ("t1", "w1", 9, 1), ("t0", "w2", 1, 1)]
        task_ids, worker_ids, item_ids, labels = zip(*rows)
        with pytest.raises(MalformedInputError, match="votes twice") as exc:
            VoteLog.from_ids(item_ids, [x == 1 for x in labels], worker_ids, task_ids, 3)
        assert exc.value.position == 1
        path = tmp_path / "votes.csv"
        lines = ["task_id,worker_id,item_id,label", ""] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedInputError, match="line 4.*twice") as exc:
            read_votes_csv(path, item_count=3)
        assert exc.value.line == 4

    def test_huge_item_id_reports_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        huge = 10**22  # beyond int64
        path.write_text(f"task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,{huge},1\n")
        with pytest.raises(MalformedInputError, match="line 3.*universe"):
            read_votes_csv(path, item_count=3)

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,1,2\n")
        with pytest.raises(MalformedInputError, match="line 3"):
            read_votes_csv(path, item_count=2)

    def test_item_beyond_universe_reports_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("task_id,worker_id,item_id,label\n0,w0,7,1\n")
        with pytest.raises(MalformedInputError, match="line 2"):
            read_votes_csv(path, item_count=3)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text("0,w0,0,1\n")
        with pytest.raises(MalformedInputError, match="header"):
            read_votes_csv(path, item_count=1)

    def test_duplicate_vote_reports_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(
            "task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,0,0\n"
        )
        with pytest.raises(MalformedInputError, match="line 3.*twice"):
            read_votes_csv(path, item_count=1)

    def test_split_task_reports_line(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(
            "task_id,worker_id,item_id,label\n"
            "0,w0,0,1\n1,w1,1,1\n0,w2,2,1\n"
        )
        with pytest.raises(MalformedInputError, match="line 4.*contiguous"):
            read_votes_csv(path, item_count=3)

    def test_contract_error_line_counts_blank_rows(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_text(
            "task_id,worker_id,item_id,label\n0,w0,0,1\n\n\n0,w0,0,0\n"
        )
        with pytest.raises(MalformedInputError, match="line 5.*twice"):
            read_votes_csv(path, item_count=1)

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["", "bom"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("rows", [
        ["0,w0,0,1", "0,w1,1,0", "", "0,w0,0,0"],  # a repeated worker-item pair
        ["0,w0,0,1", "1,w1,1,1", "", "0,w2,2,1"],  # a split task
        ["0,w0,0,1", "0,w1,1,0", "", "0,w2,7,1"],  # an item outside the universe
    ], ids=["repeat", "split", "outside"])
    def test_plain_contract_errors_skip_row_scan(self, tmp_path, monkeypatch, rows, newline, bom):
        # the plain reader names the offending vote's line itself, as the row scan would
        path = tmp_path / "votes.csv"
        text = newline.join(["task_id,worker_id,item_id,label", *rows]) + newline
        path.write_bytes(bom + text.encode("ascii"))
        with mock.patch.object(core, "_plain_columns", lambda text: None):
            with pytest.raises(MalformedInputError) as scanned:
                read_votes_csv(path, item_count=3)

        def row_scan(text):
            raise AssertionError("a plain file reached the row scan")

        monkeypatch.setattr(core, "_vote_rows", row_scan)
        with pytest.raises(MalformedInputError) as plain:
            read_votes_csv(path, item_count=3)
        assert (str(plain.value), plain.value.line) == (str(scanned.value), scanned.value.line)
        assert plain.value.line == 5
