import re
import tempfile
import warnings
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

from helpers import (
    C,
    D,
    broken_columns,
    brute_force_tally,
    contract_violation,
    counter_fstats,
    log_votes,
    make_log,
    parse_votes_oracle,
    plain_votes_csv_texts,
    random_log,
    read_truth_oracle,
    single_item_log,
    task_blocks,
    truth_texts,
    vote_logs,
    votes_csv_texts,
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


class TestVoteLogValidation:
    def test_duplicate_worker_item_rejected(self):
        with pytest.raises(MalformedInputError, match="votes twice"):
            VoteLog([0, 0], [D, C], ("w0", "w0"), ("t0", "t0"), item_count=1)

    def test_split_task_rejected(self):
        with pytest.raises(MalformedInputError, match="non-contiguous"):
            VoteLog(
                [0, 1, 1], [D, D, D], ("w0", "w1", "w2"), ("t0", "t1", "t0"),
                item_count=2,
            )

    def test_item_out_of_universe_rejected(self):
        with pytest.raises(MalformedInputError, match="universe"):
            VoteLog([5], [D], ("w0",), ("t0",), item_count=3)

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            VoteLog([0, 1], [D], ("w0", "w0"), ("t0", "t0"), item_count=2)

    @settings(max_examples=400, deadline=None)
    @given(broken_columns(), st.booleans())
    # two repeated pairs whose sort order is not their arrival order
    @example(([0, 0, 0, 0], ("w0", "w1", "w1", "w0"), ("0", "1", "2", "3"), 1), False)
    def test_matches_vote_by_vote_oracle(self, columns, as_array):
        item_ids, worker_ids, task_ids, item_count = columns
        if as_array and all(-(2**63) <= i < 2**63 for i in item_ids):
            item_ids = np.array(item_ids, dtype=np.int64)
        dirty = [D] * len(task_ids)
        expected = contract_violation(item_ids, worker_ids, task_ids, item_count)
        if expected is None:
            log = VoteLog(item_ids, dirty, worker_ids, task_ids, item_count)
            assert list(log.tasks) == task_blocks(task_ids)
        else:
            with pytest.raises(MalformedInputError) as exc:
                VoteLog(item_ids, dirty, worker_ids, task_ids, item_count)
            assert (str(exc.value), exc.value.position) == expected

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
            VoteLog(item_ids, [D] * 3, ("w0",) * 3, ("t0",) * 3, item_count=3)
        assert exc.value.position == 1

    def test_task_blocks(self):
        log = make_log([[(0, D), (1, C)], [(2, D)]], item_count=3)
        assert log.tasks == (("0", 0, 2), ("1", 2, 3))
        assert log.task_count == 2


class TestFStatisticsType:
    def test_zero_entries_dropped(self):
        f = FStatistics(freq={1: 2, 3: 0}, n=2)
        assert f.freq == {1: 2}

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            FStatistics(freq={0: 1}, n=0)


def assert_same_columns(a, b):
    assert a.item_ids.tolist() == b.item_ids.tolist()
    assert a.dirty.tolist() == b.dirty.tolist()
    assert a.worker_ids == b.worker_ids and a.task_ids == b.task_ids
    assert a.item_count == b.item_count


def assert_matches_votes_oracle(text, item_count):
    """read_votes_csv gives the oracle's columns, or its message and line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "votes.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = error = None
        try:
            *columns, lines = parse_votes_oracle(path)
            expected = VoteLog(*columns, item_count)
        except MalformedInputError as exc:
            line = exc.line if exc.position is None else lines[exc.position]
            message = str(exc) if exc.position is None else f"line {line}: {exc}"
            error = (message, line)
        if error is None:
            assert_same_columns(read_votes_csv(path, item_count=item_count), expected)
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

    @settings(max_examples=100, deadline=None)
    @given(vote_logs())
    def test_round_trip_any_log(self, log):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "votes.csv"
            write_votes_csv(log, path)
            assert_same_columns(read_votes_csv(path, item_count=log.item_count), log)

    @settings(max_examples=100, deadline=None)
    @given(st.frozensets(st.integers(0, 49)))
    def test_truth_round_trip(self, dirty):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            write_truth_csv(dirty, path)
            assert read_truth_csv(path, item_count=50) == dirty

    @settings(max_examples=400, deadline=None)
    @given(votes_csv_texts())
    @example("task_id,worker_id,item_id,label\nt0,w0,0_2,1\n")  # int() reads 2
    @example("task_id,worker_id,item_id,label\r\n\r\nt0,w0,\u0661,1\r\n")  # int() reads 1
    def test_votes_match_row_by_row_oracle(self, text):
        assert_matches_votes_oracle(text, item_count=4)

    @settings(max_examples=400, deadline=None)
    @given(plain_votes_csv_texts())
    @example("task_id,worker_id,item_id,label\nt0,w0,9223372036854775808,1\n")  # int64 overflow
    @example("task_id,worker_id,item_id,label\nt0,w0,1,01\nt0,w1,2,1")
    def test_plain_votes_match_row_by_row_oracle(self, text):
        assert_matches_votes_oracle(text, item_count=8)

    def test_plain_files_skip_row_scan(self, tmp_path, monkeypatch):
        # the fixture and a write_votes_csv export are read by numpy's C reader alone
        export = tmp_path / "votes.csv"
        write_votes_csv(make_log([[(0, D), (3, C)], [(3, D)], [(9, C)]], item_count=10), export)
        paths = (DATA / "fixture_votes.csv", export)
        expected = [read_votes_csv(path, 10) for path in paths]

        def row_scan(text):
            raise AssertionError("a plain file reached the row scan")

        monkeypatch.setattr(core, "_vote_rows", row_scan)
        for path, log in zip(paths, expected):
            assert_same_columns(read_votes_csv(path, 10), log)

    @pytest.mark.parametrize("item", ["1.9", "1e0", "1."])
    def test_item_read_via_float_goes_to_row_scan(self, tmp_path, monkeypatch, item):
        # numpy from 1.23 until the deprecation expired parses an int64 through a float,
        # truncating "1.9" to 1 with only a DeprecationWarning
        loadtxt = np.loadtxt

        def loadtxt_via_float(fname, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            as_float = [(name, "f8" if kind == "i8" else kind) for name, kind in dtype]
            return loadtxt(fname, dtype=as_float, **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
        path = tmp_path / "votes.csv"
        path.write_text(f"task_id,worker_id,item_id,label\nt0,w0,{item},1\n")
        with pytest.raises(MalformedInputError, match=re.escape(f"line 2: item_id '{item}' is")):
            read_votes_csv(path, item_count=4)

    @settings(max_examples=400, deadline=None)
    @given(truth_texts())
    @example("1\x0c2\n0_2\r3\r\n\u0661\n")
    def test_truth_matches_line_by_line_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "truth.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = read_truth_oracle(path, item_count=6)
            except MalformedInputError as exc:
                with pytest.raises(MalformedInputError) as got:
                    read_truth_csv(path, item_count=6)
                assert (str(got.value), got.value.line) == (str(exc), exc.line)
            else:
                assert read_truth_csv(path, item_count=6) == expected

    def test_votes_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "votes.csv"
        path.write_bytes(b"\xef\xbb\xbftask_id,worker_id,item_id,label\n0,w0,1,1\n")
        log = read_votes_csv(path, item_count=2)
        assert log.item_ids.tolist() == [1] and log.dirty.tolist() == [True]

    def test_truth_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_bytes(b"\xef\xbb\xbf1\n3\n")
        assert read_truth_csv(path, item_count=5) == {1, 3}

    def test_earliest_violation_reported(self, tmp_path):
        # vote 1 repeats a worker-item pair, vote 2 leaves the universe and
        # vote 3 splits task t0: the log and the CSV reader both report vote 1
        rows = [("t0", "w0", 0, 1), ("t0", "w0", 0, 0), ("t1", "w1", 9, 1), ("t0", "w2", 1, 1)]
        task_ids, worker_ids, item_ids, labels = zip(*rows)
        with pytest.raises(MalformedInputError, match="votes twice") as exc:
            VoteLog(item_ids, [x == 1 for x in labels], worker_ids, task_ids, 3)
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
