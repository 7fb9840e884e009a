import tempfile
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errest.core import MalformedInputError
from errest.pairs import (
    RecordTable,
    _pattern_masks,
    edit_distance,
    iter_scored_pairs,
    normalize_fields,
    read_records_csv,
    similarity,
)
from errest.priority import stratum_rule

from helpers import edit_distance_oracle, read_records_oracle, records_csv_texts

DATA = Path(__file__).parent / "data"

# A few shared characters (ASCII, a combining acute, an astral emoji) so
# that drawn strings overlap, mixed with any code point Hypothesis draws.
CHARS = st.sampled_from("ab \u0301\U0001F600") | st.characters()
TEXT = st.text(CHARS, max_size=150)


def table_of(*rows):
    return RecordTable(ids=tuple(r[0] for r in rows), fields=tuple(r[1] for r in rows))


def pairs_in(t, alpha, beta, stratum):
    """Ids of the scored pairs that the [alpha, beta] rule puts in `stratum`."""
    rule = stratum_rule(alpha, beta)
    pairs = iter_scored_pairs(t)
    return {(left, right) for left, right, score in pairs if rule(score) == stratum}


class TestSimilarity:
    def test_identical_records(self):
        assert similarity(("Ritz Cafe", "Atlanta"), ("ritz  cafe", "atlanta")) == 1.0

    def test_disjoint_equal_length(self):
        assert similarity(("abc",), ("xyz",)) == 0.0

    def test_single_substitution(self):
        assert similarity(("abc",), ("abd",)) == pytest.approx(2 / 3)

    def test_empty_records(self):
        assert similarity((), ()) == 1.0

    def test_against_distance_oracle(self):
        rng = np.random.default_rng(10)
        alphabet = "abcde "
        for _ in range(100):
            a = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
            b = "".join(rng.choice(list(alphabet), size=rng.integers(0, 12)))
            assert edit_distance(a, b) == edit_distance_oracle(a, b)
            na, nb = normalize_fields([a]), normalize_fields([b])
            longest = max(len(na), len(nb))
            expected = 1.0 if longest == 0 else 1 - edit_distance_oracle(na, nb) / longest
            assert similarity([a], [b]) == pytest.approx(expected)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(12)
        words = ["main st", "oak ave", "pine", "elm road", ""]
        for a, b in combinations(words, 2):
            s_ab = similarity([a], [b])
            assert s_ab == similarity([b], [a])
            assert 0.0 <= s_ab <= 1.0


class TestEditDistance:
    @settings(max_examples=200, deadline=None)
    @given(TEXT, TEXT)
    def test_matches_oracle_and_is_symmetric(self, a, b):
        assert edit_distance(a, b) == edit_distance_oracle(a, b) == edit_distance(b, a)

    @settings(max_examples=50, deadline=None)
    @given(st.text(CHARS, min_size=60, max_size=150), st.data())
    def test_near_duplicates_past_one_word(self, a, data):
        # Small edits of a long string keep the distance small, so the
        # vectors' high bits (rows past 64 and 128) decide the result.
        i = data.draw(st.integers(0, len(a)))
        j = data.draw(st.integers(i, min(len(a), i + 3)))
        b = a[:i] + data.draw(st.text(CHARS, max_size=3)) + a[j:]
        assert edit_distance(a, b) == edit_distance_oracle(a, b) == edit_distance(b, a)

    @pytest.mark.parametrize("a, b, want", [
        ("", "", 0),
        ("", "x" * 200, 200),
        ("y" * 200, "", 200),
        ("ab" * 33, "ab" * 33, 0),
        ("abc" * 43, "abc" * 43, 0),
        ("\U0001F600" * 129, "\U0001F600" * 129, 0),
        ("a", "a", 0),
        ("a", "b", 1),
        ("a", "", 1),
        ("b", "a" * 70, 70),
        ("x" * 64, "x" * 63 + "y", 1),  # the pattern fills one 64-bit word
        ("x" * 65, "x" * 64 + "y", 1),  # the last row is the second word's first bit
        ("x" * 64, "x" * 65, 1),
        ("x" * 65, "y" * 65, 65),
        ("café", "cafe", 1),
        ("naïve résumé", "naive resume", 3),
        ("日本語", "日本", 1),
    ], ids=["empty", "empty-long", "long-empty", "equal-66", "equal-129", "equal-astral-129",
            "one-equal", "one-substituted", "one-empty", "one-long", "substituted-64",
            "substituted-65", "inserted-65", "disjoint-65", "accent", "accents", "cjk"])
    def test_edge_cases(self, a, b, want):
        assert edit_distance(a, b) == edit_distance_oracle(a, b) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.just("")
            | st.text(st.sampled_from("ab\u0301\U0001F600"), min_size=64, max_size=65)
            | TEXT,
            min_size=3, max_size=3,
        ),
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=12),
    )
    @example(["", "a" * 64, "a" * 63 + "\U0001F600\u0301"],
             [(1, 2), (1, 2), (2, 1), (1, 0), (2, 2), (1, 2), (0, 1)])
    @example(["a" * 65, "a" * 64 + "b", "\u0301" * 65], [(0, 1), (1, 0), (0, 2), (0, 1)])
    def test_pattern_memo_never_stale(self, pool, calls):
        # Each pass runs the calls in order, so a pattern repeats, alternates
        # with another of the same length and comes back from the memo.
        pairs = [(pool[p], pool[t]) for p, t in calls]
        forward = [edit_distance(pattern, text) for pattern, text in pairs]
        swapped = [edit_distance(text, pattern) for pattern, text in pairs]
        assert forward == swapped == [edit_distance_oracle(p, t) for p, t in pairs]


class TestCanonicalization:
    def test_each_unordered_pair_once_sorted(self):
        t = table_of(("b", ("x",)), ("a", ("y",)), ("c", ("z",)))
        pairs = list(iter_scored_pairs(t))
        keys = [(left, right) for left, right, _ in pairs]
        assert keys == [("a", "b"), ("a", "c"), ("b", "c")]
        assert all(left < right for left, right, _ in pairs)

    def test_pair_count_matches(self):
        t = table_of(*((f"r{i}", (str(i),)) for i in range(7)))
        assert len(list(iter_scored_pairs(t))) == 7 * 6 // 2 == 21


class TestCandidates:
    def test_planted_duplicates_are_the_ambiguous_set(self):
        t = read_records_csv(DATA / "fixture_records.csv")
        assert pairs_in(t, 0.5, 0.9, "ambiguous") == {("r0", "r1"), ("r2", "r3")}
        assert pairs_in(t, 0.5, 0.9, "auto_dirty") == set()

    def test_threshold_monotonicity(self):
        t = read_records_csv(DATA / "fixture_records.csv")
        assert pairs_in(t, 0.5, 0.9, "ambiguous") <= pairs_in(t, 0.2, 0.95, "ambiguous")

    def test_identical_records_auto_dirty(self):
        t = table_of(("a", ("same", "thing")), ("b", ("same", "thing")))
        ((_, _, score),) = iter_scored_pairs(t)
        assert score == 1.0
        assert stratum_rule(0.5, 0.9)(score) == "auto_dirty"


class TestStreaming:
    def test_generation_never_materializes_pairs(self):
        n = 1100
        t = RecordTable(ids=tuple(f"{i:05d}" for i in range(n)), fields=(("",),) * n)
        tracemalloc.start()
        count = 0
        for _ in iter_scored_pairs(t):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == n * (n - 1) // 2
        assert peak < 10 * 1024 * 1024  # far below the ~60MB of materialized pairs

    def test_one_pattern_table_per_left_record(self):
        # Canonical order runs each left record's pairs back to back, and
        # similarity makes the left record the pattern: 15 pairs, 5 tables.
        t = table_of(*((f"r{i}", (f"record {i}", "x" * i)) for i in range(6)))
        _pattern_masks.cache_clear()
        assert len(list(iter_scored_pairs(t))) == 15
        assert _pattern_masks.cache_info().misses == 5


class TestRecordsCsv:
    def test_read(self):
        t = read_records_csv(DATA / "fixture_records.csv")
        assert len(t) == 10
        assert t.ids[0] == "r0"
        assert t.fields[0] == ("blue moon diner", "145 oak st", "portland")

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b"\xef\xbb\xbfrecord_id,name\nr0,a\n")
        t = read_records_csv(path)
        assert t.ids == ("r0",) and t.fields == (("a",),)

    @settings(max_examples=400, deadline=None)
    @given(records_csv_texts())
    @example("record_id,name\na,x\n  \nb,y\n")  # a blank row is no record
    @example("record_id\na\n  \nb\n")  # but a blank id under a one-column header
    @example('record_id,name\n,x\nb\n"c\n')  # the empty id comes before the ragged row
    def test_records_match_row_by_row_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = read_records_oracle(path)
            except MalformedInputError as exc:
                with pytest.raises(MalformedInputError) as got:
                    read_records_csv(path)
                assert (str(got.value), got.value.line) == (str(exc), exc.line)
            else:
                assert read_records_csv(path) == expected

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("record_id,name\nr0,a\nr0,b\n")
        with pytest.raises(MalformedInputError, match="duplicate record_id"):
            read_records_csv(path)

    def test_earliest_repeated_id_reported(self):
        with pytest.raises(MalformedInputError, match="duplicate record_id 'b'") as exc:
            RecordTable(ids=("b", "a", "b", "a"), fields=(("",),) * 4)
        assert exc.value.position == 2

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("id,name\nr0,a\n")
        with pytest.raises(MalformedInputError):
            read_records_csv(path)
