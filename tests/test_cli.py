from contextlib import redirect_stderr
import csv
from dataclasses import replace
import io
from itertools import combinations
import json
from pathlib import Path
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from errest import cli, core
from errest.cli import _fmt_column, main
from errest.core import MalformedInputError, VoteLog, read_votes_csv, write_votes_csv
from errest.pairs import iter_scored_pairs, normalize_fields, read_records_csv
from errest.priority import stratum_rule
from errest.sim import GroundTruth, load_scenario, simulate
from errest.trajectory import DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, ESTIMATE_COLUMNS
from helpers import (
    VOTES_HEADER,
    edit_distance_oracle,
    fmt,
    nan_aggregate_oracle,
    parse_votes_oracle,
    permute_tasks_oracle,
    plain_votes_csv_texts,
    pooled_vote_logs,
    read_records_oracle,
    records_csv_texts,
    trajectory_oracle,
    vote_ids,
    vote_logs,
    votes_csv_texts,
    write_rows_oracle,
)

DATA = Path(__file__).parent / "data"


def scenario_file(tmp_path, **overrides):
    sc = dict(
        n_items=40, n_dirty=8, task_size=4, n_tasks=25,
        fn_rate=0.1, fp_rate=0.02, permutations=3, seed=11,
    )
    sc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--epsilon", "1.5"),
        ("simulate", "--epsilon", "nan"),
        ("pairs", "--alpha", "-0.1"),
        ("pairs", "--alpha", "nan"),
        ("pairs", "--beta", "1.5"),
    ],
)
def test_out_of_range_unit_float_flag_exit_2(tmp_path, capsys, command, flag, value):
    if command == "simulate":
        argv = ["simulate", str(scenario_file(tmp_path))]
    else:
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\n")
        argv = ["pairs", str(records), "--alpha", "0.1", "--beta", "0.9"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be in [0, 1]" in capsys.readouterr().err


BOM = b"\xef\xbb\xbf"
BIG_VOTES = b"task_id,worker_id,item_id,label\r\n" + "".join(
    f"{k},w{k},{k},1\r\n" for k in range(900)).encode()
BIG_TRUTH = "\r\n".join(map(str, range(900))).encode() + b"\r\n"
NON_UTF8 = {  # (file bytes, line of the bad byte)
    # the bad byte lies past the decoder's first chunk, so its offset is no line number
    "votes": (BIG_VOTES + b"7,\xff,8,1\r\n", 902),
    "truth": (BIG_TRUTH + b"7,\xff,8,1\r\n", 901),
    "scenario": (json.dumps(dict(n_items=20, n_dirty=4, task_size=3, n_tasks=6, fn_rate=0.1,
                                 fp_rate=0.05, seed=3)).encode()[:-1] + b', "\xff": 1}', 1),
    # a decoder that skips the mark counts its offsets 3 bytes short
    "votes-bom": (BOM + b"task_id,worker_id,item_id,label\n0,w0,0,1\n\xff,w1,1,1\n", 3),
    "truth-bom": (BOM + b"1\n2\n\xff\n", 3),
    # lone CRs are line ends, also once the truth reader has replaced them before decoding
    "truth-cr": (b"\r".join(str(k).encode() for k in range(900)) + b"\r\xff\r", 901),
    "scenario-bom": (BOM + b'{"n_items": 20,\n "n_dirty": 4,\n "\xff": 1}\n', 3),
}


def test_import_leaves_numpy_random_unloaded():
    # estimate and pairs draw nothing, so importing the CLI must not load np.random;
    # numpy 1.x loads it on `import numpy` already, and there the test has nothing to see
    code = "import sys; sys.path.insert(0, sys.argv[1]); import numpy; " \
           "print('numpy.random' in sys.modules); import errest.cli; " \
           "print('numpy.random' in sys.modules)"
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    if out.stdout == "True\nTrue\n":
        pytest.skip("import numpy loads numpy.random itself")
    assert out.stdout == "False\nFalse\n"


class TestEstimate:
    def test_golden_trajectory(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(
            [
                "estimate", str(DATA / "fixture_votes.csv"),
                "--n-items", "3",
                "--truth", str(DATA / "fixture_truth.csv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_bytes() == (DATA / "fixture_golden.csv").read_bytes()

    def test_stdout_out_equals_file_out(self, tmp_path, capsys):
        argv = ["estimate", str(DATA / "fixture_votes.csv"), "--n-items", "3"]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
        assert not sys.stdout.closed

    def test_empty_votes_file(self, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n")
        out = tmp_path / "out.csv"
        code = main(["estimate", str(votes), "--n-items", "5", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip() == (
            "task_index,nominal,majority,chao92_total,vchao92_total,switch_total,"
            "xi_pos,xi_neg,coverage_hat,truth,flags"
        )

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,banana\n")
        code = main(["estimate", str(votes), "--n-items", "5"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('0,"two\nlines",0,1\n0,w1,1,2\n', "line 4: label '2' must be 0 or 1"),
            (f"0,{'w' * 140_000},0,1\n", "line 2: field larger than field limit"),
        ],
        ids=["bad-label-after-multiline", "oversized-field"],
    )
    def test_malformed_votes_exit_2_name_line(self, tmp_path, capsys, text, message):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n" + text)
        code = main(["estimate", str(votes), "--n-items", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    def test_inconsistent_universe_exit_2(self, tmp_path, capsys):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,9,1\n")
        code = main(["estimate", str(votes), "--n-items", "3"])
        assert code == 2
        assert "universe" in capsys.readouterr().err

    @pytest.mark.parametrize("items", [[2**63], [10**19], [0, 10**19]],
                             ids=["2**63", "alone", "after-a-small-id"])
    def test_item_id_past_int64_exit_2_name_line(self, tmp_path, capsys, items):
        # item ids are int64 even inside a larger universe: alone, 10**19 once wrapped to a
        # negative id, and after a small id it ended in an OverflowError traceback
        votes = tmp_path / "votes.csv"
        rows = "".join(f"0,w{k},{item},1\n" for k, item in enumerate(items))
        votes.write_text("task_id,worker_id,item_id,label\n" + rows)
        code = main(["estimate", str(votes), "--n-items", str(10**20)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        message = f"line {len(items) + 1}: item_id {items[-1]} outside int64 range [0, 2**63)"
        assert message in captured.err

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--trend-window", ["--n-items", "5", "--trend-window", "-3"]),
            ("--shift", ["--n-items", "5", "--shift", "-1"]),
            ("--n-items", ["--n-items", "-1"]),
        ],
    )
    def test_negative_integer_flag_exit_2(self, tmp_path, capsys, flag, extra):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n")
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(votes), *extra])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_huge_shift_exit_0(self, tmp_path):
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n1,w1,0,1\n2,w2,1,1\n")
        out = tmp_path / "out.csv"
        argv = ["estimate", str(votes), "--n-items", "5", "--shift", str(10**30)]
        assert main([*argv, "--out", str(out)]) == 0
        assert "vchao92_total:insufficient-data" in out.read_text()

    def test_huge_trend_window_exit_0(self, tmp_path):
        # a window past the task count looks back to before the log, like the task count
        outs = []
        for window in (10**30, 3):  # the fixture has 3 tasks
            out = tmp_path / f"out{len(outs)}.csv"
            argv = ["estimate", str(DATA / "fixture_votes.csv"), "--n-items", "10",
                    "--trend-window", str(window), "--out", str(out)]
            assert main(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_huge_universe_without_truth_exit_0(self, tmp_path):
        # without --truth nothing is sized by the universe, only by the log
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,1,1\n")
        out = tmp_path / "out.csv"
        assert main(["estimate", str(votes), "--n-items", str(10**15), "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["chao92_total"] == "1e+15"

    def test_huge_universe_with_truth_exit_0(self, tmp_path):
        # the truth is looked up at the logged items, so no array spans the universe
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,1,1\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("1\n")
        out = tmp_path / "out.csv"
        args = ["estimate", str(votes), "--n-items", str(10**15), "--truth", str(truth)]
        assert main([*args, "--out", str(out)]) == 0
        (row,) = read_rows(out)
        assert row["truth"] == "1" and row["chao92_total"] == "1e+15"

    def test_ids_near_int64_edge_same_bytes_as_small_ids(self, tmp_path):
        # grouping votes by item packs ids into int64 sort keys; ids just below 2**63
        # must group as the small ids in their place do
        outputs = []
        for ids in ((2**63 - 2, 2**63 - 2, 2**63 - 3), (1, 1, 0)):
            votes = tmp_path / f"votes{len(outputs)}.csv"
            rows = [f"{task},{worker},{item},{label}\n" for task, worker, item, label
                    in zip((0, 1, 1), ("w0", "w1", "w1"), ids, (1, 0, 1))]
            votes.write_text("task_id,worker_id,item_id,label\n" + "".join(rows))
            out = tmp_path / f"out{len(outputs)}.csv"
            args = ["estimate", str(votes), "--n-items", str(2**63 - 1), "--out", str(out)]
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert [row["majority"] for row in read_rows(out)] == ["1", "1"]

    def test_header_only_votes_file_quiet(self, tmp_path, capfd):
        # a plain header-only body is never handed to numpy's reader, which would warn
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", str(votes), "--n-items", "5"]) == 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("item", ["1_0", "\u0661", "\uff11"])
    @pytest.mark.parametrize("where", ["votes", "truth"])
    def test_non_ascii_or_underscore_id_exit_2(self, tmp_path, capsys, where, item):
        # int() reads "1_0" as 10 and Arabic-Indic or fullwidth digits as 1
        votes = tmp_path / "votes.csv"
        truth = tmp_path / "truth.csv"
        if where == "votes":
            votes.write_text(f"task_id,worker_id,item_id,label\n0,w0,{item},1\n", "utf-8")
            truth.write_text("0\n")
            message = f"line 2: item_id {item!r} is not an integer"
        else:
            votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n")
            truth.write_text(f"0\n{item}\n", "utf-8")
            message = f"line 2: truth entry {item!r} is not an integer"
        code = main(["estimate", str(votes), "--n-items", "20", "--truth", str(truth)])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("case", list(NON_UTF8))
    def test_non_utf8_file_exit_2_name_line(self, tmp_path, capsys, case):
        data, line = NON_UTF8[case]
        where = case.split("-")[0]
        paths = {name: tmp_path / f"{name}.in" for name in ("votes", "truth", "scenario")}
        paths["votes"].write_bytes(BIG_VOTES)
        paths["truth"].write_bytes(BIG_TRUTH)
        paths[where].write_bytes(data)
        if where == "scenario":
            argv = ["simulate", str(paths["scenario"])]
        else:
            argv = ["estimate", str(paths["votes"]), "--n-items", "900",
                    "--truth", str(paths["truth"])]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert f"line {line}: byte 0xff is not valid UTF-8" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "s.json", "--votes-out", "s.json"], "--votes-out"),
    (["simulate", "s.json", "--out", "o.csv", "--truth-out", "./s.json"], "--truth-out"),
    (["simulate", "s.json", "--out", "alias.json"], "--out"),  # a symlink to the scenario
    (["estimate", "v.csv", "--n-items", "3", "--out", "v.csv"], "--out"),
    (["estimate", "v.csv", "--n-items", "3", "--truth", "t.csv", "--out", "t.csv"], "--out"),
    (["pairs", "r.csv", "--alpha", "0.5", "--beta", "0.9", "--out", "r.csv"], "--out"),
])
def test_output_naming_an_input_exit_2_input_kept(tmp_path, monkeypatch, capsys, argv, flag):
    # each command once exited 0 having written its table over the file it had read
    monkeypatch.chdir(tmp_path)
    for name, fixture in (("s.json", "fixture_scenario.json"), ("v.csv", "fixture_votes.csv"),
                          ("t.csv", "fixture_truth.csv"), ("r.csv", "fixture_records.csv")):
        shutil.copy(DATA / fixture, name)
    (tmp_path / "alias.json").symlink_to("s.json")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main(argv) == 2
    message = f"errest: {flag} {argv[argv.index(flag) + 1]} would overwrite an input file\n"
    assert capsys.readouterr() == ("", message)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_one_file_read_as_votes_and_truth_not_an_overwrite(tmp_path, capsys):
    # only outputs are checked against inputs: the truth reader names the file's first line
    votes, out = DATA / "fixture_votes.csv", tmp_path / "out.csv"
    argv = ["estimate", str(votes), "--n-items", "3", "--truth", str(votes), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("errest: line 1: truth entry "
                                       "'task_id,worker_id,item_id,label' is not an integer\n")


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch, command):
    # A callee raises MemoryError the way numpy does on a huge universe; a
    # real huge allocation may succeed under overcommit and then be killed.
    reason = "Unable to allocate 7.28 TiB for an array with shape (10**12,)"

    def allocate(*args, **kwargs):
        raise MemoryError(reason)

    if command == "estimate":
        monkeypatch.setattr("errest.trajectory.SwitchReplay", allocate)
        votes = tmp_path / "votes.csv"
        votes.write_text("task_id,worker_id,item_id,label\n0,w0,0,1\n")
        argv = ["estimate", str(votes), "--n-items", "5"]
    else:
        monkeypatch.setattr("errest.cli.simulate", allocate)
        argv = ["simulate", str(scenario_file(tmp_path))]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"errest: out of memory: {reason}\n"
    assert captured.out == ""


class TestSimulate:
    @pytest.mark.parametrize(
        "flag, value, bound",
        [("--permutations", "0", ">= 1"), ("--seed", "-1", ">= 0")],
    )
    def test_out_of_range_integer_flag_exit_2(self, tmp_path, capsys, flag, value, bound):
        scenario = scenario_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(scenario), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {bound}" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_items", 100.5),
            ("n_dirty", -1),
            ("task_size", 5.0),
            ("n_tasks", 3.0),
            ("fp_rate", False),
            ("fn_rate", True),
            ("epsilon", "0.1"),
            ("heuristic_error", None),
            ("permutations", 2.5),
            ("seed", True),
            ("seed", 1.5),
            ("seed", -4),
            ("prioritize", "yes"),
        ],
    )
    def test_malformed_scenario_value_named_exit_2(self, tmp_path, capsys, key, value):
        scenario = scenario_file(tmp_path, **{key: value})
        assert main(["simulate", str(scenario)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_items", "n_tasks"])
    def test_size_beyond_int64_named_exit_2(self, tmp_path, capsys, key):
        sizes = dict(n_items=1, n_dirty=0, task_size=1, n_tasks=1)
        scenario = scenario_file(tmp_path, **{**sizes, key: 10**20})
        assert main(["simulate", str(scenario)]) == 2
        assert f"{key} must be below 2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", 2**80), ("task_size", 10**20)])
    def test_unbounded_key_beyond_int64_exit_0(self, tmp_path, key, value):
        scenario = scenario_file(tmp_path, n_tasks=3, **{key: value})
        assert main(["simulate", str(scenario), "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("sizes", [
        dict(n_items=1, n_dirty=0, task_size=1, n_tasks=2**63 - 1),
        dict(n_items=3, n_dirty=1, task_size=2, n_tasks=2**62),
    ])
    def test_votes_beyond_array_size_named_exit_2(self, tmp_path, capsys, sizes):
        # numpy's own "array is too big" message would name no key
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(sizes))
        assert main(["simulate", str(path)]) == 2
        assert "n_tasks * task_size" in capsys.readouterr().err

    def test_permutations_beyond_array_size_named_exit_2(self, tmp_path, capsys):
        # per_run would hold 8 bytes per permutation and task, past any array size
        scenario = scenario_file(tmp_path)  # 25 tasks
        out = tmp_path / "out.csv"
        argv = ["simulate", str(scenario), "--permutations", "99999999999999999999", "--out",
                str(out)]
        assert main(argv) == 2
        runs = 99999999999999999999 * 25
        assert (f"permutations * n_tasks (at least 1) must be below 2**60: {runs}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("prioritize", [False, True])
    def test_zero_items_with_tasks_named_exit_2(self, tmp_path, capsys, prioritize):
        # Every task would be empty, so the summary would hold no estimate at all.
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(
            dict(n_items=0, n_dirty=0, task_size=3, n_tasks=3, prioritize=prioritize)))
        out = tmp_path / "out.csv"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert "n_items must be >= 1 when n_tasks > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_scenario_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["simulate", str(path)]) == 2
        assert "nests too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("permutations", [1, 10])
    def test_golden_summary(self, tmp_path, permutations):
        out = tmp_path / "out.csv"
        code = main([
            "simulate", str(DATA / "fixture_scenario.json"),
            "--permutations", str(permutations), "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (DATA / f"fixture_summary_p{permutations}.csv").read_bytes()

    def test_golden_truth_out(self, tmp_path):
        truth = tmp_path / "truth.csv"
        code = main(["simulate", str(DATA / "fixture_scenario.json"),
                     "--out", str(tmp_path / "out.csv"), "--truth-out", str(truth)])
        assert code == 0
        assert truth.read_bytes() == (DATA / "fixture_sim_truth.csv").read_bytes()

    def test_votes_out_stdout(self, tmp_path, capsys):
        argv = ["simulate", str(DATA / "fixture_scenario.json"), "--votes-out"]
        votes = tmp_path / "votes.csv"
        assert main([*argv, str(votes), "--out", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        assert main([*argv, "-", "--out", str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out.encode() == votes.read_bytes()

    @pytest.mark.parametrize("extra", [["--votes-out", "-"], ["--truth-out", "-"],
                                       ["--out", "x.csv", "--votes-out", "-", "--truth-out", "-"]])
    def test_stdout_named_twice_exit_2(self, tmp_path, monkeypatch, capsys, extra):
        # two tables on one stream could not be parsed apart
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(DATA / "fixture_scenario.json"), *extra]) == 2
        assert capsys.readouterr() == ("", "errest: only one of --out, --votes-out and "
                                           "--truth-out may be - (stdout)\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("extra", [["--out", "same.csv", "--votes-out", "./same.csv"],
                                       ["--votes-out", "x", "--truth-out", "./x"]])
    def test_file_named_twice_exit_2(self, tmp_path, monkeypatch, capsys, extra):
        # the later table would silently overwrite the earlier one
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", str(DATA / "fixture_scenario.json"), *extra]) == 2
        assert capsys.readouterr() == ("", "errest: --out, --votes-out and --truth-out "
                                           "must name different files\n")
        assert list(tmp_path.iterdir()) == []

    def test_golden_votes_through_stratum_fallback(self, tmp_path):
        # epsilon 0 and an error-free heuristic put the 2 dirty items alone in the
        # ambiguous band, so every task of 3 exhausts it and falls back once
        scenario = scenario_file(tmp_path, n_items=10, n_dirty=2, task_size=3, n_tasks=8,
                                 epsilon=0.0, permutations=1, prioritize=True)
        votes = tmp_path / "votes.csv"
        with pytest.warns(RuntimeWarning, match="requested stratum empty or exhausted"):
            code = main(["simulate", str(scenario), "--out", str(tmp_path / "out.csv"),
                         "--votes-out", str(votes)])
        assert code == 0
        assert votes.read_bytes() == (DATA / "fixture_sim_votes_exhausted.csv").read_bytes()

    def test_deterministic_output(self, tmp_path):
        scenario = scenario_file(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(scenario), "--out", str(out_a)]) == 0
        assert main(["simulate", str(scenario), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unknown_scenario_key_named_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"n_items": 10, "bogus_key": 1}))
        code = main(["simulate", str(path)])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_repeated_scenario_key_named_exit_2(self, tmp_path, capsys):
        # json.loads alone keeps the last value: this scenario would run with n_items=30
        path = tmp_path / "scenario.json"
        path.write_text('{"n_items": 20, "n_dirty": 4, "task_size": 3, "n_tasks": 6, '
                        '"n_items": 30, "seed": 1}')
        code = main(["simulate", str(path)])
        assert code == 2
        assert "repeated scenario key: 'n_items'" in capsys.readouterr().err

    def test_summary_shape_and_truth_column(self, tmp_path):
        scenario = scenario_file(tmp_path, permutations=2, n_tasks=10)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scenario), "--out", str(out)]) == 0
        rows = read_rows(out)
        estimators = {r["estimator"] for r in rows}
        assert estimators == {
            "nominal", "majority", "chao92_total", "vchao92_total",
            "switch_total", "xi_pos", "xi_neg",
        }
        assert len(rows) == 10 * 7
        totals = [r for r in rows if r["estimator"] == "majority"]
        assert all(r["truth"] == "8" for r in totals)

    def test_r1_std_zero_for_order_free_estimators(self, tmp_path):
        scenario = scenario_file(tmp_path, permutations=1, n_tasks=8)
        out = tmp_path / "out.csv"
        assert main(["simulate", str(scenario), "--out", str(out)]) == 0
        final = [r for r in read_rows(out) if r["task_index"] == "7"]
        for r in final:
            if r["estimator"] in ("nominal", "majority", "chao92_total"):
                assert r["std"] == "0"

    def test_round_trip_matches_estimate(self, tmp_path):
        scenario = scenario_file(tmp_path, permutations=1)
        sim_out = tmp_path / "sim.csv"
        votes_out = tmp_path / "votes.csv"
        truth_out = tmp_path / "truth.csv"
        assert main(
            [
                "simulate", str(scenario),
                "--out", str(sim_out),
                "--votes-out", str(votes_out),
                "--truth-out", str(truth_out),
            ]
        ) == 0
        est_out = tmp_path / "est.csv"
        assert main(
            [
                "estimate", str(votes_out),
                "--n-items", "40",
                "--truth", str(truth_out),
                "--out", str(est_out),
            ]
        ) == 0
        sim_rows = read_rows(sim_out)
        est_rows = read_rows(est_out)
        for est_row in est_rows:
            k = est_row["task_index"]
            for name in ("nominal", "majority", "chao92_total", "vchao92_total",
                         "switch_total", "xi_pos", "xi_neg"):
                sim_cell = next(
                    r["mean"] for r in sim_rows
                    if r["task_index"] == k and r["estimator"] == name
                )
                assert sim_cell == est_row[name]


INT64 = np.iinfo(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
              st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-310,
                               1e16])),
    st.one_of(st.integers(INT64.min, INT64.max), st.sampled_from([INT64.min, INT64.max, 0, -1])),
), max_size=30))
@example([(float("nan"), INT64.min), (float("inf"), INT64.max), (-float("inf"), 0), (-0.0, -1),
          (0.0, 1), (5e-324, 2), (1e-310, 3), (1e16, 4), (123456789.5, 5)])
@example([])  # a table of no rows is its header line
def test_column_cells_equal_fmt_per_cell(cells):
    # a float column formatted by _fmt_column and written by %s, an int column by %d: each
    # cell as fmt writes it, and the table as the row-by-row csv.writer writes it
    floats, ints = (list(column) for column in zip(*cells)) if cells else ([], [])
    assert list(_fmt_column(floats)) == list(map(fmt, floats))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "table.csv")
        core._write_table(path, ["x", "i"], "%s,%d\n", zip(_fmt_column(floats), ints))
        assert path.read_bytes() == write_rows_oracle([["x", "i"], *zip(floats, ints)]).encode()


def test_table_over_several_blocks(tmp_path):
    # rows go out in blocks of 4,096: the seams add or drop nothing
    rng = np.random.default_rng(7)
    ints, floats = rng.integers(-10**12, 10**12, 10_000).tolist(), rng.normal(size=10_000)
    floats[::7] = np.nan
    path = tmp_path / "table.csv"
    core._write_table(path, (), "%d,%s\n", zip(ints, _fmt_column(floats.tolist())))
    assert path.read_bytes() == write_rows_oracle(zip(ints, floats.tolist())).encode()


def test_zero_task_scenario_writes_header_only(tmp_path):
    scenario = scenario_file(tmp_path, n_tasks=0)
    out = tmp_path / "out.csv"
    assert main(["simulate", str(scenario), "--out", str(out)]) == 0
    assert out.read_bytes() == b"task_index,estimator,mean,std,truth\n"


# Ids that csv.writer must quote, and non-ASCII ones, none with edge whitespace,
# which the readers strip.
ODD_IDS = ["a,b", 'say "hi"', "a\nb", "a\r\nb", '"', ",", "caf\u00e9", "\u6771\u4eac",
           "\U0001f600", "plain"]


def odd_id_outputs(tmp_path, ids):
    """A vote log and a records file over ids: the log, its export, and the pairs table."""
    n = len(ids)
    workers = [ids[3 * k % n] for k in range(n)]
    log = VoteLog.from_ids(list(range(n)), [k % 2 == 0 for k in range(n)], workers, ids, n)
    votes, records, out = tmp_path / "votes.csv", tmp_path / "records.csv", tmp_path / "out.csv"
    write_votes_csv(log, votes)
    with open(records, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([["record_id", "name"], *zip(ids, ids)])
    assert main(["pairs", str(records), "--alpha", "0.2", "--beta", "0.8", "--out", str(out)]) == 0
    return log, votes, records, out


def test_odd_ids_quoted_as_csv_writer_quotes_them(tmp_path):
    log, votes, records, out = odd_id_outputs(tmp_path, ODD_IDS)
    workers, tasks = vote_ids(log)
    rows = zip(tasks, workers, log.item_ids.tolist(), log.dirty.astype(int).tolist())
    assert votes.read_bytes() == write_rows_oracle([VOTES_HEADER, *rows]).encode()
    stratum = stratum_rule(0.2, 0.8)
    rows = [(left, right, score, stratum(score))
            for left, right, score in iter_scored_pairs(read_records_csv(records))]
    assert len(rows) == len(ODD_IDS) * (len(ODD_IDS) - 1) // 2
    assert out.read_bytes() == write_rows_oracle([cli.PAIRS_HEADER, *rows]).encode()
    back = read_votes_csv(votes, log.item_count)
    assert (back.item_ids.tolist(), back.dirty.tolist()) == (log.item_ids.tolist(),
                                                             log.dirty.tolist())
    assert vote_ids(back) == vote_ids(log)


def test_lone_cr_in_id_quoted(tmp_path):
    # csv.writer under an LF terminator leaves a lone CR bare on Python 3.11, and a
    # reader then splits the row there; every CR and LF is quoted instead
    ids = ["a\rb", "c\rd\re", "plain"]
    log, votes, _, out = odd_id_outputs(tmp_path, ids)
    assert votes.read_bytes().count(b'"') == 2 * 5 and out.read_bytes().count(b'"') == 2 * 4
    back = read_votes_csv(votes, log.item_count)
    assert vote_ids(back) == vote_ids(log)
    assert [(row["left_id"], row["right_id"]) for row in read_rows(out)] == [
        ("a\rb", "c\rd\re"), ("a\rb", "plain"), ("c\rd\re", "plain")]


def expected_trajectory_csv(votes, n_items, truth):
    """The estimate table by the oracles: parse, replay from scratch, write row by row;
    None where the file or the log breaks the contract."""
    try:
        items, dirty, workers, tasks, _ = parse_votes_oracle(votes)
        log = VoteLog.from_ids(items, dirty, workers, tasks, n_items)
    except MalformedInputError:
        return None
    traj = trajectory_oracle(log, DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, truth)
    columns = [getattr(traj, name) for name in cli.TRAJECTORY_HEADER[:-2]]
    truth_cells = [None] * len(traj) if traj.truth is None else traj.truth
    return write_rows_oracle([cli.TRAJECTORY_HEADER, *zip(*columns, truth_cells, traj.flags)])


def log_csv_text(log):
    """A well-formed log as votes CSV text, written row by row."""
    workers, tasks = vote_ids(log)
    rows = zip(tasks, workers, log.item_ids.tolist(), log.dirty.astype(int).tolist())
    return write_rows_oracle([VOTES_HEADER, *rows])


@settings(max_examples=120, deadline=None)
@given(st.one_of(votes_csv_texts(), plain_votes_csv_texts(),
                 st.one_of(vote_logs(), pooled_vote_logs()).map(log_csv_text)),
       st.none() | st.lists(st.integers(0, 7), max_size=10))
def test_estimate_bytes_equal_oracle(text, truth_ids):
    with tempfile.TemporaryDirectory() as tmp:
        votes, truth_path, out = (Path(tmp, name) for name in ("votes.csv", "truth.csv", "out"))
        votes.write_bytes(text.encode("utf-8"))
        argv = ["estimate", str(votes), "--n-items", "8", "--out", str(out)]
        truth = None
        if truth_ids is not None:
            truth_path.write_text("".join(f"{item}\n" for item in truth_ids))  # with repeats
            argv += ["--truth", str(truth_path)]
            truth = GroundTruth(np.array(sorted(set(truth_ids)), np.int64), 8)
        expected = expected_trajectory_csv(votes, 8, truth)
        with redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == (2 if expected is None else 0)
        if expected is not None:
            assert out.read_bytes() == expected.encode()


@st.composite
def small_scenarios(draw):
    n_items = draw(st.integers(1, 10))
    rates = st.sampled_from([0.0, 0.1, 0.3])
    return dict(n_items=n_items, n_dirty=draw(st.integers(0, n_items)),
                task_size=draw(st.integers(1, 4)), n_tasks=draw(st.integers(0, 6)),
                fp_rate=draw(rates), fn_rate=draw(rates), seed=draw(st.integers(0, 5)),
                prioritize=draw(st.booleans()), epsilon=draw(st.sampled_from([0.0, 0.1, 1.0])),
                heuristic_error=draw(rates))


@settings(max_examples=40, deadline=None)
@given(small_scenarios(), st.integers(1, 3))
def test_simulate_bytes_equal_oracle(scenario, permutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scenario.json")
        path.write_text(json.dumps(scenario))
        outs = [Path(tmp, name) for name in ("out.csv", "votes.csv", "truth.csv")]
        argv = ["simulate", str(path), "--permutations", str(permutations)]
        for flag, out in zip(("--out", "--votes-out", "--truth-out"), outs):
            argv += [flag, str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # an exhausted stratum
            assert main(argv) == 0
            sc = replace(load_scenario(path), permutations=permutations)
            log, truth = simulate(sc)
        written = [out.read_bytes() for out in outs]

    workers, tasks = vote_ids(log)
    votes = zip(tasks, workers, log.item_ids.tolist(), log.dirty.astype(int).tolist())
    # The identity order first, then one permutation draw per further order.
    rng, n_tasks, runs = np.random.default_rng(sc.seed), log.task_count, []
    for r in range(permutations):
        permuted = log if r == 0 else permute_tasks_oracle(log, rng.permutation(n_tasks))
        traj = trajectory_oracle(permuted, DEFAULT_SHIFT, DEFAULT_TREND_WINDOW, truth)
        columns = [*ESTIMATE_COLUMNS, "truth_xi_pos", "truth_xi_neg"]
        runs.append(np.array([getattr(traj, name) for name in columns], dtype=float).T)
    mean, std = (a.tolist() for a in nan_aggregate_oracle(np.stack(runs)))
    summary = [cli.SUMMARY_HEADER]
    for k in range(n_tasks):
        for j, name in enumerate(ESTIMATE_COLUMNS):  # xi_pos and xi_neg against their truth
            truth_cell = mean[k][j + 2] if name.startswith("xi_") else sc.n_dirty
            summary.append((k, name, mean[k][j], std[k][j], truth_cell))
    assert written == [write_rows_oracle(summary).encode(),
                       write_rows_oracle([VOTES_HEADER, *votes]).encode(),
                       write_rows_oracle([item] for item in truth.dirty_ids.tolist()).encode()]


@st.composite
def unique_records_texts(draw):
    """Records CSV text with unique ids, some of which csv must quote, written by csv.writer."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "r1", "r10", "x,y", 'q"t', "m\nn", "\u00e9"]),
                        unique=True, max_size=6))
    cell = st.sampled_from(["x", "", " y ", "p\nq", "r, s", 'r"s', "Ann Lee", "ann  lee", "Bo"])
    width = draw(st.integers(1, 3))
    buf = io.StringIO()
    rows = [(rid, *draw(st.lists(cell, min_size=width, max_size=width))) for rid in ids]
    csv.writer(buf).writerows([["record_id", *["f"] * width], *rows])
    return buf.getvalue()


@settings(max_examples=100, deadline=None)
@given(records_csv_texts() | unique_records_texts(),
       st.sampled_from([(0.0, 1.0), (0.5, 0.5), (0.2, 0.8), (0.0, 0.0), (1.0, 1.0)]))
def test_pairs_bytes_equal_oracle(text, band):
    alpha, beta = band
    with tempfile.TemporaryDirectory() as tmp:
        records, out = Path(tmp, "records.csv"), Path(tmp, "out.csv")
        records.write_bytes(text.encode("utf-8"))
        try:
            table = read_records_oracle(records)
        except MalformedInputError:
            table = None
        with redirect_stderr(io.StringIO()):
            code = main(["pairs", str(records), "--alpha", str(alpha), "--beta", str(beta),
                         "--out", str(out)])
        assert code == (2 if table is None else 0)
        if table is None:
            return
        rows = [cli.PAIRS_HEADER]
        for (left, a), (right, b) in combinations(sorted(zip(table.ids, table.fields)), 2):
            na, nb = normalize_fields(a), normalize_fields(b)
            longest = max(len(na), len(nb))
            score = 1.0 - edit_distance_oracle(na, nb) / longest if longest else 1.0
            rows.append((left, right, score, "auto_dirty" if score > beta else
                         "auto_clean" if score < alpha else "ambiguous"))
        assert out.read_bytes() == write_rows_oracle(rows).encode()


class TestPairs:
    def test_identical_records_single_auto_dirty_pair(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name,note\na,same,\nb,same,\n")
        out = tmp_path / "pairs.csv"
        assert main(
            ["pairs", str(records), "--alpha", "0.5", "--beta", "0.9", "--out", str(out)]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 1
        assert rows[0]["similarity"] == "1" and rows[0]["stratum"] == "auto_dirty"

    def test_disjoint_records_auto_clean(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,xxxx\nb,yyyy\nc,zzzz\n")
        out = tmp_path / "pairs.csv"
        assert main(
            ["pairs", str(records), "--alpha", "0.2", "--beta", "0.9", "--out", str(out)]
        ) == 0
        assert all(r["stratum"] == "auto_clean" for r in read_rows(out))

    def test_fixture_ambiguous_set(self, tmp_path):
        out = tmp_path / "pairs.csv"
        assert main(
            [
                "pairs", str(DATA / "fixture_records.csv"),
                "--alpha", "0.5", "--beta", "0.9",
                "--out", str(out),
            ]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 45
        ambiguous = {
            (r["left_id"], r["right_id"]) for r in rows if r["stratum"] == "ambiguous"
        }
        assert ambiguous == {("r0", "r1"), ("r2", "r3")}
        keys = [(r["left_id"], r["right_id"]) for r in rows]
        assert keys == sorted(keys)

    def test_golden_pairs_stdout(self, capsys):
        argv = ["pairs", str(DATA / "fixture_records.csv"), "--alpha", "0.5", "--beta", "0.9"]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (DATA / "fixture_pairs.csv").read_bytes()

    def test_duplicate_record_id_exit_2(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\na,y\n")
        code = main(["pairs", str(records), "--alpha", "0.1", "--beta", "0.9"])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("record_id,name\na,x\n,y\n", "line 3: empty record_id"),
            ("record_id\na\n  \n", "line 3: empty record_id"),
            ('record_id,name\na,x\nb,"unterminated\nc,z\nd,w\n',
             "line 3: unexpected end of data"),
            ('record_id,name\na,"two\nlines"\nb,x\na,y\n', "line 5: duplicate record_id 'a'"),
            ("record_id,name\na,x\nb\n", "line 3: expected 2 columns, got 1"),
            ("record_id,name\na,x\nb,y,z\n", "line 3: expected 2 columns, got 3"),
        ],
        ids=["empty-id", "blank-id-one-column", "unterminated-quote",
             "duplicate-after-multiline", "short-row", "long-row"],
    )
    def test_malformed_records_exit_2_name_line(self, tmp_path, capsys, text, message):
        records = tmp_path / "records.csv"
        records.write_text(text)
        code = main(["pairs", str(records), "--alpha", "0.1", "--beta", "0.9"])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'record_id,name\na,"two\nlines"\nb,caf\xe9\n', "line 4: byte 0xe9"),
            (BOM + b"record_id,name\na,x\n\xffb,y\n", "line 3: byte 0xff"),
            # the whole file is decoded before any row is checked, also past the first chunk
            (b"record_id,name\na\n" + b"b,x\n" * 3000 + b"c,caf\xe9\n", "line 3003: byte 0xe9"),
        ],
        ids=["multiline", "bom", "before-row-error"],
    )
    def test_non_utf8_records_exit_2_name_line(self, tmp_path, capsys, data, message):
        records = tmp_path / "records.csv"
        records.write_bytes(data)
        code = main(["pairs", str(records), "--alpha", "0.1", "--beta", "0.9"])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{message} is not valid UTF-8" in captured.err
        assert captured.out == ""

    def test_blank_records_row_skipped(self, tmp_path):
        # a row of only blanks is no record, as in a votes file
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\n  \nb,x\n")
        out = tmp_path / "pairs.csv"
        code = main(["pairs", str(records), "--alpha", "0.1", "--beta", "0.9", "--out", str(out)])
        assert code == 0
        assert [(r["left_id"], r["right_id"]) for r in read_rows(out)] == [("a", "b")]

    def test_bad_thresholds_exit_2(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\n")
        assert main(["pairs", str(records), "--alpha", "0.9", "--beta", "0.1"]) == 2


VALID_FILES = {
    "votes": b"task_id,worker_id,item_id,label\n0,w0,0,1\n0,w0,1,0\n1,w1,0,1\n1,w1,2,1\n2,w2,0,0\n",
    "truth": b"0\n2\n",
    "records": b'record_id,name,city\na,Ann Lee,"Rome, IT"\nb,Ann  Lee,Rome\nc,Bo,Oslo\n',
    # Compact JSON: a flipped byte cannot lengthen a number, so a run stays this small.
    "scenario": json.dumps(
        dict(n_items=20, n_dirty=4, task_size=3, n_tasks=6, fn_rate=0.1, fp_rate=0.05,
             permutations=2, seed=3), separators=(",", ":")).encode(),
}
INSERTS = [b'"', b",", b"\xef\xbb\xbf", b"\n", b"\r\n"]


@st.composite
def mutated(draw, data):
    """data after one to three byte flips, truncations or inserted quotes, commas,
    byte-order marks and line ends (one after a line end is a blank line)."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["flip", "truncate", "insert"] if data else ["insert"]))
        if kind == "flip":
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        else:
            data = data[:at] + draw(st.sampled_from(INSERTS)) + data[at:]
    return data


@pytest.mark.parametrize("kind", list(VALID_FILES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_input_file_exit_0_or_2(kind, data):
    # any damage to an input file is an input error, never an internal one
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in VALID_FILES}
        for name, text in VALID_FILES.items():
            paths[name].write_bytes(text)
        paths[kind].write_bytes(data.draw(mutated(VALID_FILES[kind]), label=kind))
        argv = {
            "votes": ["estimate", paths["votes"], "--n-items", "6", "--truth", paths["truth"]],
            "records": ["pairs", paths["records"], "--alpha", "0.2", "--beta", "0.8"],
            "scenario": ["simulate", paths["scenario"]],
        }["votes" if kind == "truth" else kind]
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([*map(str, argv), "--out", str(Path(tmp, "out.csv"))])
    assert code in (0, 2), err.getvalue()
    if code == 2 and kind != "scenario":
        assert re.search(r"line \d+: ", err.getvalue()), err.getvalue()
