from contextlib import redirect_stderr
import csv
import io
import json
from pathlib import Path
import re
import subprocess
import sys
import tempfile
import warnings

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from errest import cli
from errest.cli import _fmt_column, fmt, main

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
        where = case.removesuffix("-bom")
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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e-310, 1e16]),
), max_size=30))
@example([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 123456789.5])
def test_column_cells_equal_fmt_per_cell(values):
    column = np.array(values, dtype=float)
    assert _fmt_column(column) == list(map(fmt, column))


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
