import csv
import json
from pathlib import Path

import pytest

from errest.cli import main

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


class TestPairs:
    def test_identical_records_single_auto_dirty_pair(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,same,\nb,same,\n")
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

    def test_duplicate_record_id_exit_2(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\na,y\n")
        code = main(["pairs", str(records), "--alpha", "0.1", "--beta", "0.9"])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err

    def test_bad_thresholds_exit_2(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("record_id,name\na,x\n")
        assert main(["pairs", str(records), "--alpha", "0.9", "--beta", "0.1"]) == 2
