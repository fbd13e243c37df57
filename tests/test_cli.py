"""CLI harness: report plumbing, exit codes, file round trips."""

import csv
import json
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from anarchy import auctions, flows, maxtsp, packing
from anarchy.cli import ExperimentConfig, build_parser, cmd_paper_table, main
from anarchy.rationals import parse_frac


def run(args, tmp_path=None, out=None):
    """Invoke the entry point with --out; returns (exit_code, out path)."""
    argv = list(args)
    target = None
    if out is not None:
        target = str(tmp_path / out)
        argv += ["--out", target]
    return main(argv), target


def rows_of(path):
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------------- paper table


def table_by_name(tmp_path):
    code, path = run(["auctions", "paper-table"], tmp_path, "table.json")
    assert code == 0
    return {r["name"]: r for r in rows_of(path)}


def test_paper_table_constants(tmp_path):
    rows = table_by_name(tmp_path)
    assert rows["multi-unit"]["poa"] == "32"
    for d in range(1, 6):
        assert rows[f"d-sparse-{d}"]["poa"] == str(16 * d * (d + 1))
    assert rows["maxtsp-fisher"]["poa"] == "12"
    assert rows["flow-eps-1/10"]["poa"] == "11/5"
    assert rows["flow-eps-1/2"]["poa"] == "3"
    assert rows["flow-eps-1"]["poa"] == "4"


def test_paper_table_symbolic_rows(tmp_path):
    rows = table_by_name(tmp_path)
    assert rows["xos"]["poa"] == "4*e/(e-1)"
    assert abs(rows["xos"]["poa_decimal"] - 6.3279) < 1e-3
    assert rows["mph-1"]["poa"] == "4*alpha_1"
    assert rows["mph-2"]["poa"] == "6*alpha_2"
    assert rows["mph-3"]["poa"] == "8*alpha_3"


def test_paper_table_runs_quickly():
    import time

    t0 = time.monotonic()
    rows = cmd_paper_table(ExperimentConfig("auctions", "paper-table"))
    assert time.monotonic() - t0 < 1.0
    assert len(rows) == 14


def test_paper_table_rows_time_themselves():
    import time

    t0 = time.monotonic()
    rows = cmd_paper_table(ExperimentConfig("auctions", "paper-table"))
    elapsed_ms = (time.monotonic() - t0) * 1000
    # cumulative stamps would sum to several times the elapsed time
    assert sum(r.wall_ms for r in rows) <= elapsed_ms


# -------------------------------------------------------------- exit codes


def test_exit_zero_on_clean_check():
    assert main(["packing", "check-lemma", "--rounds", "3"]) == 0


def test_exit_two_on_violated_verdict():
    assert main(["packing", "check-smoothness", "--m", "12"]) == 2


def test_exit_one_on_bad_domain(capsys):
    assert main(["bogus", "solve"]) == 1
    assert "error" in capsys.readouterr().err


def test_exit_one_on_missing_file(capsys):
    assert main(["packing", "solve", "--instance", "/nope/missing.json"]) == 1
    capsys.readouterr()


def test_exit_one_on_domain_mismatch(tmp_path, capsys):
    code, path = run(["flow", "gen", "--rounds", "1"], tmp_path, "f.json")
    assert code == 0
    assert main(["packing", "solve", "--instance", path]) == 1
    assert "flow" in capsys.readouterr().err


def test_exit_one_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": "flow", "instances": [')
    assert main(["flow", "solve", "--instance", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


def test_exit_one_on_bad_out_extension(tmp_path, capsys):
    target = str(tmp_path / "rows.txt")
    assert main(["auctions", "paper-table", "--out", target]) == 1
    capsys.readouterr()


def test_exit_one_on_packing_round(tmp_path, capsys):
    code, path = run(["packing", "gen", "--rounds", "1"], tmp_path, "p.json")
    assert code == 0
    assert main(["packing", "round", "--instance", path]) == 1
    capsys.readouterr()


SUBSET_GUARD = "anarchy: error: subset enumeration is limited to 10 items"


def assert_one_line_error(capsys, line):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [line]


def test_exit_one_on_config_lp_size_guard_smoothness(capsys):
    assert main(["auctions", "check-smoothness", "--m", "11"]) == 1
    assert_one_line_error(capsys, SUBSET_GUARD)


def test_exit_one_on_zero_grid_resolution(capsys):
    assert main(["auctions", "dynamics", "--grid", "0", "--rounds", "5"]) == 1
    assert_one_line_error(capsys, "anarchy: error: grid resolution must be positive")


def test_exit_one_on_config_lp_size_guard_solve(tmp_path, capsys):
    bid = {"k": 1, "clauses": [[{"T": [j], "v": "1"} for j in range(11)]]}
    path = tmp_path / "eleven.json"
    path.write_text(
        json.dumps(
            {"domain": "auctions", "kind": "mph", "instances": [{"m": 11, "bids": [bid]}]}
        )
    )
    assert main(["auctions", "solve", "--instance", str(path)]) == 1
    assert_one_line_error(capsys, SUBSET_GUARD)


def test_exit_one_on_zero_denominator_option(capsys):
    assert main(["flow", "round", "--eps", "1/0"]) == 1
    assert_one_line_error(
        capsys, "anarchy: error: argument --eps: invalid parse_frac value: '1/0'"
    )


def test_exit_one_on_zero_denominator_in_instance(tmp_path, capsys):
    code, path = run(["flow", "gen", "--rounds", "1"], tmp_path, "f.json")
    assert code == 0
    data = rows_of(path)
    data["instances"][0]["edges"][0]["cap"] = "1/0"
    with open(path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert main(["flow", "solve", "--instance", path]) == 1
    assert_one_line_error(capsys, "anarchy: error: zero denominator in rational '1/0'")


# -------------------------------------------------------------- round trip


def test_gen_solve_round_trip_packing(tmp_path):
    code, path = run(["packing", "gen", "--rounds", "4", "--seed", "9"], tmp_path, "p.json")
    assert code == 0
    code, out = run(["packing", "solve", "--instance", path], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    direct = packing.gen_instances("multi-unit", 4, 9, n=3, m=4)
    for row, inst in zip(rows, direct):
        _, value = packing.solve_packing_lp(inst, packing.truthful_bids(inst))
        assert parse_frac(row["value"]) == value


def test_gen_solve_round_trip_flow(tmp_path):
    code, path = run(["flow", "gen", "--rounds", "4", "--seed", "11"], tmp_path, "f.json")
    assert code == 0
    code, out = run(["flow", "solve", "--instance", path], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    direct = flows.gen_flow_instances(4, 11)
    for row, inst in zip(rows, direct):
        _, value = flows.greedy_fractional_flow(inst, flows.truthful_flow_bids(inst))
        assert parse_frac(row["value"]) == value


def test_gen_solve_round_trip_maxtsp(tmp_path):
    code, path = run(["maxtsp", "gen", "--rounds", "3", "--seed", "7"], tmp_path, "g.json")
    assert code == 0
    code, out = run(["maxtsp", "solve", "--instance", path], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    direct = maxtsp.gen_digraphs(3, 7, sizes=(4, 5))
    for row, g in zip(rows, direct):
        assert parse_frac(row["value"]) == maxtsp.max_weight_cycle_cover(g)[1]


def test_gen_solve_round_trip_auctions(tmp_path):
    code, path = run(
        ["auctions", "gen", "--rounds", "3", "--seed", "13"], tmp_path, "a.json"
    )
    assert code == 0
    code, out = run(["auctions", "solve", "--instance", path], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    direct = auctions.gen_symmetric_instances(3, 13)
    for row, (m, vals) in zip(rows, direct):
        assert parse_frac(row["value"]) == auctions.solve_cardinality_lp(m, vals)[1]


def test_gen_solve_round_trip_mph(tmp_path):
    code, path = run(
        ["auctions", "gen", "--k", "2", "--rounds", "3", "--seed", "5"],
        tmp_path,
        "m.json",
    )
    assert code == 0
    code, out = run(["auctions", "solve", "--instance", path], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    direct = auctions.gen_mph_instances(3, 5, k=2)
    for row, (m, vals) in zip(rows, direct):
        assert parse_frac(row["value"]) == auctions.solve_config_lp(len(vals), m, vals)[1]


def test_gen_is_deterministic(tmp_path):
    _, a = run(["flow", "gen", "--rounds", "2", "--seed", "3"], tmp_path, "a.json")
    _, b = run(["flow", "gen", "--rounds", "2", "--seed", "3"], tmp_path, "b.json")
    _, c = run(["flow", "gen", "--rounds", "2", "--seed", "4"], tmp_path, "c.json")
    assert Path(a).read_text() == Path(b).read_text()
    assert Path(a).read_text() != Path(c).read_text()


def test_round_command_reports_both_stages(tmp_path):
    code, path = run(["maxtsp", "gen", "--rounds", "2", "--seed", "2"], tmp_path, "g.json")
    assert code == 0
    code, out = run(["maxtsp", "round", "--instance", path, "--seed", "6"], tmp_path, "rows.json")
    rows = rows_of(out)
    assert code == 0
    for row in rows:
        relaxed = parse_frac(row["relaxed"])
        rounded = parse_frac(row["rounded"])
        assert 0 <= rounded <= relaxed
        # dropping one edge per cycle keeps at least half in expectation,
        # single samples can dip below but never below a third here
        assert rounded >= relaxed / 3


# ------------------------------------------------------------- row format


def test_csv_header_and_quoted_rationals(tmp_path):
    target = str(tmp_path / "t.csv")
    assert main(["auctions", "paper-table", "--out", target]) == 0
    with open(target, newline="") as fh:
        raw = fh.read()
    assert raw.splitlines()[0].startswith('"domain","action","name","seed"')
    assert '"11/5"' in raw
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["poa"] == "32"
    assert {r["name"] for r in rows} >= {"multi-unit", "xos", "mph-3"}


def test_every_row_carries_seed_and_config_hash(tmp_path):
    code, out = run(
        ["flow", "check-lemma", "--rounds", "2", "--seed", "21"], tmp_path, "r.json"
    )
    rows = rows_of(out)
    assert code == 0
    for row in rows:
        assert row["seed"] == 21
        assert len(row["config"]) == 12
        assert row["verdict"] == "holds"
        assert isinstance(row["wall_ms"], float)


def test_config_hash_tracks_parameters():
    base = ExperimentConfig("flow", "solve", seed=1)
    assert base.hash() == ExperimentConfig("flow", "solve", seed=1).hash()
    assert base.hash() != ExperimentConfig("flow", "solve", seed=2).hash()
    assert base.hash() != ExperimentConfig("flow", "solve", seed=1, m=3).hash()


def test_parser_accepts_spec_surface():
    args = build_parser().parse_args(
        ["flow", "round", "--instance", "x.json", "--seed", "4", "--eps", "1/3",
         "--rounds", "10", "--grid", "4", "--out", "y.csv"]
    )
    assert args.eps == Fr(1, 3)
    assert args.grid == 4


# ---------------------------------------------------------------- verdicts


def test_counterexample_command_certifies_gap(tmp_path):
    code, out = run(
        ["auctions", "counterexample", "--m", "6"], tmp_path, "ce.json"
    )
    rows = rows_of(out)
    assert code == 0
    row = rows[0]
    assert parse_frac(row["ratio"]) == 3
    assert row["is_nash"] is True
    assert row["max_regret"] == "0"


def test_check_smoothness_flow_holds(tmp_path):
    code, out = run(["flow", "check-smoothness"], tmp_path, "s.json")
    rows = rows_of(out)
    assert code == 0
    assert rows[0]["verdict"] == "holds"
    assert parse_frac(rows[0]["min_slack"]) >= 0


def test_dynamics_row_shape(tmp_path):
    code, out = run(
        ["flow", "dynamics", "--rounds", "200", "--seed", "2"], tmp_path, "d.json"
    )
    rows = rows_of(out)
    assert code == 0
    row = rows[0]
    assert row["rounds"] == 200
    assert row["verdict"] == "holds"
    ratio = parse_frac(row["ratio"])
    assert 1 <= ratio <= parse_frac(row["poa_bound"])
    assert parse_frac(row["max_half_value_regret"]) <= Fr(1, 4)
