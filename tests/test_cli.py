"""CLI harness: report plumbing, exit codes, file round trips."""

import csv
import json
import shlex
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from anarchy import auctions, cli, flows, maxtsp, packing
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


SUBSET_GUARD = "anarchy: error: subset enumeration is limited to 10 items"


def assert_one_line_error(capsys, line):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [line]


def test_exit_one_on_packing_round(tmp_path, capsys):
    code, path = run(["packing", "gen", "--rounds", "1"], tmp_path, "p.json")
    assert code == 0
    assert main(["packing", "round", "--instance", path]) == 1
    assert_one_line_error(
        capsys, "anarchy: error: the packing-lp rule has no rounding stage"
    )


def test_exit_one_on_mph_round(tmp_path, capsys):
    code, path = run(
        ["auctions", "gen", "--k", "2", "--rounds", "1"], tmp_path, "m.json"
    )
    assert code == 0
    capsys.readouterr()
    assert main(["auctions", "round", "--instance", path]) == 1
    assert_one_line_error(
        capsys, "anarchy: error: the config-lp rule has no rounding stage"
    )


@pytest.mark.parametrize(
    "payload, line",
    [
        ([], "anarchy: error: instance file must hold a JSON object, not list"),
        ({"domain": "flow"}, "anarchy: error: instance file needs an 'instances' list"),
        (
            {"domain": "flow", "instances": {}},
            "anarchy: error: instance file needs an 'instances' list",
        ),
    ],
)
def test_exit_one_on_malformed_instance_file(tmp_path, capsys, payload, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["flow", "solve", "--instance", str(path)]) == 1
    assert_one_line_error(capsys, line)


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["auctions", "dynamics", "--rounds", "0"], "--rounds", "0"),
        (["flow", "gen", "--rounds", "-2"], "--rounds", "-2"),
        (["auctions", "check-smoothness", "--m", "0"], "--m", "0"),
        (["packing", "check-lemma", "--d", "0"], "--d", "0"),
        (["auctions", "check-lemma", "--k", "0"], "--k", "0"),
        (["flow", "check-lemma", "--rounds", "two"], "--rounds", "two"),
    ],
)
def test_exit_one_on_non_positive_count(tmp_path, capsys, argv, option, text):
    target = tmp_path / "rows.json"
    assert main(argv + ["--out", str(target)]) == 1
    assert not target.exists()
    assert_one_line_error(
        capsys,
        f"anarchy: error: argument {option}: expected a positive integer, got {text!r}",
    )


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["packing", "check-lemma", "--d", "5"],
            "sparsity d must be at most 4, the most rows an instance has; got 5",
        ),
        (
            ["auctions", "check-lemma", "--k", "5"],
            "hierarchy level k must be at most 4, the most items an instance has; got 5",
        ),
        (
            ["auctions", "gen", "--k", "5"],
            "hierarchy level k must be at most 4, the most items an instance has; got 5",
        ),
    ],
)
def test_exit_one_on_generator_parameter_out_of_range(tmp_path, capsys, argv, line):
    target = tmp_path / "out.json"
    assert main(argv + ["--out", str(target)]) == 1
    assert not target.exists()
    assert_one_line_error(capsys, f"anarchy: error: {line}")


def test_gen_checks_out_before_generating(monkeypatch, capsys):
    def generate(config, count):
        raise AssertionError("instances generated before --out was checked")

    monkeypatch.setattr(cli, "_gen_payload", generate)
    assert main(["flow", "gen", "--rounds", "2"]) == 1
    assert_one_line_error(
        capsys, "anarchy: error: gen needs --out to know where to write instances"
    )


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


@pytest.mark.parametrize(
    "cap, line",
    [
        (1.5, "anarchy: error: cannot parse rational from float"),
        (True, "anarchy: error: booleans are not rationals"),
    ],
)
def test_exit_one_on_non_text_rational_in_instance(tmp_path, capsys, cap, line):
    code, path = run(["flow", "gen", "--rounds", "1"], tmp_path, "f.json")
    assert code == 0
    data = rows_of(path)
    data["instances"][0]["edges"][0]["cap"] = cap
    with open(path, "w") as fh:
        json.dump(data, fh)
    capsys.readouterr()
    assert main(["flow", "solve", "--instance", path]) == 1
    assert_one_line_error(capsys, line)


ONE_EDGE_FLOW = {
    "vertices": 2,
    "edges": [{"u": 0, "v": 1, "cap": "1"}],
    "source": 0,
    "requests": [{"sink": 1, "demand": "1", "value": "1"}],
}


def test_exit_one_on_non_object_instance_entry(tmp_path, capsys):
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"domain": "flow", "instances": [5]}))
    assert main(["flow", "solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("anarchy: error: ")


@pytest.mark.parametrize(
    "domain, payload, line",
    [
        (
            "flow",
            {"domain": "flow", "instances": [{}]},
            "anarchy: error: instance 0 has no field 'vertices'",
        ),
        (
            "auctions",
            {
                "domain": "auctions",
                "kind": "symmetric",
                "instances": [{"m": 1, "levels": [["0", "1"]]}, {"m": 1}],
            },
            "anarchy: error: instance 1 has no field 'levels'",
        ),
        (
            "auctions",
            {
                "domain": "auctions",
                "kind": "symetric",
                "instances": [{"m": 1, "levels": [["0", "1"]]}],
            },
            "anarchy: error: auctions kind must be 'symmetric' or 'mph', not 'symetric'",
        ),
        (
            "auctions",
            {
                "domain": "auctions",
                "kind": "mph",
                "instances": [
                    {
                        "m": 2,
                        "bids": [
                            {"k": 1, "clauses": [[{"T": [5], "v": "3"}]]},
                            {"k": 1, "clauses": [[{"T": [-1], "v": "2"}]]},
                        ],
                    }
                ],
            },
            "anarchy: error: player 0 bids on item 5; the auction has items 0 to 1",
        ),
        (
            "auctions",
            {
                "domain": "auctions",
                "kind": "symmetric",
                "instances": [{"m": 3, "levels": [["0", "1", "2", "3"], ["0", "1"]]}],
            },
            "anarchy: error: player 1 bids 2 levels; m = 3 needs 4, one per item count 0 to 3",
        ),
        # a JSON true or false is no index
        (
            "auctions",
            {
                "domain": "auctions",
                "kind": "mph",
                "instances": [
                    {"m": 2, "bids": [{"k": 1, "clauses": [[{"T": [True], "v": "3"}]]}]}
                ],
            },
            "anarchy: error: player 0 bids on item True; the auction has items 0 to 1",
        ),
        (
            "flow",
            {"domain": "flow", "instances": [dict(ONE_EDGE_FLOW, source=False)]},
            "anarchy: error: source outside the vertex range",
        ),
        (
            "flow",
            {
                "domain": "flow",
                "instances": [
                    dict(ONE_EDGE_FLOW, requests=[{"sink": True, "demand": "1", "value": "1"}])
                ],
            },
            "anarchy: error: sink outside the vertex range",
        ),
        (
            "flow",
            {
                "domain": "flow",
                "instances": [dict(ONE_EDGE_FLOW, edges=[{"u": 0, "v": True, "cap": "1"}])],
            },
            "anarchy: error: edge (0, True) leaves the vertex range",
        ),
    ],
)
def test_exit_one_on_malformed_instance_entry(tmp_path, capsys, domain, payload, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main([domain, "solve", "--instance", str(path)]) == 1
    assert_one_line_error(capsys, line)


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


def test_symmetric_auction_without_bidders(tmp_path):
    entry = {"m": 2, "levels": []}
    payload = {"domain": "auctions", "kind": "symmetric", "instances": [entry]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(payload))
    code, out = run(["auctions", "solve", "--instance", str(path)], tmp_path, "s.json")
    assert code == 0
    assert [r["value"] for r in rows_of(out)] == ["0"]
    code, out = run(["auctions", "round", "--instance", str(path)], tmp_path, "r.json")
    assert code == 0
    assert [(r["relaxed"], r["rounded"]) for r in rows_of(out)] == [("0", "0")]


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


def flow_round(inst, eps, seed):
    flow, relaxed = flows.greedy_fractional_flow(inst, flows.truthful_flow_bids(inst))
    paths = flows.rt_round(flow, inst, eps, seed).paths
    routed = [r.value for r, p in zip(inst.requests, paths) if p is not None]
    return relaxed, sum(routed, Fr(0))


def maxtsp_round(g, seed):
    cover, relaxed = maxtsp.max_weight_cycle_cover(g)
    return relaxed, maxtsp.fisher_round(cover, g, seed).weight(g)


def auctions_round(m, vals, seed):
    xbar, relaxed = auctions.solve_cardinality_lp(m, vals)
    sizes = auctions.fair_round(xbar, m, seed)
    return relaxed, sum((v.levels[s] for v, s in zip(vals, sizes)), Fr(0))


def direct_rounds(domain, eps, seed):
    """(relaxed, rounded) per instance gen writes, from the rounders themselves."""
    if domain == "flow":
        eps = Fr(1, 10) if eps is None else parse_frac(eps)
        return [flow_round(i, eps, seed) for i in flows.gen_flow_instances(5, seed)]
    if domain == "maxtsp":
        graphs = maxtsp.gen_digraphs(5, seed, sizes=(4, 5))
        return [maxtsp_round(g, seed) for g in graphs]
    pairs = auctions.gen_symmetric_instances(5, seed)
    return [auctions_round(m, vals, seed) for m, vals in pairs]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "domain, eps", [("flow", None), ("flow", "1/2"), ("maxtsp", None), ("auctions", None)]
)
def test_round_rows_match_the_rounders(tmp_path, domain, eps, seed):
    code, path = run([domain, "gen", "--seed", str(seed)], tmp_path, "i.json")
    assert code == 0
    argv = [domain, "round", "--instance", path, "--seed", str(seed)]
    if eps is not None:
        argv += ["--eps", eps]
    code, out = run(argv, tmp_path, "rows.json")
    assert code == 0
    reported = [(parse_frac(r["relaxed"]), parse_frac(r["rounded"])) for r in rows_of(out)]
    assert reported == direct_rounds(domain, eps, seed)


# ------------------------------------------------------------------ README


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    """The anarchy command lines of the README's CLI example block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("anarchy ")]


def test_readme_cli_block_runs(tmp_path, capsys):
    lines = readme_cli_lines()
    assert len(lines) >= 8
    for line in lines:
        command, _, comment = line.partition("#")
        argv = [a.replace("/tmp/", f"{tmp_path}/") for a in shlex.split(command)[1:]]
        expected = 2 if "exits 2" in comment else 0
        assert main(argv) == expected, line
        assert capsys.readouterr().err == "", line


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
    # pinned: rows written by earlier versions keep their config hash
    assert base.hash() == "4711bb6e1c08"
    argv = ["flow", "round", "--instance", "x.json", "--seed", "4", "--eps", "1/3",
            "--rounds", "10", "--grid", "4", "--out", "y.csv"]
    config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
    assert config.hash() == "22a76d141f5f"


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
