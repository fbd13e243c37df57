"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {"hedge-fair": {"horizon": 20}, "certify-lp": {}, "smooth-fair": {}, "tours-flows": {}}


def small_workload(name, seed=3, trace_ops=None):
    wl = workloads.WORKLOADS[name](workloads.load_library(), seed)
    for attr, value in SMALL[name].items():
        setattr(wl, attr, value)
    wl.trace_ops = trace_ops or min(wl.cycle, 12)
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name):
    wl = small_workload(name)
    wl.warm_up()
    result = run.timed_run(wl, 0.05, pins=[])
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["deterministic"]
    assert result["ops_per_s"] > 0 and result["op_ms_p90"] >= result["op_ms_p50"] > 0


def test_inputs_depend_only_on_seed_and_op_id():
    a, b = small_workload("certify-lp"), small_workload("certify-lp")
    ok_a, dig_a = a.check(a.make_input(5), a.run(a.make_input(5)))
    ok_b, dig_b = b.check(b.make_input(5), b.run(b.make_input(5)))
    assert ok_a and ok_b and dig_a == dig_b
    other = small_workload("certify-lp", seed=4)
    assert other.check(other.make_input(5), other.run(other.make_input(5)))[1] != dig_a


def test_perturbed_digest_counts_as_failed_op():
    wl = small_workload("tours-flows")
    ok, good = wl.check(wl.make_input(0), wl.run(wl.make_input(0)))
    assert ok
    bad = format(int(good, 16) ^ 1, "016x")
    result = run.timed_run(wl, 0.01, pins=[bad])
    assert result["failed"] == 1
    assert not result["deterministic"]  # the replay of op 0 fails the same pin
    assert run.timed_run(wl, 0.01, pins=[good])["failed"] == 0


def test_raising_op_counts_as_failed_op(monkeypatch):
    wl = small_workload("certify-lp")

    def broken(inp):
        raise ValueError("injected")

    monkeypatch.setattr(wl, "run", broken)
    result = run.timed_run(wl, 0.001, pins=[])
    assert result["failed"] == result["attempted"] >= 1


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "anarchy" or name.startswith("anarchy.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_patches_every_binding_and_restores_them():
    from tracer import Tracer

    wl = small_workload("certify-lp")
    before = _bindings()
    with Tracer("anarchy", workloads.LAYERS) as tracer:
        patched = set(tracer.patched)
        wl.run(wl.make_input(0))
    for module in ("packing", "auctions", "flows", "solvers", "solvers.lp"):
        assert (f"anarchy.{module}", "solve_lp") in patched
    assert ("anarchy.auctions", "weighted_index") in patched
    assert ("anarchy.flows", "max_weight_perfect_matching") in patched
    assert ("anarchy.auctions", "solve_packing_lp") in patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    run.traced_run(wl, 0.01, [], workloads.LAYERS)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_the_same_seed(name):
    counts = []
    for _ in range(2):
        wl = small_workload(name, trace_ops=4 if name == "hedge-fair" else None)
        wl.warm_up()
        result = run.traced_run(wl, 0.01, [], workloads.LAYERS)
        assert result["failed"] == 0 and result["deterministic"]
        counts.append(
            {
                k: v
                for k, (v, unit) in result["metrics"].items()
                if unit in ("count",) or k.endswith(".reuse")
            }
        )
    assert counts[0] == counts[1]
    assert counts[0]["op.calls"] > 0


def test_command_prints_the_result_contract(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "certify-lp",
         "--seed", "0", "--seconds", "0.05", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}
    assert set(result["metrics"]) == names


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-lp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
