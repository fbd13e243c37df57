"""Closed-loop benchmark of the anarchy library.

    python3 bench/run.py --workload certify-lp --seed 0 --seconds 25 --trace 0

One process, one thread, one client: each op starts when the previous one
has been checked. Workloads and the layers they exercise are described in
bench/README.md and bench/workloads.py.

--trace 0 times ops with nothing patched and reports the end-to-end
metrics. --trace 1 runs a fixed list of ops in alternating plain and
traced passes and reports per-layer counts and self times, plus the
tracing overhead measured between the two kinds of pass.

Every run writes bench/out/<workload>-seed<seed>-trace<t>.json with the
metrics, the environment and the load average at its start and end; a
traced run also writes its spans to bench/out/spans-<workload>-seed<seed>.jsonl.
The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from time import perf_counter

from hostspeed import HostSpeed
from tracer import OP_LAYER, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

SETUP_REPEATS = 5  # set-up is timed this many times; setup_s is the median
CALIBRATE_EVERY_S = 0.2  # op time between host-speed samples
MIN_HOST_SAMPLES = 10
REPORTED_FAILURES = 3  # tracebacks printed to stderr per run

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _library_on_path() -> None:
    if not os.path.isfile(os.path.join(SRC, "anarchy", "__init__.py")):
        sys.exit(f"bench: the library source is missing (expected {SRC}/anarchy)")
    sys.path.insert(0, SRC)


# ------------------------------------------------------------ environment


def _git_sha():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ ops


class Judge:
    """Checks each op's output and compares its digest with the pinned one."""

    def __init__(self, workload, pins):
        self.workload = workload
        self.pins = pins
        self.digest_checked = 0
        self.reported = 0

    def __call__(self, op_id, inp, out) -> tuple:
        """(ok, digest); an output that cannot be checked is a failure."""
        if isinstance(out, Exception):
            return False, None
        try:
            ok, dig = self.workload.check(inp, out)
        except Exception:
            self.report(op_id, "check")
            return False, None
        if op_id < len(self.pins):
            self.digest_checked += 1
            if dig != self.pins[op_id]:
                print(
                    f"bench: op {op_id} digest {dig} differs from pinned {self.pins[op_id]}",
                    file=sys.stderr,
                )
                ok = False
        return ok, dig

    def report(self, op_id, where) -> None:
        if self.reported < REPORTED_FAILURES:
            print(f"bench: op {op_id} raised in {where}:", file=sys.stderr)
            traceback.print_exc()
        self.reported += 1


def _run_op(workload, judge, op_id, inp, tracer=None):
    """One op: (ok, digest, seconds). Raising counts as a failed op."""
    start = perf_counter()
    try:
        if tracer is None:
            out = workload.run(inp)
        else:
            out, _ = tracer.op(op_id, workload.run, inp)
    except Exception as exc:
        judge.report(op_id, "run")
        out = exc
    seconds = perf_counter() - start
    ok, dig = judge(op_id, inp, out)
    return ok, dig, seconds


def _pass(workload, judge, inputs, host, tracer=None):
    """Run the ops once: (op seconds, digests, failures)."""
    total = since = 0.0
    digests = []
    failed = 0
    with tracer if tracer is not None else nullcontext():
        for op_id, inp in enumerate(inputs):
            ok, dig, dt = _run_op(workload, judge, op_id, inp, tracer)
            total += dt
            digests.append(dig)
            failed += not ok
            since += dt
            if since >= CALIBRATE_EVERY_S:
                host.sample()
                since = 0.0
    host.sample()
    return total, digests, failed


def _summary(latencies, failed) -> dict:
    ms = [t * 1e3 for t in latencies]
    return {
        "ops_per_s": (len(ms) - failed) / sum(latencies),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0],
    }


def timed_run(workload, seconds: float, pins) -> dict:
    """Ops back to back until their summed wall time reaches seconds.

    Input generation, output checks and host-speed samples run between
    ops, off the clock. Timings are reported raw and with each op divided
    by its local host factor (see hostspeed.py).
    """
    host = HostSpeed()
    judge = Judge(workload, pins)
    latencies = []
    failed = 0
    first_digest = None
    gc.collect()
    busy = since = 0.0
    op_id = 0
    while busy < seconds:
        inp = workload.make_input(op_id)
        ok, dig, dt = _run_op(workload, judge, op_id, inp)
        busy += dt
        latencies.append(dt)
        failed += not ok
        if op_id == 0:
            first_digest = dig
        op_id += 1
        since += dt
        if since >= CALIBRATE_EVERY_S:
            host.sample(op_id)
            since = 0.0
    while len(host.samples) < MIN_HOST_SAMPLES:
        host.sample(op_id)
    # replaying op 0 must give the same exact outputs
    ok, dig, _ = _run_op(workload, judge, 0, workload.make_input(0))
    deterministic = ok and dig == first_digest
    attempted = len(latencies)
    norm = [t / f for t, f in zip(latencies, host.per_op(attempted))]
    return {
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "digest_checked": judge.digest_checked,
        "busy_s": busy,
        "host_factor": host.factor,
        "host_samples": len(host.samples),
        "host_sample_s": host.samples,
        "host_sample_after_op": host.marks,
        "raw": _summary(latencies, failed),
        **_summary(norm, failed),
        "latencies": latencies,
    }


def traced_run(workload, seconds: float, pins, layers, spans_path=None) -> dict:
    """Alternate plain and traced passes over the same ops until seconds pass.

    Counts come from the first traced pass and must repeat in every later
    one; self times are host-normalised medians over traced passes. Spans
    are kept for the first traced pass only. The overhead compares
    host-normalised pass times, so drift between passes does not count as
    tracing cost.
    """
    judge = Judge(workload, pins)
    inputs = [workload.make_input(i) for i in range(workload.trace_ops)]
    plain, traced, tracers, factors = [], [], [], []
    attempted = failed = 0
    reference = None
    deadline = perf_counter() + seconds
    gc.collect()
    while not tracers or perf_counter() < deadline:
        for tracer in (None, Tracer("anarchy", layers, record_spans=not tracers)):
            host = HostSpeed()
            total, digests, fails = _pass(workload, judge, inputs, host, tracer)
            attempted += len(inputs)
            failed += fails
            if reference is None:
                reference = digests
            elif digests != reference:
                failed += 1
            (plain if tracer is None else traced).append(total / host.factor)
            if tracer is not None:
                tracers.append(tracer)
                factors.append(host.factor)
    first = tracers[0]
    repeat = all(
        {n: s.counts() for n, s in t.stats.items()}
        == {n: s.counts() for n, s in first.stats.items()}
        for t in tracers
    )
    if spans_path is not None:
        first.write_spans(spans_path)
    rounds = sum(workload.rounds(inp) for inp in inputs)
    metrics = {}
    for layer in list(layers) + [None]:
        name = OP_LAYER if layer is None else layer.qualname
        stats = first.stats[name]
        self_s = statistics.median(
            t.stats[name].self_s / f for t, f in zip(tracers, factors)
        )
        metrics[f"{name}.calls"] = (stats.calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if layer is not None and layer.key is not None:
            metrics[f"{name}.distinct"] = (len(stats.keys), "count")
            metrics[f"{name}.reuse"] = (
                len(stats.keys) / stats.calls if stats.calls else 0.0,
                "ratio",
            )
        if layer is not None and layer.outcomes:
            metrics[f"{name}.outcomes"] = (stats.outcomes, "count")
    hedge = "dynamics.run_hedge"
    metrics[f"{hedge}.self_us_per_round"] = (
        metrics[f"{hedge}.self_s"][0] / rounds * 1e6 if rounds else 0.0,
        "us",
    )
    metrics["trace.overhead"] = (
        1 - statistics.median(plain) / statistics.median(traced),
        "ratio",
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "deterministic": repeat,
        "digest_checked": judge.digest_checked,
        "passes": len(tracers),
        "ops_per_pass": len(inputs),
        "plain_pass_s_normalised": plain,
        "traced_pass_s_normalised": traced,
        "aggregated": [l.qualname for l in layers if l.aggregate],
        "metrics": metrics,
    }


# ------------------------------------------------------------------ main


def set_up(workload_cls, seed: int, host, repeats: int = SETUP_REPEATS):
    """Import, build and warm the workload `repeats` times; keep the last."""
    from workloads import load_library

    times = []
    workload = None
    for _ in range(repeats):
        host.sample()
        start = perf_counter()
        workload = workload_cls(load_library(), seed)
        workload.warm_up()
        times.append(perf_counter() - start)
    host.sample()
    import anarchy

    if os.path.dirname(os.path.dirname(os.path.abspath(anarchy.__file__))) != SRC:
        sys.exit(f"bench: imported anarchy from {anarchy.__file__}, not from {SRC}")
    return workload, times


def load_pins(workload_name: str, seed: int) -> list:
    with open(DIGESTS) as fh:
        data = json.load(fh)
    if seed != data["reference_seed"]:
        return []
    return data["digests"].get(workload_name, [])


def _print_table(title, rows) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {shown:>12}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _library_on_path()
    from workloads import LAYERS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = environment()
    load_start = _loadavg()
    setup_host = HostSpeed()
    workload, setup_times = set_up(WORKLOADS[args.workload], args.seed, setup_host)
    pins = load_pins(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        run = traced_run(workload, args.seconds, pins, LAYERS, spans_path)
        metrics = run.pop("metrics")
        run["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        run = timed_run(workload, args.seconds, pins)
        run["raw"]["setup_s"] = statistics.median(setup_times)
        run["setup_host_factor"] = setup_host.factor
        run["setup_s"] = run["raw"]["setup_s"] / setup_host.factor
        run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: (run[name], unit) for name, unit in END_TO_END}
        run["latency_samples"] = len(run["latencies"])
    attempted, failed = run["attempted"], run["failed"]
    error_rate = failed / attempted
    correct = failed == 0 and run["deterministic"]
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "error_rate": error_rate,
        "setup_runs_s": setup_times,
        "metrics": reported,
        "run": run,
        "environment": dict(env, loadavg_start=load_start, loadavg_end=_loadavg()),
    }
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    samples = (
        f"{run['passes']} plain + {run['passes']} traced passes of {run['ops_per_pass']} ops"
        if args.trace
        else f"{run['latency_samples']} latency samples"
    )
    _print_table(
        f"{args.workload} seed {args.seed}: {attempted} ops ({samples}), "
        f"{failed} failed, {run['digest_checked']} digests checked",
        [(k, v, u) for k, (v, u) in metrics.items()] + [("error_rate", error_rate, "ratio")],
    )
    if args.trace:
        print(f"  aggregated (count and total, no span per call): {', '.join(run['aggregated'])}")
    else:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in run["raw"].items())
        print(f"  host factor {run['host_factor']:.4f} ({run['host_samples']} samples); raw: {raw}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": reported}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
