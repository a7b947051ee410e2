#!/usr/bin/env python3
"""The btauthsim benchmark.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare OLD.txt NEW.txt

One run drives the public API from this one process as a closed loop with a
single client: each scenario run starts when the previous one has returned.
It first checks the gate (expected verdict rows and the transcript digest of
a fixed seed block, which also warms up), then measures for ``--seconds``
on the seed block that ``--seed`` selects. Workloads, metrics, units and
bounds are those of ``BENCHMARK.json`` at the repository root.

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics from spans around calls into
each module (see ``spans.py``), plus ``trace_overhead``. Every time, and
every rate per second, is in reference time: host time divided by the
slowdown of a fixed kernel timed right before and after it (see
``reference.py``), which takes out the drift in speed of a shared host.
The end-to-end host figures are printed too, as ``host.*``. Every metric is
printed by name with its unit, then one line with the environment record,
then, as the last line, the result as one JSON object. The exit status is 1
when any run failed its check.

``--compare`` reads two result sets, each a file of the captured standard
output of ``--trace 0`` runs, and prints for each workload and end-to-end
metric the median and quartiles of each side and a verdict: ``regression``
when the new median is worse than the old one by more than the metric's
bound, ``unresolved`` when either side spreads (quartile distance over
median) wider than the bound, else ``ok``. Its exit status is 1 on any
regression or failed run.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import reference
import workloads
from spans import Tracer
from workloads import Workload, build, expected_digest, gate_digest, outcome_row

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# consecutive workload seeds select disjoint blocks of scenario seeds
SEED_BLOCK = 1_000_000
# set-up is timed in this many fresh processes; the metric is their median
SETUP_REPEATS = 5
# reference kernel units gauged before and after the traced set-up
SETUP_GAUGE_UNITS = 30
# rounds in each of the two identical traced blocks whose counts must agree
COUNT_ROUNDS = 3


@dataclass
class Loop:
    runs: int = 0
    failed: int = 0
    # per run: the reference kernel's slowdown around it; per completed run:
    # host time and host time over slowdown, the run's reference time
    slowdowns: list[float] = field(default_factory=list)
    host_latencies_ns: list[int] = field(default_factory=list)
    latencies_ns: list[float] = field(default_factory=list)
    results: list = field(default_factory=list)

    def runs_per_s(self) -> float:
        """Runs per reference second spent in runs."""
        return len(self.latencies_ns) / (sum(self.latencies_ns) / 1e9)

    def host_runs_per_s(self) -> float:
        return len(self.host_latencies_ns) / (sum(self.host_latencies_ns) / 1e9)


def closed_loop(workload: Workload, first_seed: int, seconds: float = 0.0, rounds: int = 1, keep: bool = False) -> Loop:
    """Whole rounds over the workload's scenarios on consecutive seeds, at
    least ``rounds`` of them and until ``seconds`` have passed. The reference
    kernel runs between consecutive runs to gauge the machine's speed around
    each (see reference.py). A run fails when it raises or its verdict row or
    message count is not the expected one. ``keep`` keeps every result."""
    sink = io.StringIO()
    loop = Loop()
    clock = time.perf_counter_ns
    pairs = list(zip(workload.configs, workload.expected))
    deadline = clock() + int(seconds * 1e9)
    done = 0
    before = reference.slowdown()
    while done < rounds or clock() < deadline:
        for config, expected in pairs:
            seed = first_seed + loop.runs
            loop.runs += 1
            began = clock()
            try:
                result = workloads.step(workload, config, seed, sink)
            except Exception:
                result = None
                print(f"run failed: {config.scenario_name} seed={seed}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            host_ns = clock() - began
            after = reference.slowdown()
            slowdown = (before + after) / 2
            before = after
            loop.slowdowns.append(slowdown)
            if result is None:
                loop.failed += 1
                continue
            loop.host_latencies_ns.append(host_ns)
            loop.latencies_ns.append(host_ns / slowdown)
            loop.failed += outcome_row(result) != expected
            if keep:
                loop.results.append(result)
        sink.seek(0)
        sink.truncate()
        done += 1
    return loop


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of fresh processes (see setup_probe.py), in reference
    time and in host time."""
    ref, host = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        words = probe.stdout.split()
        if probe.returncode != 0 or len(words) != 3 or words[0] != "ready":
            raise RuntimeError(f"set-up probe for {name} exited {probe.returncode}: {probe.stderr}")
        seconds, slowdown = float(words[1]), float(words[2])
        ref.append(seconds / slowdown)
        host.append(seconds)
    return ref, host


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def check_gate(workload: Workload) -> tuple[int, int]:
    """Runs attempted and failed in the gate block; on a digest mismatch
    every run of the block counts as failed."""
    runs = workloads.GATE_ROUNDS * len(workload.configs)
    digest, wrong = gate_digest(workload)
    if digest != expected_digest(workload.name):
        print(f"gate: transcript digest of {workload.name} is {digest}", file=sys.stderr)
        return runs, runs
    return runs, wrong


def end_to_end(workload: Workload, first_seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    for config in workload.configs:
        workloads.validate(config)
    setup, setup_host = measure_setup(workload.name)
    attempted, failed = check_gate(workload)
    loop = closed_loop(workload, first_seed, seconds)
    attempted += loop.runs
    failed += loop.failed
    metrics = {
        "runs_per_s": (loop.runs_per_s(), "1/s"),
        "run_ms_p50": (statistics.median(loop.latencies_ns) / 1e6, "ms"),
        "run_ms_p95": (_p95(loop.latencies_ns) / 1e6, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "host.setup_s": (statistics.median(setup_host), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_runs": (failed / attempted, "share"),
        "host.runs_per_s": (loop.host_runs_per_s(), "1/s"),
        "host.run_ms_p50": (statistics.median(loop.host_latencies_ns) / 1e6, "ms"),
        "host.run_ms_p95": (_p95(loop.host_latencies_ns) / 1e6, "ms"),
    }
    env = {
        "runs": loop.runs,
        "run_samples": len(loop.latencies_ns),
        "run_ms_spread": spread(loop.latencies_ns),
        "setup_samples_s": setup,
        "slowdown_median": statistics.median(loop.slowdowns),
    }
    return metrics, attempted, failed, env


def _p95(values) -> float:
    return statistics.quantiles(values, n=20)[-1]


def count_metrics(summary, results, workload: Workload) -> dict:
    """Exact per-run counts, which a speed-up must leave unchanged."""
    names = ("crypto.mixhash128", "crypto.modexp", "crypto.is_prime", "crypto.init_key",
             "protocol.handle", "simnet.run", "adversary.intercept")
    counts = {f"{name}.calls": (summary.calls(name), "count") for name in names}
    counts["adversary.verdict.e1_calls"] = (summary.verdict_e1_calls / summary.runs, "count")
    counts["simnet.events"] = (sum(len(r.transcript.events) for r in results) / len(results), "count")
    n = len(workload.configs)
    distinct = sum(
        len({tuple(sorted((str(k), v) for k, v in r.baselines.items())) for r in results[i::n]})
        for i in range(n)
    )
    counts["cli.baseline.distinct_ratio"] = (distinct / len(results), "ratio")
    return counts


def per_layer(workload: Workload, first_seed: int, seconds: float) -> tuple[dict, int, int, dict]:
    tracer = Tracer()
    before = reference.slowdown(SETUP_GAUGE_UNITS)
    tracer.install()
    for config in workload.configs:
        workloads.validate(config)
    tracer.uninstall()
    setup = tracer.summary(-1, 0, [(before + reference.slowdown(SETUP_GAUGE_UNITS)) / 2])

    attempted, failed = check_gate(workload)
    plain = closed_loop(workload, first_seed, seconds / 2)

    tracer.install()
    blocks = []
    for _ in range(2):
        first_run = tracer.run + 1
        block = closed_loop(workload, first_seed, rounds=COUNT_ROUNDS, keep=True)
        blocks.append((block, count_metrics(tracer.summary(first_run, tracer.run + 1), block.results, workload)))
    first_run = tracer.run + 1
    traced = closed_loop(workload, first_seed, seconds / 2)
    timed = tracer.summary(first_run, tracer.run + 1, traced.slowdowns)
    tracer.uninstall()

    for loop in (plain, traced, *(block for block, _ in blocks)):
        attempted += loop.runs
        failed += loop.failed
    counts = blocks[0][1]
    if counts != blocks[1][1]:
        print(f"exact counts differ between two traced blocks: {counts} != {blocks[1][1]}", file=sys.stderr)
        failed += blocks[1][0].runs

    run_us = timed.us("cli.run_scenario")
    metrics = dict(counts)
    for name in ("crypto.mixhash128", "crypto.modexp", "protocol.handle", "simnet.run", "adversary.intercept"):
        metrics[f"{name}.self_us"] = (timed.self_us(name), "us")
    for name in ("crypto.is_prime", "protocol.new_device", "simnet.delay_detector", "simnet.serialise",
                 "adversary.verdict", "cli.run_scenario"):
        metrics[f"{name}.us"] = (timed.us(name), "us")
    calibration_us = timed.calibration_ns / timed.runs / 1e3
    metrics["simnet.calibration.us"] = (calibration_us, "us")
    metrics["simnet.calibration.share"] = (calibration_us / run_us, "share")
    metrics["crypto.has_full_order.us"] = (setup.us("crypto.has_full_order"), "us")
    metrics["cli.validate.us"] = (setup.us("cli.validate"), "us")
    metrics["trace_overhead"] = (1 - traced.runs_per_s() / plain.runs_per_s(), "share")
    env = {
        "runs": plain.runs + traced.runs,
        "runs_per_s_untraced": plain.runs_per_s(),
        "runs_per_s_traced": traced.runs_per_s(),
        "run_ms_spread": spread(plain.latencies_ns),
    }
    return metrics, attempted, failed, env


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def benchmark(args) -> int:
    spec = load_spec()
    workload = build(args.workload)
    first_seed = args.seed * SEED_BLOCK
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, env = measure(workload, first_seed, args.seconds)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    env.update(
        workload=args.workload,
        seed=args.seed,
        first_seed=first_seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        python=platform.python_version(),
        cpu_count=os.cpu_count(),
    )
    print(json.dumps({"env": env}))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def load_result_set(path: str) -> dict[str, list[dict]]:
    """End-to-end results by workload from captured benchmark output."""
    by_workload: dict[str, list[dict]] = {}
    env = None
    with open(path) as lines:
        for line in lines:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                env = record["env"]
            elif "metrics" in record and env is not None and not env["trace"]:
                by_workload.setdefault(env["workload"], []).append(record)
                env = None
    return by_workload


def compare(old_path: str, new_path: str) -> int:
    spec = load_spec()
    old, new = load_result_set(old_path), load_result_set(new_path)
    status = 0
    header = ("workload", "metric", "old median [q1 q3]", "new median [q1 q3]", "change", "bound", "verdict")
    rows = [header]
    for workload in sorted(set(old) & set(new)):
        if not all(r["correct"] for r in new[workload]):
            rows.append((workload, "correct", "", "", "", "", "failed"))
            status = 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [[r["metrics"][name]["value"] for r in side[workload]] for side in (old, new)]
            q = [quartiles(values) for values in sides]
            old_median, new_median = q[0][1], q[1][1]
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (new_median - old_median) / old_median
            new_always_better = all(sign * (n - o) < 0 for n in sides[1] for o in sides[0])
            if max(spread(values) for values in sides) > bound and not new_always_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "regression"
                status = 1
            else:
                verdict = "ok"
            rows.append((workload, name, _fmt(q[0]), _fmt(q[1]), f"{change:+.1%} worse",
                         f"{bound:.0%}", verdict))
    for workload in sorted(set(old) ^ set(new)):
        rows.append((workload, "", "", "", "", "", "only in one set"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return status


def _fmt(q1_median_q3) -> str:
    q1, median, q3 = q1_median_q3
    return f"{median:.4g} [{q1:.4g} {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
