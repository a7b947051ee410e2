#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs each workload for one second with tracing off, and twice with tracing
on at the same seed, then checks that:

- every run passed its correctness check;
- every metric of BENCHMARK.json is reported with its unit;
- per-run self times across layers sum to no more than cli.run_scenario.us;
- crypto.modexp.calls is 0 on transcript-jsonl, and simnet.serialise.us is
  0 on matrix and dh-wide;
- the two traced runs give identical *.calls, simnet.events and
  cli.baseline.distinct_ratio;
- --compare of the untraced results against themselves flags nothing.

Exit status 0 when all hold.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT_SUFFIXES = (".calls", ".e1_calls")
EXACT_NAMES = ("simnet.events", "cli.baseline.distinct_ratio")


def bench(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def result_of(output: str) -> dict:
    result = json.loads(output.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


def check_units(metrics: dict, wanted: list[dict], label: str) -> None:
    for metric in wanted:
        got = metrics.get(metric["name"])
        assert got is not None, f"{label}: {metric['name']} missing"
        assert got["unit"] == metric["unit"], f"{label}: {metric['name']} in {got['unit']}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    untraced = []
    for workload in (w["name"] for w in spec["workloads"]):
        common = ("--workload", workload, "--seed", str(SEED), "--seconds", "1")
        output = bench(*common, "--trace", "0")
        untraced.append(output)
        check_units(result_of(output), spec["end_to_end"], workload)

        first, second = (result_of(bench(*common, "--trace", "1")) for _ in range(2))
        check_units(first, spec["per_layer"], workload)
        value = {name: metric["value"] for name, metric in first.items()}
        self_sum = sum(v for name, v in value.items() if name.endswith(".self_us"))
        assert self_sum <= value["cli.run_scenario.us"], f"{workload}: self times {self_sum} exceed the run"
        if workload == "transcript-jsonl":
            assert value["crypto.modexp.calls"] == 0, value["crypto.modexp.calls"]
        else:
            assert value["simnet.serialise.us"] == 0, value["simnet.serialise.us"]
        for name in first:
            if name.endswith(EXACT_SUFFIXES) or name in EXACT_NAMES:
                assert first[name] == second[name], f"{workload}: {name} {first[name]} != {second[name]}"
        print(f"{workload}: ok")

    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results.txt"
        results.write_text("".join(untraced))
        report = bench("--compare", str(results), str(results))
    assert "regression" not in report and "failed" not in report, report
    print("compare: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
