#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload, briefly, both runs.

    python3 perfbench/smoke.py [--seconds 1]

Run from the root of a checkout. Runs each workload levelbench knows
(the BENCHMARK.json ones and sharded_scan) with --trace 0 and --trace 1
and fails if a run exits nonzero, reports incorrect output, or misses a
metric BENCHMARK.json lists. End-to-end
metrics must be finite and nonzero. Per-layer metrics must be finite;
those of a layer the workload drives (EXPECTED_NONZERO) must be nonzero
— a layer the workload bypasses reports 0, as do counters of events
the workload does not provoke (parks, refusals, backups on a cached
path).
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORE_SCAN = ["core.collect_ns_per_slot"]
CORE = ["core.get_ns", "core.free_ns", "core.probes_per_get",
        "core.probes_max", "core.backup_ratio", "core.deep_fill_max",
        "core.calls_per_op"] + CORE_SCAN
SCALE = ["scale.get_ns", "scale.free_ns", "scale.cache_hit_ratio",
         "scale.parked_free_ratio"]
SVC = ["svc.rtt_ns", "svc.rtt_p99_ns", "svc.exec_ns", "svc.transport_ns",
       "svc.exec_share", "svc.names_per_request"]
BENCH = ["bench.trace_overhead", "bench.traced_ns_per_op",
         "bench.layer_self_ns_per_op"]
EXPECTED_NONZERO = {
    "level_churn": CORE + BENCH,
    "sharded_churn": CORE_SCAN + SCALE + BENCH,
    "sharded_scan": CORE_SCAN + SCALE + BENCH + ["scale.collect_drains"],
    "daemon_churn": CORE_SCAN + SCALE + SVC + BENCH,
}


def run(workload, trace, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, f"exit {done.returncode}: {done.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for name in EXPECTED_NONZERO:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, error = run(name, trace, args.seconds)
            label = f"{name} --trace {trace}"
            if error:
                failures.append(f"{label}: {error}")
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: output check failed")
            if result["attempted"] < 1:
                failures.append(f"{label}: nothing attempted")
            for m in listed:
                entry = result["metrics"].get(m["name"])
                if entry is None:
                    failures.append(f"{label}: missing {m['name']}")
                    continue
                value = entry["value"]
                if not math.isfinite(value):
                    failures.append(f"{label}: {m['name']} is {value}")
                elif value == 0 and (trace == 0 or
                                     m["name"] in EXPECTED_NONZERO[name]):
                    failures.append(f"{label}: {m['name']} is zero")
                if entry["unit"] != m["unit"]:
                    failures.append(f"{label}: {m['name']} unit {entry['unit']}")
            print(f"{label}: {len(result['metrics'])} metrics checked")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
