#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--out FILE] [--compare FILE]

Run from the root of a checkout. For each workload, runs the benchmark
once per seed (seeds first-seed, first-seed+1, ...) for BENCHMARK.json's
run_seconds, and prints per end-to-end metric the median and the
interquartile range as a share of the median (statistics.quantiles with
n=4), next to the metric's bound. A spread under a third of its bound is
steady. --out saves the raw values; --compare FILE also checks that each
median here is no worse than FILE's by more than the bound. Exits
nonzero if a run fails, or (except setup_s) a spread exceeds its bound,
or a --compare median is worse than the bound allows.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         "0"], cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"spread: {workload} seed {seed} failed")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"spread: {workload} seed {seed} output incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    metrics = bench["end_to_end"]
    base = json.loads(Path(args.compare).read_text()) if args.compare else {}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, bench["run_seconds"])
                for i in range(args.seeds)]
        raw[workload] = runs
        print(f"{workload} ({args.seeds} seeds)")
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            if spread > m["bound"] and m["name"] != "setup_s":
                ok = False
            line = (f"  {m['name']:<16} median {med:14.4f} {m['unit']:<4} "
                    f"spread {spread:7.2%} (bound {m['bound']:.0%}) {verdict}")
            if workload in base:
                before = statistics.median(r[m["name"]] for r in base[workload])
                worse = ((med - before) / before if m["better"] == "lower"
                         else (before - med) / before)
                line += f"  vs base {worse:+.2%} worse"
                if worse > m["bound"]:
                    line += " REGRESSION"
                    ok = False
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
