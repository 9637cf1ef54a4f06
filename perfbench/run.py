#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library it links) in .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's result object. Exits nonzero, without
a result, when the checkout has no library sources to build.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "levelbench"


def build():
    env = dict(os.environ)
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler scratch files in the checkout
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "levelbench",
                  "-j", "2"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def git_stamp():
    """Commit and dirty flag, or 'unknown' outside a git work tree."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return "unknown", "unknown"
        commit = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = "unknown" if status is None else ("1" if status else "0")
        return commit, dirty
    except OSError:
        return "unknown", "unknown"


def main():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources next to perfbench/; "
                 "run from a full checkout")
    build()
    commit, dirty = git_stamp()
    args = sys.argv[1:]
    extra = ["--commit", commit, "--dirty", dirty]
    flags = dict(zip(args[::2], args[1::2]))
    if "--workload" in flags and "--seed" in flags:
        # A traced run writes its spans next to the build.
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        name = f"{flags['--workload']}-seed{flags['--seed']}.tsv"
        extra += ["--trace-out", str(traces / name)]
    sys.stdout.flush()
    done = subprocess.run([str(BINARY), *args, *extra])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
