#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload steady_fastpath --seed 1 \
        --seconds 10 --trace 0

Workloads: steady_fastpath, churn_journaled, fanout_1k (see
perfbench/README.md). The first call configures and builds the benchmark
and the mqpi libraries it links into .bench_build/perfbench; later calls
rebuild only what changed. Build output goes to standard error, so the
last line of standard output is always the benchmark's JSON result. A
build that fails, or a checkout without the mqpi sources, exits non-zero
without printing a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no mqpi sources under {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-8000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs (self-test)")
    parser.add_argument("--tamper", choices=["eta", "recover"],
                        help="corrupt one checked output (self-test)")
    args = parser.parse_args()

    if not build():
        return 3
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(OUT_DIR),
               "--source", source_id()]
    if args.toy:
        command.append("--toy")
    if args.tamper:
        command += ["--tamper", args.tamper]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4


if __name__ == "__main__":
    sys.exit(main())
