#!/usr/bin/env python3
"""Self-test of the repository benchmark, at toy size.

Run from the root of a checkout (takes about a minute, most of it the
first build):

    python3 perfbench/selftest.py

It asserts that
  * every workload prints every metric BENCHMARK.json names, with its
    unit, in untraced and traced runs, and passes its output checks;
  * the traced ledger covers the benchmark's span around Advance to
    within 5%, and the estimator path counters show the path each
    workload is meant to run (fast path for steady_fastpath and
    fanout_1k, simulator fallback for churn_journaled);
  * a perturbed ETA fails the steady_fastpath check and a tampered
    recovered byte fails the churn_journaled check, each with a non-zero
    exit;
  * a directory holding only BENCHMARK.json and perfbench/ exits
    non-zero without printing a result.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
WORKLOADS = ["steady_fastpath", "churn_journaled", "fanout_1k"]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT, runner=RUN):
    done = subprocess.run(
        runner + ["--workload", workload, "--seed", "7", "--seconds", "2",
                  "--trace", str(trace), "--toy", *extra],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the three workloads")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label}: exits 0 with a correct result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly the four keys")
            metrics = result["metrics"]
            check({k: v["unit"] for k, v in metrics.items()} == declared[trace],
                  f"{label}: every declared metric printed with its unit")
            check(all(math.isfinite(v["value"]) for v in metrics.values()),
                  f"{label}: every value is finite")
            if trace == 0:
                check(all(v["value"] > 0 for v in metrics.values()),
                      f"{label}: every end-to-end metric is above zero")
                continue
            coverage = metrics["obs.ledger_coverage"]["value"]
            check(0.95 <= coverage <= 1.05,
                  f"{label}: ledger covers the Advance span ({coverage:.3f})")
            ratio = metrics["pi.fast_path_ratio"]["value"]
            if workload == "churn_journaled":
                # Full-size runs stay under 0.05; one toy episode spends
                # a larger share of its quanta with an empty queue.
                check(ratio <= 0.25, f"{label}: simulator path ({ratio:.3f})")
                check(metrics["recover.recover_s"]["value"] > 0,
                      f"{label}: recovery measured")
            else:
                check(ratio >= 0.99, f"{label}: fast path ({ratio:.3f})")
            if workload == "fanout_1k":
                check(metrics["net.publish_ops_per_publish"]["value"] > 0 and
                      metrics["net.encode_us_per_frame"]["value"] > 0,
                      f"{label}: fan-out counters measured")

    code, result = run("steady_fastpath", 0, "--tamper", "eta")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0, "a perturbed ETA fails the check")
    code, result = run("churn_journaled", 0, "--tamper", "recover")
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] > 0, "a tampered recovered byte fails the check")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, result = run("steady_fastpath", 0, cwd=bare,
                       runner=[sys.executable, "perfbench/run.py"])
    check(code != 0 and result is None,
          "without the sources it exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
