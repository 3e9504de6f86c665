#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs every workload at tiny scale (--smoke 1), untraced and traced, and
checks that each run is correct and emits exactly the metrics
BENCHMARK.json names, each with its unit. Also checks that
perfbench/metric_map.json covers every metric, and that the benchmark
refuses to run (non-zero exit, no result line) in a directory that holds
only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(cwd, workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--smoke", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "metric_map.json")) as f:
        metric_map = json.load(f)
    failures = []
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if set(metric_map["end_to_end"]) != set(expected[0]):
        failures.append("metric_map.json end_to_end != BENCHMARK.json")
    if set(metric_map["per_layer"]) != set(expected[1]):
        failures.append("metric_map.json per_layer != BENCHMARK.json")

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            p = run(ROOT, workload, trace)
            label = "%s trace=%d" % (workload, trace)
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result (rc=%d): %s" %
                                (label, p.returncode, p.stderr[-500:]))
                continue
            if p.returncode != 0:
                failures.append("%s: rc=%d" % (label, p.returncode))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if result.get("correct") is not True or result.get("failed") != 0:
                failures.append("%s: correct=%s failed=%s" %
                                (label, result.get("correct"),
                                 result.get("failed")))
            if not result.get("attempted", 0) >= 1:
                failures.append("%s: attempted < 1" % label)
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got
                               if k in expected[trace]
                               and got[k] != expected[trace][k])
                failures.append("%s: missing %s extra %s wrong-unit %s" %
                                (label, missing, extra, wrong))
            print("ok" if not failures else "..", label, flush=True)

    # Without the repository's sources the benchmark must refuse to run.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"))
        p = run(bare, "train", 0)
        if p.returncode == 0 or p.stdout.strip().endswith("}"):
            failures.append("bare directory: expected a refusal")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("PASS" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
