#!/usr/bin/env python3
"""Toy-size self-check of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at toy sizes, untraced and traced,
through perfbench/run.py, and asserts that each run exits 0, prints the
result object as its last line with every named metric and its unit, and
ran every output check of its workload (all passing). Exits 1 on the first
failed assertion.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Output checks each workload must report (the record line's "checks").
CHECKS = {
    "dataset-prep-bound": {"shots_conserved", "sink_table_equals_readback",
                           "digest_stable_across_repeats", "metric_finite"},
    "dataset-shot-bound": {"shots_conserved", "digest_stable_across_repeats",
                           "chi2_vs_densmat", "metric_finite"},
    "serve-small-jobs": {"all_jobs_done", "served_bytes_equal_local",
                         "metric_finite"},
}


def fail(message):
    print(f"selfcheck: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, expected):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "2", "--trace", str(trace), "--toy"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{where} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{where}: attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
             f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            fail(f"{where}: {name} unit {metrics[name].get('unit')!r} != {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} value {value!r}")
    checks = record["checks"]
    wanted = CHECKS[workload] | ({"all_jobs_done"} if trace else set())
    if not wanted <= set(checks) or not all(checks.values()):
        fail(f"{where}: checks {checks}, expected {sorted(wanted)} all true")
    if trace:
        if metrics["trace.coverage"]["value"] < 0.95:
            fail(f"{where}: top-level spans cover only "
                 f"{metrics['trace.coverage']['value']:.3f} of the timed wall")
        if not os.path.isfile(os.path.join(ROOT, record["run"]["trace_file"])):
            fail(f"{where}: trace file {record['run']['trace_file']} missing")
    print(f"selfcheck: ok  {where}: {len(metrics)} metrics, "
          f"checks {sorted(checks)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in bench["workloads"]:
        if workload["name"] not in CHECKS:
            fail(f"no output checks listed for workload {workload['name']}")
        run(workload["name"], 0, end_to_end)
        run(workload["name"], 1, per_layer)
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
