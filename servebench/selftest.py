#!/usr/bin/env python3
"""Short-mode self-test of the serving benchmark.

    python3 servebench/selftest.py [--seconds 2]

Runs every workload of BENCHMARK.json briefly, untraced and traced, through
servebench/run.py, and checks that each run exits 0, that its last line is
the result object with exactly the keys correct, attempted, failed and
metrics, that it emits every end_to_end (untraced) or per_layer (traced)
metric with its unit and nothing else, and that the correctness gate ran:
sampled outputs were compared with Encoder::forward and the ledger balanced.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = run.stdout.strip().splitlines()
    errors = []
    if run.returncode != 0:
        errors.append(f"exit code {run.returncode}: {run.stderr.strip()[-500:]}")
    if not lines:
        return errors + ["no output"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted < 1")
    expected = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        missing = {m["name"] for m in expected} - set(metrics)
        extra = set(metrics) - {m["name"] for m in expected}
        errors.append(f"metric set differs: missing {sorted(missing)} extra {sorted(extra)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    oracle = [l for l in lines if l.startswith("# oracle:")]
    if not oracle or oracle[0].split()[2] == "0":
        errors.append("oracle check did not compare any output")
    if not any(l.startswith("# ledger + oracle: balanced") for l in lines):
        errors.append("ledger/oracle gate did not pass")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_run(spec, workload, trace, args.seconds)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload:16s} trace={trace}  {status}", flush=True)
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
