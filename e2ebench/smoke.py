#!/usr/bin/env python3
"""Smoke test for eafe_e2e: every workload at --scale=smoke, two seeds,
untraced and traced. Checks each run's correctness verdict, that the
metric names and units match BENCHMARK.json, and that the Chrome trace
parses. It has no timing gates.

    python3 e2ebench/smoke.py --binary .bench_build/eafe_e2e \\
        --benchmark-json BENCHMARK.json --work-dir /tmp/e2e_smoke
"""

import argparse
import json
import os
import subprocess
import sys

SEEDS = (1, 2)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(args, spec, workload, seed, trace):
    # eafe_e2e writes its trace to this path inside --work-dir.
    trace_path = os.path.join(args.work_dir, "trace_%s_%d.json" %
                              (workload, seed))
    command = [args.binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.4", "--trace", str(trace), "--scale", "smoke",
               "--work-dir", args.work_dir]
    if os.path.exists(trace_path):
        os.remove(trace_path)  # A stale trace must not pass the parse check.
    run = subprocess.run(command, capture_output=True, text=True,
                         timeout=60)
    where = "%s seed %d trace %d" % (workload, seed, trace)
    errors = []
    if run.returncode != 0:
        errors.append("exit code %d: %s" % (run.returncode,
                                             run.stderr.strip()[-400:]))
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["%s: last stdout line is not JSON" % where]
    if set(result) != RESULT_KEYS:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is %r" % result.get("correct"))
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append("attempted %r failed %r" %
                      (result.get("attempted"), result.get("failed")))
    expected = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: value.get("unit")
           for name, value in result.get("metrics", {}).items()}
    if got != want:
        errors.append("metrics differ from BENCHMARK.json: missing %s, "
                      "extra %s, unit mismatches %s" % (
                          sorted(set(want) - set(got)),
                          sorted(set(got) - set(want)),
                          sorted(n for n in set(want) & set(got)
                                 if want[n] != got[n])))
    if trace:
        try:
            with open(trace_path) as handle:
                events = json.load(handle)["traceEvents"]
            if not events or any(e.get("ph") != "X" for e in events):
                errors.append("trace has no complete events")
        except (OSError, ValueError, KeyError) as error:
            errors.append("trace does not parse: %s" % error)
    return ["%s: %s" % (where, e) for e in errors]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    os.makedirs(args.work_dir, exist_ok=True)
    with open(args.benchmark_json) as handle:
        spec = json.load(handle)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                errors += check_run(args, spec, workload, seed, trace)
    for error in errors:
        print(error, file=sys.stderr)
    print("bench_e2e_smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
