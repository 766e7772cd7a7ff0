#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizes (a few seconds per run).

    python3 perfbench/test_smoke.py      # from the root of the repository

Checks that every workload runs untraced and traced with its outputs
correct, that the result lines of the workloads named in BENCHMARK.json
carry exactly the metric names and units it declares, and that a
deliberately perturbed expected output is caught: the run must report
correct=false and exit non-zero.
"""

import json
import subprocess
import sys


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL", what)

    declared_in = {w["name"] for w in bench["workloads"]}
    for name in sorted(declared_in) + ["serve-openloop"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result = run(name, trace)
            check(code == 0, f"{name} trace={trace}: exit {code}")
            if result is None:
                check(False, f"{name} trace={trace}: no result line")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{name} trace={trace}: not correct")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']}")
            check(len(result["metrics"]) > 0, f"{name} trace={trace}: no metrics")
            if name in declared_in:
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, f"{name} trace={trace}: metric names/units differ from "
                      f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        code, result = run(name, 0, "--perturb")
        check(code != 0 and result is not None and result["correct"] is False,
              f"{name}: a perturbed expected output was not caught (exit {code})")

    print("smoke:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
