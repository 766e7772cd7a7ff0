#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program from source, run one
workload (or all of them) for a seed, and print the result.

    python3 perfbench/run.py --workload sim-k16-inc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Run it from the root of a checkout.  With one workload the last line of
standard output is that run's JSON result; with ``all`` each workload's
metrics are printed as a table.  The exit status is non-zero when the
build fails or any output check fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "hirebench.exe")
WORK = ".perfbench"
RUN_TIMEOUT_S = 175


# The workloads of BENCHMARK.json, then serve-openloop, which is run by
# hand only (see README.md).
WORKLOADS = ["sim-k16-inc", "sim-k8-backlog", "serve-openloop"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/hirebench.exe"],
            env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return False
    return done.returncode == 0 and os.path.exists(EXE)


def run_one(args, workload):
    """Run the program once; returns (exit code, stdout lines)."""
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        os.makedirs(WORK, exist_ok=True)
        cmd += ["--spans", os.path.join(WORK, f"spans-{workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb:
        cmd.append("--perturb")
    # A process group of its own, so a timeout also stops the server it forks.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt the expected outputs; the checks must fail")
    args = ap.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    if args.workload != "all":
        code, lines = run_one(args, args.workload)
        print("\n".join(lines))
        return code
    status = 0
    for name in WORKLOADS:
        code, lines = run_one(args, name)
        status = status or code
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {code})")
            status = status or 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32} {m['value']:>16.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
