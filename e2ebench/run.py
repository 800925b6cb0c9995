#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark and the
CLI with dune (inside the checkout, dune's shared cache off), fills the
benchmark's warm design cache once (untimed, under e2ebench/.work/), then
runs one workload and prints its result; the last line of standard
output is the result object. Exits non-zero, printing no result, when
any step fails. See e2ebench/README.md.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "e2e.exe")
WORKLOADS = ["sweep_cold", "suite_warm", "serve_closed", "fleet_rack"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# The exe itself finishes well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 780


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ROOT, "--cache=disabled",
           "--display=quiet", "./e2ebench/e2e.exe", "./bin/yukta_cli.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def prepare():
    """Fill the warm design cache the warm workloads load from."""
    stamp = os.path.join(WORK, "warm", ".prepared")
    if os.path.exists(stamp):
        return
    done = subprocess.run([EXE, "prepare", "--work", WORK], cwd=ROOT,
                          stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        fail("preparing the warm design cache failed")
    with open(stamp, "w") as f:
        f.write("ok\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail(f"{ROOT} is not a source checkout (no dune-project)")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        prepare()
    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK]
    # Its own process group, so a timeout also stops the serve
    # workload's server process.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
