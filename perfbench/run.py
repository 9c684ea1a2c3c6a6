#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 perfbench/run.py --k-nominal MS --workload NAME --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Workloads: serve_warm and corpus_adhoc
(see README.md). --k-nominal is the reference kernel time in ms
that timings are scaled to. The last line of standard output is the
JSON result; the exit code is non-zero on a wrong answer or any failure.
Scratch data goes to perfbench/_work and is removed afterwards; traced
runs leave their Chrome trace in perfbench/_out.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

RUN_TIMEOUT_S = 170
BUILD_TARGETS = ["./perfbench/xbench.exe", "./perfbench/kernel.exe", "./bin/xqp.exe"]
WORKLOADS = ["serve_warm", "corpus_adhoc"]


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def kill_group(pgid):
    """SIGKILL what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--k-nominal", type=float, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    for needed in ["dune-project", "bin", "lib", "perfbench/dune"]:
        if not os.path.exists(needed):
            fail(2, f"{needed} not found: run from the root of a full checkout")

    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", *BUILD_TARGETS],
        stdout=sys.stderr, stderr=sys.stderr, env={**os.environ, "DUNE_CACHE": "disabled"})
    if build.returncode != 0:
        fail(3, "build failed")

    exe = "_build/default/perfbench/xbench.exe"
    work = os.path.join("perfbench", "_work", f"{args.workload}-{os.getpid()}")
    out = os.path.join("perfbench", "_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--k-nominal", repr(args.k_nominal),
           "--kernel", "_build/default/perfbench/kernel.exe",
           "--xqp", "_build/default/bin/xqp.exe", "--work", work, "--out", out]
    # Its own process group, so that a timeout or a crash also stops the
    # server child and every other process the run started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timed_out = threading.Event()

    def on_timeout():
        timed_out.set()
        kill_group(proc.pid)

    timer = threading.Timer(RUN_TIMEOUT_S, on_timeout)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line.strip()
        proc.wait()
    finally:
        timer.cancel()
        kill_group(proc.pid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    if timed_out.is_set():
        fail(4, "run timed out")
    if proc.returncode != 0:
        fail(proc.returncode, f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(5, "the benchmark printed no result line")
    if not result["correct"]:
        fail(1, "wrong answers")


if __name__ == "__main__":
    main()
