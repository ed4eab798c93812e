#!/usr/bin/env python3
"""Build and run the tuplepath benchmark; print one JSON result line.

    python3 tuplepath/run.py --workload hourly_trigger --seed 1 --seconds 10 --trace 0

Run from the repository root. `--trace 0` runs the timed binary (system
allocator) for the wall-clock metrics, then the counting binary for the
exact allocation count, and merges the two. `--trace 1` runs the counting
binary's traced mode: per-layer metrics, with spans written under
`.tuplepath-trace/`. Durable warehouse directories live under
`.tuplepath-tmp/` while a run lasts and are removed before it ends.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    if configured:
        return os.path.abspath(configured)
    return os.path.join(HERE, "target")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")


def run_child(binary, args):
    path = os.path.join(target_dir(), "release", binary)
    try:
        done = subprocess.run([path] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{binary} did not finish within {CHILD_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {path}: {e}")
    if done.returncode != 0:
        fail(f"{binary} exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{binary} printed no result")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    build()
    tmp_root = os.path.abspath(".tuplepath-tmp")
    tmp = os.path.join(tmp_root, f"run-{os.getpid()}")
    common = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--tmp", tmp]
    try:
        if a.trace == 0:
            timed = run_child("tuplepath", common + ["--mode", "timed"])
            counts = run_child("tuplepath_traced", common + ["--mode", "counts"])
            same_output = timed.get("digest") == counts.get("digest")
            if not same_output:
                print("run.py: the two processes' live digests differ", file=sys.stderr)
            result = {
                "correct": bool(timed["correct"] and counts["correct"] and same_output),
                "attempted": timed["attempted"] + counts["attempted"],
                "failed": timed["failed"] + counts["failed"],
                "metrics": {**timed["metrics"], **counts["metrics"]},
            }
        else:
            out = os.path.abspath(os.path.join(".tuplepath-trace",
                                               f"{a.workload}-{a.seed}.jsonl"))
            traced = run_child("tuplepath_traced", common + ["--mode", "trace",
                                                             "--trace-out", out])
            result = {k: traced[k] for k in ("correct", "attempted", "failed", "metrics")}
    finally:
        if os.path.isdir(tmp):
            shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    print(json.dumps(result))


if __name__ == "__main__":
    main()
