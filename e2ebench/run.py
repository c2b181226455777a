#!/usr/bin/env python3
"""Build and run the layer-attributed end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload alert_pipeline --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 15

The first form runs one workload in its own process and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics with all instrumentation off, `--trace 1` the per-layer
table. `--workload all` runs every workload both ways and prints a summary.

The Rust harness is built from source with cargo (offline, release) into
$CARGO_TARGET_DIR, `.bench_build` when unset. If the harness process dies
(a stack overflow cannot be caught in-process), the operations of its
unfinished phase count as failed and the run exits non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["alert_pipeline", "tenant_ingest", "batch_query"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def git_revision():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "e2ebench")


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload process; returns (exit code, result line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    done_attempted = done_failed = 0
    open_phase = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            words = line.split()
            if line.startswith("# phase ") and len(words) >= 5:
                if words[3] == "planned":
                    open_phase = int(words[4])
                elif words[3] == "done":
                    done_attempted += int(words[5])
                    done_failed += int(words[7])
                    open_phase = None
                continue
            if line.startswith("{"):
                result = line
                continue
            if echo:
                print(line, flush=True)
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == 0 and result is not None:
        return 0, result
    # The process died: every op of the unfinished phase failed.
    lost = open_phase or 0
    print(f"# e2ebench: {workload} exited with {proc.returncode}; "
          f"{lost} ops of the unfinished phase count as failed", flush=True)
    return 1, json.dumps({
        "correct": False,
        "attempted": max(done_attempted + lost, 1),
        "failed": done_failed + max(lost, 1),
        "metrics": {},
    })


def run_all(binary, seed, seconds):
    code = 0
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"## {workload} --trace {trace}", flush=True)
            rc, line = run_one(binary, workload, seed, seconds, trace)
            res = json.loads(line)
            code = code or rc or (0 if res["correct"] else 1)
            ratio = res["failed"] / max(res["attempted"], 1)
            rows.append((workload, trace, res, ratio))
    print("## summary")
    for workload, trace, res, ratio in rows:
        print(f"{workload} trace={trace} correct={res['correct']} "
              f"failed_op_ratio={ratio:.6f} ({res['failed']}/{res['attempted']})")
        for name, m in sorted(res["metrics"].items()):
            print(f"  {name:<36} {m['value']:>16.6f} {m['unit']}")
    return code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    binary = build()
    if binary is None:
        return 2
    print(f"# revision {git_revision()}", flush=True)
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
