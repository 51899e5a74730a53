#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs the workload
in a process of its own, compares its deterministic counts and trace hashes
with `perfbench/pins.json` when the seed is the pinned one, and prints as
the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def pin_drift(workload, seed, got):
    """Count pinned values this run reproduced differently.

    Drift is a behaviour change, not a failure: it is reported on its own
    line and does not enter `failed`.
    """
    entry = load_json(os.path.join(HERE, "pins.json")).get(workload)
    if entry is None or entry["seed"] != seed:
        print(f"pins: seed {seed} is not pinned for {workload}; drift not checked")
        return
    pinned = entry["values"]
    shared = sorted(k for k in got if k in pinned)
    drift = [k for k in shared if got[k] != pinned[k]]
    for k in drift:
        print(f"pins: {k} drifted: pinned {pinned[k]}, got {got[k]}")
    print(f"pins: drift {len(drift)} of {len(shared)} pinned values")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    bench = load_json(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    workdir = os.path.join(target, "perfbench-work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    # glibc raises its mmap threshold each time a large block is freed, so
    # which buffers land on the heap, and how fragmented it gets, varies
    # with the seed: peak RSS swung by a third between seeds of one
    # workload. Pinning the threshold at its 128 KiB default turns the
    # adjustment off and makes peak RSS track the program's own memory.
    run_env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=run_env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"workload exited with code {run.returncode}")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    want = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(want):
        fail(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(want)}")
    pin_drift(args.workload, args.seed, result["pins"])
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
