#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is built offline, in
release mode, into $CARGO_TARGET_DIR (default: .bench_build). The last line
of standard output is the result object of the benchmark binary; with
--trace 0 this script adds `peak_rss_mb`, the binary's peak resident set
size as the kernel reports it to its parent. The binary runs with
MALLOC_ARENA_MAX=1 and MALLOC_MMAP_THRESHOLD_=131072. Build output and
the binary's diagnostics go to standard error. The exit code is the binary's, or 1 when
the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# No run may take longer than this, set-up and checks included.
RUN_TIMEOUT_S = 170


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    command = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return target / "release" / "perfbench"


def run(binary, args):
    command = [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    # One malloc arena and a fixed mmap threshold: peak RSS then follows
    # the program's live memory instead of how many per-thread arenas
    # happened to grow (with the default, two runs of the fleet workload
    # differ by up to 20%) or how freed large blocks were reused from the
    # heap (with glibc's sliding threshold, walk-4096 peaked at either 29
    # or 32.5 MB depending on the seed; with a fixed one, at 26.4).
    env = dict(os.environ, MALLOC_ARENA_MAX="1", MALLOC_MMAP_THRESHOLD_="131072")
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    out = child.stdout.read()
    # wait4 rather than wait: it also returns the child's resource usage.
    _, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.decode(), usage


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    code, out, usage = run(binary, args)
    lines = out.strip().splitlines()
    if not lines:
        return code or 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        return code or 1
    if args.trace == 0 and usage is not None:
        # ru_maxrss is in KiB on Linux.
        metrics = dict(result["metrics"])
        metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        result["metrics"] = metrics
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
