#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --ref-nominal-ms <ms> --workload <name> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it, and passes its output through: the last stdout
line is the JSON result. Scratch files (result stores) live under
`<target>/perfbench-work` and are removed by the run; a traced run writes
its spans to `<target>/perfbench-traces/<workload>-seed<n>.json`.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    command = [os.path.join(target, "release", "perfbench"), *args,
               "--work-dir", os.path.join(target, "perfbench-work")]
    if flag(args, "--trace") == "1":
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        command += ["--trace-out", os.path.join(target, "perfbench-traces", name)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
