#!/usr/bin/env python3
"""Build and run the carbon-serve end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <circuit_cold|hot_repeat|econ_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the
repository's crates, then runs it. The last line of standard output is
the JSON result; cargo's output goes to standard error. The build goes
to `$CARGO_TARGET_DIR`, or `perfbench/target` when it is unset, and the
traced run's span file to `perfbench-out/` inside that directory.

Exit status: the benchmark's own (0 when every check passed, 1 when a
check failed), or 2 when the program could not be built or run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main():
    if not os.path.isfile(os.path.join(ROOT, "crates", "serve", "Cargo.toml")):
        return fail("the carbon-serve sources (crates/serve) are not in this checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build failed: {e}")
    if built.returncode != 0:
        return fail(f"build failed with status {built.returncode}")
    binary = os.path.join(target, "release", "perfbench")
    command = [binary, *sys.argv[1:], "--out", os.path.join(target, "perfbench-out")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run failed: {e}")


if __name__ == "__main__":
    sys.exit(main())
