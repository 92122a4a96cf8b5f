#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_readmostly --seed 1 --seconds 10 --trace 0

Every argument is passed to e2e.exe (see perfbench/README.md).  The
build goes to $CARGO_TARGET_DIR when that is set, else to .bench_build,
with the release profile and dune's shared cache off, so nothing is
written outside the checkout.  With --trace 1 the first traced seed's
spans are also written as a Chrome trace next to the build.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", root, "--build-dir", build_dir,
        "--profile", "release", "--display", "quiet", "./perfbench/e2e.exe",
    ]
    try:
        done = subprocess.run(build, cwd=root, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = list(argv)
    if "--chrome" not in args and _value(args, "--trace") == "1":
        workload = _value(args, "--workload") or "all"
        args += ["--chrome", os.path.join(build_dir, f"perfbench-{workload}.trace.json")]
    exe = os.path.join(build_dir, "default", "perfbench", "e2e.exe")
    # one workload must finish in time; a run of all of them is not bounded
    timeout = RUN_TIMEOUT_S if _value(args, "--workload") else None
    try:
        return subprocess.run([exe] + args, cwd=root, timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


def _value(args, flag):
    """The value given to a flag, as --flag V or --flag=V, or None."""
    for i, a in enumerate(args):
        if a == flag and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(flag + "="):
            return a[len(flag) + 1:]
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
