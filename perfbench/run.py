#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload clos_write --seed 30 --seconds 10 --trace 0

The arguments pass through to the Go program (see README.md). The build
and its caches stay under .bench_build/ in the repository root. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(os.path.dirname(here), ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
