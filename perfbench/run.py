#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 16 --trace 0

The Go module in perfbench/ builds against the repository one directory
up. Everything the build and the run write stays under .bench_build/ in
the current directory (or under $CARGO_TARGET_DIR when set): the binary,
the Go build cache and the run's scratch files. The last line of
standard output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(out, "work")
    return subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
