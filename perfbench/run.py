#!/usr/bin/env python3
"""Build and run the perfbench benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload crash-ls4 --seed 1 --seconds 15 --trace 0

The Go benchmark is compiled from the checkout's sources into .bench_build/
(binary, build cache and temp files all stay inside the checkout), then run
with the given arguments from the checkout root. The exit code is the
benchmark's; a failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"


def go_env():
    env = dict(os.environ)
    for name in ("gocache", "gopath", "tmp", "config"):
        (BUILD / name).mkdir(parents=True, exist_ok=True)
    env.update(
        # The go command's telemetry counters live under the user config
        # directory; keep them inside the checkout too.
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(BUILD / "tmp"),
        GOFLAGS="",
        GOENV="off",
        GOWORK="off",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    return env


def main():
    env = go_env()
    build = subprocess.run(
        ["go", "build", "-o", str(BINARY), "."],
        cwd=ROOT / "perfbench", env=env,
        stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([str(BINARY)] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
