#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload campus-analytics --seed 1 --seconds 20 --trace 0

Every build artefact, cache and run file stays under .bench_build/ in the
repository root. The last line of standard output is the result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The benchmark itself finishes well inside this; the wrapper stops it if not.
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOTMPDIR": "gotmp",
        "GOPATH": "gopath",
        "XDG_CONFIG_HOME": "config",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="-mod=mod", CGO_ENABLED="0")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(),
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
