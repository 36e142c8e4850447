#!/usr/bin/env python3
"""Builds mrpf and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload grid-greedy --seed 1 --seconds 20 --trace 0

Run it from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's own messages go to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when either build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well inside three minutes; past this it is stuck.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no mrpf workspace beside the benchmark", file=sys.stderr)
        return 1
    builds = [
        # The `mrpf` binary `serve-zipf` starts, from the repository workspace.
        ["cargo", "build", "--release", "--quiet", "-p", "mrp-cli"],
        # The harness: a package and workspace of its own.
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "mrpf-perfbench")] + sys.argv[1:] + [
        "--mrpf", os.path.join(release, "mrpf"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # Own process group, so a stuck run takes its server down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
