#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 10 --trace 0

Builds perfbench/omegabench.exe and bin/omega_serve.exe from source (dune,
release profile, build directory .bench_build/dune, no shared cache), then
runs the workload.  Everything it writes stays under .bench_build/.  The
last line of standard output is the JSON result; build output goes to
standard error.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-mix", "drain-exact", "join-exact", "drain-par")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
WORK_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    die("dune not found on PATH")


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
        "perfbench/omegabench.exe", "bin/omega_serve.exe",
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        die("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    for needed in ("dune-project", "lib", os.path.join("bin", "omega_serve.ml")):
        if not os.path.exists(needed):
            die("not a source checkout (missing %s)" % needed)
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "omegabench.exe")
    serve = os.path.join(BUILD_DIR, "default", "bin", "omega_serve.exe")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve", serve, "--work", WORK_DIR,
    ]
    # Own process group, so a stuck run takes its daemon down with it; a
    # SIGTERM to this script unwinds through the same cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        # whatever the outcome, nothing the run started outlives it
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
