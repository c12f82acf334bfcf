#!/usr/bin/env python3
"""Runs one perfbench run (see perfbench/README.md).

    python3 perfbench/run.py --workload wire_oltp --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the engine library and the perfbench
binary from source into .bench_build (Release; the binary refuses to report
from an unoptimized build), then makes one measured run (--trace 0, the
end-to-end metrics) or one traced run (--trace 1, the per-layer metrics).
The binary's output is passed through; its last line is the result JSON.
Run artifacts (result and span files, temporary WAL directories) go to
.perfbench_out.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("wire_oltp", "rule_cascade", "set_bulk")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the binary; returns its path or None."""
    cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
           "-DCMAKE_BUILD_TYPE=Release"]
    if (shutil.which("ninja") and
            not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def commit_id():
    """The git sha when run from a git checkout, else "nogit", plus a digest
    of the sources the binary is built from and run by (documents left
    out), so every output names the code it measured."""
    sha = "nogit"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".md"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha + "+src." + digest.hexdigest()[:12]


def wait_group(pgid):
    """Waits until every process of the run's group has ended (a server
    child exits once its stdin closes); kills stragglers after 10 s."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL if time.monotonic() > deadline
                      else 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    exe = build()
    if exe is None:
        log("build failed")
        return 1
    cmd = [exe, "load", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", OUT_DIR, "--commit", commit_id()]
    # Own process group, so a timeout takes the server children down too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        wait_group(proc.pid)
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    wait_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
