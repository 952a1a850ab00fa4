#!/usr/bin/env python3
"""The repository benchmark: open-loop traffic against the GAA web server.

    python3 perfbench/run.py --workload static_get --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The script builds perfbench/ together with
the server sources under src/ into .bench_build/perfbench (CMake, optimized),
runs the generator self-tests, then runs one measurement.  The measurement's
last line of standard output is the result as one JSON object; everything
else (build output, the capacity-search log) goes to standard error.
Spans of traced runs go to .bench_build/perfbench-out/.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench",
                            "-j", jobs], stdout=sys.stderr, stderr=sys.stderr) == 0


def source_id():
    """The git commit when there is one, plus a digest of the sources built."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit} src:{digest.hexdigest()[:16]}"


def run(command):
    """Runs the binary in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        log("perfbench: run timed out")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["static_get", "mixed"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        log("perfbench: build failed")
        return 1
    selftest = subprocess.run([BINARY, "--selftest"], capture_output=True,
                              text=True)
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        log("perfbench: generator self-tests failed")
        return 1
    if args.selftest:
        return 0

    os.makedirs(OUT, exist_ok=True)
    return run([BINARY, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", OUT, "--commit", source_id()])


if __name__ == "__main__":
    sys.exit(main())
