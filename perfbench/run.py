#!/usr/bin/env python3
"""End-to-end benchmark of the offline, live and serving paths.

    python3 perfbench/run.py --workload <offline-publish|live-ingest|serve-read>
                             --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ incrementally into .bench_build/perfbench (Release only),
runs the requested workload in a scratch directory under .bench_build/tmp
that it removes afterwards, and passes the binary's output through: a
header, the operations attempted and failed, and a final JSON line with the
metrics. Exits nonzero when the build fails or any output check fails.
See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_ROOT = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("offline-publish", "live-ingest", "serve-read")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def cached_setting(cache_text, name):
    for line in cache_text.splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1].strip()
    return None


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under %s/src" % ROOT)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            text = f.read()
        build_type = cached_setting(text, "CMAKE_BUILD_TYPE")
        if build_type != "Release":
            fail("%s is a '%s' build tree; only Release is benchmarked"
                 % (BUILD_DIR, build_type))
        if cached_setting(text, "STPT_SANITIZE"):
            fail("%s is a sanitizer build tree; not benchmarked" % BUILD_DIR)
    else:
        os.makedirs(BUILD_DIR, exist_ok=True)
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)


def commit_id():
    """The git commit, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                        help="benchmark self-test: corrupt one expected value "
                             "so that the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err, code=3)

    # A signal ends the run like a timeout does: the child is stopped and
    # waited for, and the scratch directory removed.
    def stop(signum, _frame):
        raise SystemExit(128 + signum)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    proc = None
    try:
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp", tmp_dir, "--commit", commit_id(),
               "--corrupt", str(args.corrupt)]
        proc = subprocess.Popen(cmd, cwd=tmp_dir)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("workload exceeded %d s" % RUN_TIMEOUT_S, code=4)
    finally:
        if proc is not None and proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        shutil.rmtree(tmp_dir, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
