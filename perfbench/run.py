#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Any further flags go to the perfbench binary unchanged (see
perfbench/src/main.cc). The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; trace files and the warm-restart cache
file go to its perfbench-out/ subdirectory. The last line printed is
the run's JSON result. Exits non-zero when the build fails, a result
is wrong, or the run does not finish in time.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run must end within 180 s; stop a hung one before that.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build; build output goes to stderr."""
    # The compiler's temporary files stay in the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr,
             "env": dict(os.environ, TMPDIR=tmp)}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, **quiet).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--parallel", "4"]
    return subprocess.run(cmd, **quiet).returncode == 0


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:]
    cmd += ["--out-dir", out_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
