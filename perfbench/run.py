#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tx_bits --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # tiny run of every workload

The first call configures and builds perfbench/ (which compiles ../src)
under .bench_build/perfbench/ -- or under $CARGO_TARGET_DIR/perfbench/
when that variable is set -- and later calls rebuild incrementally.
Build output goes to stderr; the benchmark's own stdout passes through,
so its last line is the JSON result.  Everything the run writes (build
tree, private native-code cache, compiler temporaries, span files) stays
under that build directory.

Exit status: the benchmark's (0 = every output correct), or non-zero
when the sources are missing, the build fails, or the run overruns.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        return fail("library sources (src/) not found next to perfbench/")

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    out = os.path.join(base, "perfbench")
    build = os.path.join(out, "build")
    work = os.path.join(out, "work")
    tmp = os.path.join(out, "tmp")
    for d in (build, work, tmp):
        os.makedirs(d, exist_ok=True)

    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "--target", "perfbench",
                  "-j", jobs])
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            return fail(f"build step failed: {e}")
        if rc != 0:
            return fail(f"build step failed ({rc}): {' '.join(cmd)}")

    binary = os.path.join(build, "perfbench")
    cmd = [binary] + argv + ["--work-dir", work]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
