#!/usr/bin/env python3
"""Build the dsnet benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build; traced runs (--trace 1) write their spans there
as spans-<workload>-<seed>.jsonl. The last line of standard output is
the result object of the perfbench binary; its exit status is passed
through.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: run from a dsnet checkout (src/ not found)\n")
        return None
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                          stdout=log, stderr=log)
    if made.returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 2
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") == "1":
        # Traced runs keep their spans next to the build.
        name = "spans-%s-%s.jsonl" % (opts.get("--workload"), opts.get("--seed"))
        argv = argv + ["--spans", os.path.join(build_dir, name)]
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
