#!/usr/bin/env python3
"""Builds and runs the apspark end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload serve_uniform --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --workload serve_zipf --seed 1 --seconds 50 --trace 1
  python3 perfbench/run.py ... --smoke    # tiny sizes (perfbench/selftest.py)

The C++ benchmark (perfbench/perfbench.cc) is built with CMake from the
sources in this checkout into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to standard error; the last line
of standard output is the result object. README.md in this directory
defines the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_uniform", "serve_zipf")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds (the checkout may carry no .git)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += sorted(p for p in HERE.iterdir() if p.is_file())
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
        if git.returncode == 0:
            ident = "git:" + git.stdout.strip()[:12] + " " + ident
    return ident


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "apsp_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "apsp_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny problem sizes, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"apspark sources not found next to {HERE.name}/; run from a "
             "full checkout")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    binary = build(build_dir)
    scratch = build_dir / f"scratch-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch), "--source-id", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        print(f"perfbench: benchmark exited with {done.returncode}",
              file=sys.stderr)
        sys.exit(done.returncode if done.returncode > 0 else 1)


if __name__ == "__main__":
    main()
