#!/usr/bin/env python3
"""Self-test of the benchmark in smoke mode.

Run from the repository root:

  python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at tiny size through
perfbench/run.py --smoke, untraced and traced, and checks that each run
passes its correctness checks, prints every metric BENCHMARK.json names
(end_to_end untraced, per_layer traced) with the declared unit and a finite
value, stamps a host fingerprint, and (traced) prints the per-layer
self-time table. Exits non-zero on the first violation.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    return done.stdout


def check(workload, trace, stdout, declared):
    where = f"{workload} trace={trace}"
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: correctness checks failed"
    assert result["failed"] == 0, f"{where}: {result['failed']} failures"
    assert result["attempted"] >= 1, where
    names = {m["name"] for m in declared}
    assert set(result["metrics"]) == names, (
        f"{where}: printed {sorted(result['metrics'])}, declared "
        f"{sorted(names)}")
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit"
        assert isinstance(got["value"], (int, float)), where
        assert math.isfinite(got["value"]), f"{where}: {m['name']}"
    assert any(line.startswith("fingerprint {") for line in lines), where
    if trace:
        assert any(line.startswith("per-layer self time") for line in lines), (
            f"{where}: no per-layer table")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            check(workload, trace, run(workload, trace), declared)
            print(f"ok  {workload} trace={trace}")
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
