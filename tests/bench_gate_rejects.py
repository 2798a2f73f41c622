#!/usr/bin/env python3
"""Every gate in every committed BENCH_*.json must reject a regression.

Usage: bench_gate_rejects.py <repo root>

For each gate, bench/check_gates.py compares a doctored copy of the
committed file against the file itself and must fail when the gated metric
sits just past the gate's bound, and also when the host record differs and
the metric sits just past the *_other_host bound (a null there must skip the
gate instead); a change to any one compared host field (compiled ISA
included) must make the hosts differ. Deleting a gated record must fail, or
skip when all its gates are optional, and a gated record whose
bitwise_equal* flag turns false must fail.
"""
import contextlib
import copy
import glob
import importlib.util
import io
import json
import os
import sys
import tempfile


# The host-record fields that decide "same host"; a portable build
# (compiled_isa "baseline") never matches a native baseline.
HOST_FIELDS = ("isa", "compiled_isa", "nproc", "l1d_bytes", "l2_bytes",
               "l3_bytes", "build_type")


def load_checker(root):
    spec = importlib.util.spec_from_file_location(
        "check_gates", os.path.join(root, "bench", "check_gates.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(checker, doc, baseline_path, tmpdir):
    """Exit code and {gate id: status} of checking `doc` against the file."""
    path = os.path.join(tmpdir, "measured.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = checker.main([path, baseline_path])
    statuses = {}
    for line in out.getvalue().splitlines()[1:]:
        fields = line.split()
        if fields and not line.startswith(("note:", "FAIL:")):
            statuses[fields[0]] = fields[-1]
    return rc, statuses


def past(bound, higher):
    """A value just on the failing side of `bound`."""
    step = max(abs(bound), 1.0) * 1e-6
    return bound - step if higher else bound + step


def bound_of(gate, record, suffix):
    value = gate[("tol" if gate["kind"] == "relative" else "limit") + suffix]
    if value is None or gate["kind"] == "bound":
        return value
    b = record[gate["metric"]]
    return b * (1 - value) if gate["better"] == "higher" else b * (1 + value)


def gated(doc):
    for index, record in enumerate(doc["results"]):
        for gate in record.get("gates", []):
            yield index, gate


def main(root):
    checker = load_checker(root)
    errors = []
    cases = 0

    def expect(what, got, want):
        nonlocal cases
        cases += 1
        if got != want:
            errors.append(f"{what}: got {got}, want {want}")

    with tempfile.TemporaryDirectory() as tmpdir:
        for baseline_path in sorted(glob.glob(os.path.join(root,
                                                           "BENCH_*.json"))):
            name = os.path.basename(baseline_path)
            with open(baseline_path) as f:
                baseline = json.load(f)
            host = next(i for i, r in enumerate(baseline["results"])
                        if r.get("section") == "host")
            for key in HOST_FIELDS:
                doc = copy.deepcopy(baseline)
                doc["results"][host][key] = "differs"
                expect(f"{name} host {key} differs", checker.same_host(
                    doc["results"], baseline["results"]), False)
            for index, gate in gated(baseline):
                gid, record = gate["id"], baseline["results"][index]
                higher = gate["better"] == "higher"
                for suffix in ("", "_other_host"):
                    doc = copy.deepcopy(baseline)
                    if suffix:
                        doc["results"][host]["nproc"] += 1
                    bound = bound_of(gate, record, suffix)
                    if bound is None:
                        _, statuses = run(checker, doc, baseline_path, tmpdir)
                        expect(f"{name} {gid}{suffix} null", statuses.get(gid),
                               "skip")
                        continue
                    doc["results"][index][gate["metric"]] = past(bound, higher)
                    rc, statuses = run(checker, doc, baseline_path, tmpdir)
                    expect(f"{name} {gid}{suffix} past bound",
                           (rc, statuses.get(gid)), (1, "FAIL"))
                    # Between the two bounds only the other-host one passes.
                    local = bound_of(gate, record, "")
                    if suffix and local is not None and local != bound:
                        doc["results"][index][gate["metric"]] = (local +
                                                                 bound) / 2
                        _, statuses = run(checker, doc, baseline_path, tmpdir)
                        expect(f"{name} {gid} between bounds",
                               statuses.get(gid), "OK")
            for index, record in enumerate(baseline["results"]):
                gates = record.get("gates", [])
                if not gates:
                    continue
                doc = copy.deepcopy(baseline)
                del doc["results"][index]
                rc, statuses = run(checker, doc, baseline_path, tmpdir)
                status = ("skip" if all(g.get("optional") for g in gates)
                          else "FAIL")
                expect(f"{name} record {index} deleted",
                       (rc, statuses.get(gates[0]["id"])),
                       (0 if status == "skip" else 1, status))
                for key in record:
                    if key.startswith("bitwise_equal"):
                        doc = copy.deepcopy(baseline)
                        doc["results"][index][key] = False
                        rc, _ = run(checker, doc, baseline_path, tmpdir)
                        expect(f"{name} record {index} {key} false", rc, 1)
    for error in errors:
        print(f"FAIL: {error}")
    print(f"{cases} cases, {len(errors)} failed")
    return 1 if errors or cases == 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
