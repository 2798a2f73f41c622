#!/usr/bin/env python3
"""Checks a fresh BENCH_*.json against a committed baseline.

Usage: check_gates.py <measured.json> <baseline.json>

Every gated record declares its gates:

  "gates": [{"id", "metric", "better": "higher"|"lower", "kind", ...}]

  kind "relative" carries "tol" and "tol_other_host": higher is better
      passes m >= b * (1 - tol), lower is better passes m <= b * (1 + tol);
  kind "bound" carries "limit" and "limit_other_host": a floor when higher
      is better, a ceiling when lower is better.

The plain value applies when both files' host records agree on ISA (run-time
and compiled), core count, cache sizes and build type, the *_other_host
value otherwise; null
skips the gate on that kind of host. Gates match by id; a baseline gate
missing from the measured file fails unless it is "optional", and a gated
record whose bitwise_equal* field is false fails. Prints one row per gate
and exits 1 on any FAIL.
"""
import json
import sys

HOST_KEYS = ("isa", "compiled_isa", "nproc", "l1d_bytes", "l2_bytes", "l3_bytes", "build_type")


def host(records):
    return next((r for r in records if r.get("section") == "host"), None)


def same_host(measured, baseline):
    a, b = host(measured), host(baseline)
    return a is not None and b is not None and all(
        a.get(k) == b.get(k) for k in HOST_KEYS)


def declared(records, name, failures):
    """id -> (gate, record) for every gate the file declares."""
    gates = {}
    for record in records:
        ids = [gate["id"] for gate in record.get("gates", [])]
        for key, value in record.items():
            if ids and key.startswith("bitwise_equal") and value is False:
                failures.append(f"{name}: the record of {', '.join(ids)} has "
                                f"{key} false")
        for gate in record.get("gates", []):
            if gate["id"] in gates:
                failures.append(f"{name}: gate {gate['id']} declared twice")
            gates[gate["id"]] = (gate, record)
    return gates


def evaluate(measured, baseline):
    """Returns ([(id, measured, baseline, bound, status)], notes, failures)."""
    rows, notes, failures = [], [], []
    suffix = "" if same_host(measured, baseline) else "_other_host"
    notes.append("hosts match" if not suffix else
                 "hosts differ: using the *_other_host values")
    measured_gates = declared(measured, "measured", failures)
    baseline_gates = declared(baseline, "baseline", failures)
    for gid in list(baseline_gates) + [g for g in measured_gates
                                       if g not in baseline_gates]:
        if gid not in baseline_gates:
            rows.append((gid, "-", "-", "-", "FAIL"))
            failures.append(f"{gid}: not in the baseline; regenerate it")
            continue
        gate, base_record = baseline_gates[gid]
        if gid not in measured_gates:
            status = "skip" if gate.get("optional") else "FAIL"
            rows.append((gid, "-", "-", "-", status))
            message = f"{gid}: no record in the measured file carries it"
            (notes if status == "skip" else failures).append(message)
            continue
        if measured_gates[gid][0] != gate:
            rows.append((gid, "-", "-", "-", "FAIL"))
            failures.append(f"{gid}: declaration differs from the baseline's;"
                            " regenerate the baseline")
            continue
        metric, higher = gate["metric"], gate["better"] == "higher"
        m = measured_gates[gid][1].get(metric)
        b = base_record.get(metric)
        relative = gate["kind"] == "relative"
        value = gate[("tol" if relative else "limit") + suffix]
        if value is None:
            rows.append((gid, m, b, "-", "skip"))
            notes.append(f"{gid}: not evaluated on this kind of host")
            continue
        if m is None or (relative and b is None):
            rows.append((gid, m, b, "-", "FAIL"))
            failures.append(f"{gid}: record has no {metric}")
            continue
        if relative:
            bound = b * (1 - value) if higher else b * (1 + value)
        else:
            bound = value
        ok = m >= bound if higher else m <= bound
        rows.append((gid, m, b, f"{'>=' if higher else '<='} {bound:.6g}",
                     "OK" if ok else "FAIL"))
        if not ok:
            failures.append(f"{gid}: {metric} {m} past its bound")
    return rows, notes, failures


def main(argv):
    if len(argv) != 2:
        print("usage: check_gates.py <measured.json> <baseline.json>",
              file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path) as f:
            files.append(json.load(f)["results"])
    rows, notes, failures = evaluate(*files)
    print(f"{'gate':40} {'measured':>14} {'baseline':>14} {'bound':>16}  status")
    for gid, m, b, bound, status in rows:
        print(f"{gid:40} {m!s:>14} {b!s:>14} {bound:>16}  {status}")
    for note in notes:
        print(f"note: {note}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
