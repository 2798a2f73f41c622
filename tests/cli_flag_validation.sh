#!/usr/bin/env bash
# Malformed CLI flags must be rejected with the usage exit code (2) before
# any work runs — never clamped, truncated or defaulted into a different run.
# A few well-formed runs, including the k-source path, must still exit 0.
#
# Usage: cli_flag_validation.sh <path/to/apspark_cli>
set -u

CLI="$1"
failures=0

expect_usage_error() {
  "$CLI" "$@" > /dev/null 2>&1
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: apspark_cli $* exited $rc, expected 2"
    failures=$((failures + 1))
  else
    echo "ok: apspark_cli $* rejected"
  fi
}

expect_usage_error model --n 1000 --block -3
expect_usage_error model --n 1000 --block abc
expect_usage_error model --n 1000 --block 0
expect_usage_error model --n 1000 --rounds -1
expect_usage_error model --n 0
expect_usage_error model --n 1000 --cores 0
expect_usage_error model --n 1000 --checkpoint-every -1
expect_usage_error model --n 1000 --sources 99999999999999999999
expect_usage_error solve --er 40abc
expect_usage_error solve --er ""
expect_usage_error solve --er 40 --partitioner bogus
expect_usage_error solve --er 40 --fail-node 1@x
expect_usage_error serve --store . --random 10 --zipf 2x
expect_usage_error serve --store . --random 10 --zipf nan
expect_usage_error serve --store . --random 10 --zipf inf
# Executor loss is the only membership event: there are no racks, joins,
# hard stragglers or speculative copies to ask for.
expect_usage_error solve --er 64 --block 16 --fail-rack 0@1
expect_usage_error solve --er 64 --block 16 --add-node @1
expect_usage_error solve --er 64 --block 16 --racks 2
expect_usage_error solve --er 64 --block 16 --straggler-factor 2
expect_usage_error solve --er 64 --block 16 --straggler-every 4
expect_usage_error solve --er 64 --block 16 --speculate
# Loss plans that together name every node cannot be honoured (the last
# live node is never killed), so they are refused, not silently thinned.
expect_usage_error solve --er 64 --block 16 --cores 4 --fail-node 0@1 \
    --fail-node 1@9
expect_usage_error model --n 4096 --block 1024 --cores 64 --fail-node 0@1 \
    --fail-node 1@2
# plan and model split --cores into equal nodes (whole 32-core nodes from
# 64 cores on): a count that does not split is refused, never modelled as
# fewer cores.
expect_usage_error model --n 1000 --cores 100
expect_usage_error model --n 1000 --cores 1000
expect_usage_error plan --n 1000 --cores 100
expect_usage_error plan --n 1000 --cores 65
# solve models --cores C as nodes of two cores (one node below 4): a count
# that does not split into equal nodes is refused too.
expect_usage_error solve --er 32 --block 8 --cores 5
expect_usage_error solve --er 32 --block 8 --cores 7
# --intra-task-cores spends a node's own cores: at most cores_per_node.
expect_usage_error model --n 1000 --intra-task-cores 64
# The kernels run one fixed tile geometry; there is nothing to auto-tune.
expect_usage_error solve --er 64 --autotune
expect_usage_error plan --n 4096 --autotune
expect_usage_error model --n 1000 --autotune
# The host kernels are tiled or tiled_parallel; the scalar reference is the
# per-semiring oracle, not a selectable kernel.
expect_usage_error solve --er 64 --block 16 --kernel naive
# An empty graph is a usage error, not an abort.
empty_graph="$(mktemp)"
printf 'apsp 0 0\n' > "$empty_graph"
expect_usage_error solve --input "$empty_graph" --block 2
# A rejected solve prints no "solving ..." banner for the run it refused.
if "$CLI" solve --input "$empty_graph" --block 2 2> /dev/null |
    grep -q "solving"; then
  echo "FAIL: rejected solve --input <empty graph> printed a solving banner"
  failures=$((failures + 1))
else
  echo "ok: rejected solve printed no solving banner"
fi
rm -f "$empty_graph"
expect_usage_error serve --store . --path 3:-1
# The k-source data plane comes from --ksource-variant, so --solver is a
# usage error there; so is --persist (a panel is not a servable store).
expect_usage_error solve --er 256 --sources 8 --block 64 --solver rs
expect_usage_error model --n 1000 --sources 8 --solver im
expect_usage_error solve --er 64 --sources 4 --block 16 --persist unused-dir

# The well-formed counterparts still run.
expect_run() {
  "$CLI" "$@" > /dev/null 2>&1
  local rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: apspark_cli $* exited $rc, expected 0"
    failures=$((failures + 1))
  else
    echo "ok: apspark_cli $* ran"
  fi
}

expect_run model --n 1000 --block 250 --rounds 1
expect_run solve --er 32 --block 8 --cores 1
expect_run solve --er 32 --block 8 --cores 3
expect_run solve --er 64 --block 16 --cores 8 --fail-node 0@1 --fail-node 1@9
expect_run model --n 1000 --intra-task-cores 32
expect_run solve --er 64 --sources 4 --block 16 --ksource-variant shuffle
expect_run model --n 16384 --sources 64 --block 1024 --ksource-variant auto
if ! "$CLI" model --n 16384 --sources 64 --block 1024 --ksource-variant auto \
    2> /dev/null | grep -q "^auto-selected ksource data plane: "; then
  echo "FAIL: model --ksource-variant auto printed no auto-selected plane"
  failures=$((failures + 1))
fi
# model without --cores runs the paper's 1024-core cluster; a given --cores
# goes through the same mapping as plan and models exactly that many cores:
# whole 32-core nodes from 64 cores on, one node of C cores below.
model_cluster() {
  "$CLI" model --n 1000 --block 250 "$@" 2> /dev/null | head -n 1 |
      grep -o "on [0-9]* nodes x [0-9]* cores"
}
if [ "$(model_cluster)" != "on 32 nodes x 32 cores" ] ||
    [ "$(model_cluster --cores 2)" != "on 1 nodes x 2 cores" ] ||
    [ "$(model_cluster --cores 63)" != "on 1 nodes x 63 cores" ] ||
    [ "$(model_cluster --cores 64)" != "on 2 nodes x 32 cores" ] ||
    [ "$(model_cluster --cores 96)" != "on 3 nodes x 32 cores" ]; then
  echo "FAIL: model --cores does not model the cores it was given"
  failures=$((failures + 1))
else
  echo "ok: model --cores models the cores it was given"
fi
# A solve reports what the host paid beside the modelled memory peaks, and
# its CPU time over its wall time.
if ! "$CLI" solve --er 64 --block 16 2> /dev/null |
    grep -Eq "^host: solve minor-faults=[0-9]+ peak-rss=[0-9.]+[KMG]?i?B cpu/wall=[0-9]+\.[0-9]{2}$"; then
  echo "FAIL: solve printed no host: line"
  failures=$((failures + 1))
fi
# A persisted solve reports the persist's own wall time, faults and CPU.
persisted="$(mktemp -d)"
if ! "$CLI" solve --er 64 --block 16 --persist "$persisted/store" 2> /dev/null |
    grep -Eq "^host: persist wall=[0-9]+\.[0-9]ms minor-faults=[0-9]+ cpu/wall=[0-9]+\.[0-9]{2}$"; then
  echo "FAIL: solve --persist printed no host: persist line"
  failures=$((failures + 1))
fi
rm -rf "$persisted"
# A negative cycle has no shortest paths: the solve fails, and writes
# neither distances nor a store.
negative="$(mktemp -d)"
printf 'apsp 3 3\n0 1 1\n1 2 -2\n2 0 -2\n' > "$negative/g.txt"
"$CLI" solve --input "$negative/g.txt" --block 2 --output "$negative/d.txt" \
    --persist "$negative/store" > /dev/null 2>&1
rc=$?
if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ] || [ -e "$negative/d.txt" ] ||
    [ -e "$negative/store" ]; then
  echo "FAIL: solve of a negative cycle exited $rc or wrote output"
  failures=$((failures + 1))
else
  echo "ok: solve of a negative cycle failed and wrote nothing"
fi
# So does a k-source solve whose sources reach the cycle, on either plane.
for plane in staged shuffle; do
  "$CLI" solve --input "$negative/g.txt" --block 2 --sources 2 \
      --ksource-variant "$plane" --output "$negative/p.txt" > /dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 1 ] || [ -e "$negative/p.txt" ]; then
    echo "FAIL: $plane k-source solve of a negative cycle exited $rc or wrote output"
    failures=$((failures + 1))
  else
    echo "ok: $plane k-source solve of a negative cycle failed and wrote nothing"
  fi
done
rm -rf "$negative"

exit "$failures"
