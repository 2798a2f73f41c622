#!/usr/bin/env bash
# Malformed CLI flags must be rejected with the usage exit code (2) before
# any work runs — never clamped, truncated or defaulted into a different run.
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
expect_usage_error solve --er 40 --straggler-factor 2x
expect_usage_error solve --er 40 --straggler-factor nan
expect_usage_error serve --store . --path 3:-1

# The well-formed counterpart still runs.
if ! "$CLI" model --n 1000 --block 250 --rounds 1 > /dev/null 2>&1; then
  echo "FAIL: apspark_cli model --n 1000 --block 250 --rounds 1 did not run"
  failures=$((failures + 1))
fi

exit "$failures"
