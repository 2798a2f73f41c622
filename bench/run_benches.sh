#!/usr/bin/env sh
# Builds (if needed) and reruns every gated benchmark, rewriting each
# committed BENCH_*.json at the repo root in place. Each file names the
# bench that writes it in its "benchmark" field.
#
# Usage: bench/run_benches.sh [build-dir]   (default: build)
set -e

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
bench_of() { sed -n 's/^ *"benchmark": "\([a-z0-9_]*\)".*/\1/p' "$1"; }

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
for file in BENCH_*.json; do
  cmake --build "$BUILD_DIR" -j "$(nproc 2>/dev/null || echo 2)" \
    --target "$(bench_of "$file")"
  APSPARK_BENCH_JSON="$(pwd)/$file" "$BUILD_DIR/$(bench_of "$file")"
done
