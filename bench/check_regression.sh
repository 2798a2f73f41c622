#!/usr/bin/env bash
# Bench-regression gate: compares a fresh bench run against the committed
# baseline JSON and fails on a regression of the tracked record (the ROADMAP
# perf-trajectory tracker).
#
# Usage: check_regression.sh <measured.json> <baseline.json>
#                            [--metric M] [--bench B]
#   M = model    projected virtual seconds (model_seconds) of the tracked
#                Fig. 3 cell — Blocked-CB, multi-diagonal partitioner,
#                B = 2, b = 1024. Deterministic cost-model output, so any
#                growth is a real cost/placement regression; LOWER is
#                better, same rule as peak/makespan.
#   M = gops     absolute Gops of the tracked record (default; meaningful
#                when the baseline was produced on comparable hardware)
#   M = speedup  speedup over naive measured in the same run — the
#                machine-normalized metric CI uses, since hosted runners
#                differ from the machine that produced the committed file
#   M = peak     driver live-bytes high water (driver_peak_bytes) of the
#                pure shuffle-replicated ksource solve — a deterministic
#                byte count; LOWER is better, the gate fails when the
#                measured peak exceeds baseline * (1 + tolerance). Guards
#                the zero-copy data plane against copy regressions.
#   M = makespan fair-share makespan (fair_makespan_seconds) of the
#                two-tenant replay under memory headroom — modelled virtual
#                time, so deterministic; LOWER is better, same rule as
#                peak. Guards the fair scheduler against packing
#                regressions.
#   B = fig2     tracked record: tiled min-plus at b = 1024 from
#                bench_fig2_kernels / BENCH_kernels.json (default). With
#                --metric speedup the bit-packed boolean closure record
#                (boolean_packed / bitpacked / b = 1024 — the semiring
#                engine's headline, speedup vs the dense boolean plane) and
#                the SIMD micro-kernel record (minplus_simd / avx2 /
#                b = 1024, speedup vs the forced-scalar tiled path in the
#                same run) are gated in the same run; the SIMD check is
#                skipped with a note when the measured host lacks AVX2.
#   B = fig3     tracked record: the Blocked-CB / MD / B=2 / b=1024 model
#                cell from bench_fig3_blocksize / BENCH_fig3.json
#                (--metric model only)
#   B = obs      tracked record: traced-solve wall-time ratio from
#                bench_obs_overhead / BENCH_obs.json (--metric overhead
#                only). Gated against the fixed 5% ceiling rather than
#                baseline*(1+tol): the metric is a noisy ratio near zero,
#                where a multiplicative band is meaninglessly tight. The
#                record's bitwise_equal flag must also be true — tracing
#                must never change a solve.
#   B = ksource  tracked record: tiled rect kernel at b = 1024, k = 64 from
#                bench_ksource / BENCH_ksource.json (gops/speedup), or the
#                tiled solve on the shuffle data plane (peak)
#   B = multitenant  tracked record: two-tenant fair-share replay from
#                bench_multitenant / BENCH_multitenant.json (makespan)
#   B = serve    tracked records: the Zipf hot-vertex and the uniform query
#                workloads from bench_serve / BENCH_serve.json (qps), plus
#                the uniform workload's p99.9 latency (p999_us) and Path()
#                p50 latency (path_p50_us)
#   M = qps      serving throughput of both workloads — queries per second
#                through the disk-backed DistanceService; HIGHER is better.
#                Machine-dependent, so CI runs it with a generous tolerance:
#                both qps records guard block-grouped batching and the
#                lock-free hit path; the uniform p99.9, measured on
#                single-client calls, guards the miss path (window
#                admission: one checksum, no system call), and the uniform
#                Path() p50 guards what those misses cost a walk. Both
#                latencies are LOWER-is-better and fail past
#                baseline / (1 - tolerance), the same slowdown factor the
#                qps floor baseline * (1 - tolerance) allows.
#
# Env: APSPARK_BENCH_TOLERANCE  allowed fractional regression (default 0.10)
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <measured.json> <baseline.json>" \
       "[--metric gops|speedup|peak|makespan|qps]" \
       "[--bench fig2|ksource|multitenant|serve]" >&2
  exit 2
fi
measured="$1"
baseline="$2"
shift 2
metric="gops"
bench="fig2"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --metric) metric="${2:?--metric needs a value}"; shift 2 ;;
    --bench) bench="${2:?--bench needs a value}"; shift 2 ;;
    *) echo "unknown argument '$1'" >&2; exit 2 ;;
  esac
done
case "$metric" in
  gops) field="gops" ;;
  speedup) field="speedup_vs_naive" ;;
  peak) field="driver_peak_bytes" ;;
  makespan) field="fair_makespan_seconds" ;;
  qps) field="qps" ;;
  model) field="model_seconds" ;;
  overhead) field="overhead" ;;
  *) echo "unknown metric '$metric'" >&2; exit 2 ;;
esac
if [[ "$metric" == "qps" && "$bench" != "serve" ]]; then
  echo "--metric qps is only tracked for --bench serve" >&2
  exit 2
fi
if [[ "$bench" == "serve" && "$metric" != "qps" ]]; then
  echo "--bench serve only tracks --metric qps" >&2
  exit 2
fi
if [[ "$metric" == "peak" && "$bench" != "ksource" ]]; then
  echo "--metric peak is only tracked for --bench ksource" >&2
  exit 2
fi
if [[ "$metric" == "makespan" && "$bench" != "multitenant" ]]; then
  echo "--metric makespan is only tracked for --bench multitenant" >&2
  exit 2
fi
if [[ "$bench" == "multitenant" && "$metric" != "makespan" ]]; then
  echo "--bench multitenant only tracks --metric makespan" >&2
  exit 2
fi
if [[ "$metric" == "model" && "$bench" != "fig3" ]]; then
  echo "--metric model is only tracked for --bench fig3" >&2
  exit 2
fi
if [[ "$bench" == "fig3" && "$metric" != "model" ]]; then
  echo "--bench fig3 only tracks --metric model" >&2
  exit 2
fi
if [[ "$metric" == "overhead" && "$bench" != "obs" ]]; then
  echo "--metric overhead is only tracked for --bench obs" >&2
  exit 2
fi
if [[ "$bench" == "obs" && "$metric" != "overhead" ]]; then
  echo "--bench obs only tracks --metric overhead" >&2
  exit 2
fi
case "$bench" in
  fig2) what="tiled minplus b=1024" ;;
  ksource)
    if [[ "$metric" == "peak" ]]; then
      what="tiled ksource solve (shuffle plane) driver peak"
    else
      what="tiled rect_kernel b=1024 k=64"
    fi ;;
  multitenant) what="two-tenant fair-share makespan" ;;
  serve) what="serving-layer zipf workload" ;;
  fig3) what="blocked-CB MD B=2 b=1024 model time" ;;
  obs) what="traced-solve observability overhead" ;;
  *) echo "unknown bench '$bench'" >&2; exit 2 ;;
esac
tolerance="${APSPARK_BENCH_TOLERANCE:-0.10}"

# The benches write one result object per line, so the tracked record is
# greppable without a JSON parser. The '|| true' keeps a missing record from
# tripping set -e inside the command substitution, so the explicit FAIL
# diagnostic below can fire.
extract_serve() {  # <file> <workload> <field>
  { grep '"section": "serve"' "$1" \
      | grep "\"workload\": \"$2\"" \
      | grep -oE "\"$3\": [0-9.eE+-]+" \
      | head -1 | awk '{print $2}'; } || true
}
extract() {
  if [[ "$bench" == "obs" ]]; then
    { grep '"section": "obs"' "$1" \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  elif [[ "$bench" == "serve" ]]; then
    extract_serve "$1" zipf "$field"
  elif [[ "$bench" == "multitenant" ]]; then
    { grep '"section": "multitenant"' "$1" \
        | grep -v '"section": "multitenant_tight"' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  elif [[ "$bench" == "fig3" ]]; then
    { grep '"section": "fig3"' "$1" \
        | grep '"solver": "cb"' \
        | grep '"partitioner": "MD"' \
        | grep '"B": 2' \
        | grep '"b": 1024' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  elif [[ "$bench" == "fig2" ]]; then
    { grep '"kernel": "minplus"' "$1" \
        | grep '"variant": "tiled"' \
        | grep '"b": 1024' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  elif [[ "$metric" == "peak" ]]; then
    { grep '"section": "solve"' "$1" \
        | grep '"variant": "tiled"' \
        | grep '"data_plane": "shuffle"' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  else
    { grep '"section": "rect_kernel"' "$1" \
        | grep '"variant": "tiled"' \
        | grep '"b": 1024' \
        | grep '"k": 64' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  fi
}

measured_value="$(extract "$measured")"
baseline_value="$(extract "$baseline")"
if [[ -z "$measured_value" || -z "$baseline_value" ]]; then
  echo "FAIL: $what record missing" \
       "(measured='$measured_value' baseline='$baseline_value')" >&2
  exit 1
fi

echo "$what $metric: measured $measured_value," \
     "baseline $baseline_value, tolerance $tolerance"
if [[ "$metric" == "overhead" ]]; then
  # Fixed ceiling, not baseline-relative (see the obs note above): enabled
  # tracing must stay under 5% end-to-end, and the measured run must report
  # bitwise-identical solves.
  ceiling="${APSPARK_OBS_OVERHEAD_CEILING:-0.05}"
  if ! awk -v m="$measured_value" -v c="$ceiling" \
       'BEGIN { exit !(m <= c) }'; then
    echo "FAIL: enabled tracing overhead $measured_value exceeds the" \
         "$ceiling ceiling" >&2
    exit 1
  fi
  if ! grep '"section": "obs"' "$measured" \
      | grep -q '"bitwise_equal": true'; then
    echo "FAIL: traced solve is not bitwise-identical to the untraced" \
         "run" >&2
    exit 1
  fi
  echo "OK: overhead under the $ceiling ceiling, solves bitwise-identical"
  exit 0
fi
if [[ "$metric" == "peak" || "$metric" == "makespan" \
      || "$metric" == "model" ]]; then
  # Lower is better: fail when the measured high water grew beyond the
  # tolerance (a zero-copy regression re-materializing payloads, a
  # fair-scheduler packing regression stretching the makespan, or a cost
  # model / placement regression inflating the projected Fig. 3 time).
  if awk -v m="$measured_value" -v b="$baseline_value" -v t="$tolerance" \
       'BEGIN { exit !(m <= b * (1 + t)) }'; then
    echo "OK: within tolerance"
  else
    echo "FAIL: $what $metric regressed (grew) more than ${tolerance} vs" \
         "committed baseline" >&2
    exit 1
  fi
elif awk -v m="$measured_value" -v b="$baseline_value" -v t="$tolerance" \
     'BEGIN { exit !(m >= b * (1 - t)) }'; then
  echo "OK: within tolerance"
else
  echo "FAIL: $what $metric regressed more than ${tolerance} vs" \
       "committed baseline" >&2
  exit 1
fi

# The semiring engine's tracked headline rides the fig2 speedup gate: the
# bit-packed boolean closure (word-parallel or/and, 64 vertices per word)
# must keep its speedup over the dense boolean plane. Speedup is a same-run
# ratio, so it is machine-normalized like the min-plus record above.
if [[ "$bench" == "fig2" && "$metric" == "speedup" ]]; then
  extract_packed() {
    { grep '"kernel": "boolean_packed"' "$1" \
        | grep '"variant": "bitpacked"' \
        | grep '"b": 1024' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  }
  packed_measured="$(extract_packed "$measured")"
  packed_baseline="$(extract_packed "$baseline")"
  if [[ -z "$packed_measured" || -z "$packed_baseline" ]]; then
    echo "FAIL: bit-packed boolean b=1024 record missing" \
         "(measured='$packed_measured' baseline='$packed_baseline')" >&2
    exit 1
  fi
  echo "bit-packed boolean b=1024 $metric: measured $packed_measured," \
       "baseline $packed_baseline, tolerance $tolerance"
  if awk -v m="$packed_measured" -v b="$packed_baseline" -v t="$tolerance" \
       'BEGIN { exit !(m >= b * (1 - t)) }'; then
    echo "OK: within tolerance"
  else
    echo "FAIL: bit-packed boolean closure speedup regressed more than" \
         "${tolerance} vs committed baseline" >&2
    exit 1
  fi

  # The SIMD micro-kernel's tracked record also rides this gate: the AVX2
  # backend (the lowest common denominator of x86 CI runners) must keep its
  # speedup over the forced-scalar tiled path measured in the same run. The
  # AVX2 record is gated rather than the host-best one so the gate compares
  # like with like across runners; a host without AVX2 (or a non-x86 build)
  # emits no record, and the check is skipped with a note.
  extract_simd() {
    { grep '"kernel": "minplus_simd"' "$1" \
        | grep '"variant": "avx2"' \
        | grep '"b": 1024' \
        | grep -oE "\"$field\": [0-9.eE+-]+" \
        | head -1 | awk '{print $2}'; } || true
  }
  simd_measured="$(extract_simd "$measured")"
  simd_baseline="$(extract_simd "$baseline")"
  if [[ -z "$simd_measured" ]]; then
    echo "note: SIMD minplus_simd/avx2 gate skipped (no AVX2 record in" \
         "measured run — host lacks AVX2?)"
  elif [[ -z "$simd_baseline" ]]; then
    echo "FAIL: SIMD minplus_simd/avx2 b=1024 record missing from" \
         "baseline" >&2
    exit 1
  else
    echo "SIMD minplus_simd/avx2 b=1024 $metric: measured $simd_measured," \
         "baseline $simd_baseline, tolerance $tolerance"
    if awk -v m="$simd_measured" -v b="$simd_baseline" -v t="$tolerance" \
         'BEGIN { exit !(m >= b * (1 - t)) }'; then
      echo "OK: within tolerance"
    else
      echo "FAIL: SIMD micro-kernel speedup regressed more than" \
           "${tolerance} vs committed baseline" >&2
      exit 1
    fi
  fi
fi

# The serving gate also covers the uniform workload: its batch throughput,
# the p99.9 tail of its single-client sample, where a quarter-payload cache
# cap makes about a quarter of the lookups admit a window, and the p50 of
# its single-client Path() walks, which admit a window on most hops.
if [[ "$bench" == "serve" ]]; then
  for uniform_field in qps p999_us path_p50_us; do
    uniform_measured="$(extract_serve "$measured" uniform "$uniform_field")"
    uniform_baseline="$(extract_serve "$baseline" uniform "$uniform_field")"
    if [[ -z "$uniform_measured" || -z "$uniform_baseline" ]]; then
      echo "FAIL: serving-layer uniform $uniform_field record missing" \
           "(measured='$uniform_measured' baseline='$uniform_baseline')" >&2
      exit 1
    fi
    echo "serving-layer uniform workload $uniform_field: measured" \
         "$uniform_measured, baseline $uniform_baseline, tolerance $tolerance"
    if [[ "$uniform_field" == "qps" ]]; then
      rule='BEGIN { exit !(m >= b * (1 - t)) }'
    else
      rule='BEGIN { exit !(m * (1 - t) <= b) }'
    fi
    if awk -v m="$uniform_measured" -v b="$uniform_baseline" \
         -v t="$tolerance" "$rule"; then
      echo "OK: within tolerance"
    else
      echo "FAIL: serving-layer uniform $uniform_field regressed more than" \
           "${tolerance} vs committed baseline" >&2
      exit 1
    fi
  done
fi
