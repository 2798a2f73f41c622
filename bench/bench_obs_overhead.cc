// Observability overhead: the tracer must be free when off and cheap when
// on.
//
// Three measurements, written to BENCH_obs.json (APSPARK_BENCH_JSON
// overrides) as one record whose gates bench/check_gates.py evaluates:
//
//   1. hook_ns — ns/op of a disabled RealSpanScope (the hook every traced
//      call site pays when no capture is active: two relaxed atomic loads).
//   2. overhead_disabled — that hook cost scaled by the number of hook
//      sites a real solve passes through (measured as the enabled run's
//      event count), relative to the solve's wall time. Gate: <= 1%.
//   3. overhead — wall-time ratio of the same solve with tracing on vs
//      off, min-of-reps on both sides. Gate: <= 5%.
//
// The solve is also checked bitwise: the distance matrix with tracing on
// must equal the tracing-off run bit for bit (tracing never feeds back
// into simulation state); the bench exits non-zero when it does not.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "bench_util.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "obs/trace.h"

namespace {

using namespace apspark;

/// FNV-1a over the raw bit patterns of every distance entry — bitwise, not
/// approximate, equality.
std::uint64_t ChecksumDistances(const linalg::DenseBlock& d) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int64_t i = 0; i < d.rows(); ++i) {
    for (std::int64_t j = 0; j < d.cols(); ++j) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(d.At(i, j));
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

apsp::SolveRequest MakeRequest() {
  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kBlockedCollectBroadcast;
  request.options.block_size = 64;
  request.cluster.nodes = 4;
  request.cluster.cores_per_node = 2;
  request.cluster.local_storage_bytes = 64ULL * kGiB;
  return request;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Observability overhead — disabled-hook cost and traced-solve "
      "wall-time ratio");

  // --- 1. The disabled hook -----------------------------------------------
  // What every traced call site costs when no capture is active. The loop
  // body is a full RealSpanScope lifetime plus a volatile side effect so
  // the scope cannot be hoisted.
  const std::int64_t hook_iters = 20'000'000;
  volatile std::uint64_t sink = 0;
  WallTimer hook_timer;
  for (std::int64_t i = 0; i < hook_iters; ++i) {
    obs::RealSpanScope span("hook");
    sink = sink + 1;
  }
  const double hook_ns =
      hook_timer.ElapsedSeconds() * 1e9 / static_cast<double>(hook_iters);
  std::printf("disabled hook: %.2f ns/op (%lld iterations)\n", hook_ns,
              static_cast<long long>(hook_iters));

  // --- 2 + 3. The same solve, tracing off vs on ---------------------------
  const graph::Graph g = graph::PaperErdosRenyi(512, 7);
  const apsp::SolveRequest request = MakeRequest();
  const int reps = 5;

  double off_seconds = 0;
  std::uint64_t off_checksum = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    const auto report = apsp::Solve(g, request);
    const double elapsed = t.ElapsedSeconds();
    if (!report.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    off_checksum = ChecksumDistances(*report.distances());
    if (r == 0 || elapsed < off_seconds) off_seconds = elapsed;
  }

  double on_seconds = 0;
  std::uint64_t on_checksum = 0;
  std::size_t trace_events = 0;
  for (int r = 0; r < reps; ++r) {
    obs::Tracer::Get().Start();
    WallTimer t;
    const auto report = apsp::Solve(g, request);
    const double elapsed = t.ElapsedSeconds();
    obs::Tracer::Get().Stop();
    if (!report.ok()) {
      std::fprintf(stderr, "traced solve failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    on_checksum = ChecksumDistances(*report.distances());
    trace_events = obs::Tracer::Get().EventCount();
    if (r == 0 || elapsed < on_seconds) on_seconds = elapsed;
  }

  const bool bitwise_equal = off_checksum == on_checksum;
  const double overhead = on_seconds / off_seconds - 1.0;
  // Every recorded event is one enabled hook firing; with tracing off the
  // same sites each cost hook_ns. That product over the solve's wall time
  // bounds what the hooks add to an untraced run.
  const double overhead_disabled =
      static_cast<double>(trace_events) * hook_ns * 1e-9 / off_seconds;

  std::printf("solve (n = 512, cb): off %s, on %s -> overhead %.2f%%\n",
              FormatSeconds(off_seconds, 4).c_str(),
              FormatSeconds(on_seconds, 4).c_str(), overhead * 100.0);
  std::printf("disabled-path estimate: %zu hook sites x %.2f ns = %.4f%% "
              "of the untraced solve\n",
              trace_events, hook_ns, overhead_disabled * 100.0);
  std::printf("bitwise distances (tracing on vs off): %s\n",
              bitwise_equal ? "identical" : "DIFFER");

  // Fixed ceilings rather than baseline-relative bands: both metrics are
  // ratios near zero, where a multiplicative band is meaninglessly tight.
  // The enabled-path ratio takes min-of-reps on both sides, so a single
  // noisy rep cannot fail it; the disabled-path bound is analytic and
  // effectively noise-free.
  const bench::Record record = {
      bench::Format("\"section\": \"obs\", \"hook_ns\": %.3f, "
                    "\"solve_off_seconds\": %.6f, \"solve_on_seconds\": %.6f, "
                    "\"overhead\": %.6f, \"overhead_disabled\": %.6f, "
                    "\"trace_events\": %zu, \"bitwise_equal\": %s",
                    hook_ns, off_seconds, on_seconds,
                    overhead < 0 ? 0.0 : overhead, overhead_disabled,
                    trace_events, bitwise_equal ? "true" : "false"),
      {bench::Bound("obs_overhead", "overhead", bench::Better::kLower, 0.05,
                    0.05),
       bench::Bound("obs_overhead_disabled", "overhead_disabled",
                    bench::Better::kLower, 0.01, 0.01)}};
  if (!bench::WriteBenchJson("bench_obs_overhead", "BENCH_obs.json",
                             {record})) {
    return 1;
  }
  if (!bitwise_equal) {
    std::fprintf(stderr, "FAIL: tracing changed the solve result\n");
    return 1;
  }
  return 0;
}
