// Serving-layer benchmark: solve -> persist -> query throughput/latency.
//
// Solves APSP on an integer-weight graph, persists the result (distance +
// successor planes) as a disk-backed block store, then drives the
// DistanceService with ~1M-query workloads: uniform, and the hot-vertex
// Zipf skew real query traffic shows (a few landmark vertices absorb most
// lookups). The cache cap is set to a quarter of the persisted payload.
// DistanceBatch groups a batch by stored block, so each workload's batch
// fetches a block about once per chunk whatever its skew; the timed
// single-client Distance() sample that follows is what still exercises
// window admission — about a quarter of its uniform lookups miss, while
// its Zipf lookups mostly hit. A timed sample of 256 uniform Path() walks
// runs last: most hops admit a successor window, so its p50 is what misses
// cost a walk.
//
// In-binary correctness gates (exit non-zero on violation):
//   * every served distance of the full n^2 sweep is bitwise-equal to the
//     scalar Floyd-Warshall oracle (integer weights: exact path sums);
//   * reconstructed paths (the probe and the timed sample) are genuine edge
//     walks of exactly oracle length;
//   * resident bytes stay under the configured cache cap after each sweep,
//     with evictions actually observed (the cap is meant to bind).
//
// Machine-readable results go to BENCH_serve.json (override via
// APSPARK_BENCH_JSON). The "serve" records declare the gates
// bench/check_gates.py evaluates: both workloads' "qps" (higher is better)
// and the uniform workload's "p999_us" and "path_p50_us" (lower is better).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "bench_util.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "graph/path_reconstruction.h"
#include "linalg/kernels.h"
#include "store/distance_service.h"

namespace {

using namespace apspark;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kN = 512;
constexpr std::int64_t kSolveBlock = 128;
constexpr std::int64_t kStoreBlock = 64;
constexpr std::int64_t kQueriesPerWorkload = 1'000'000;
constexpr std::int64_t kLatencySample = 200'000;
constexpr int kPathSample = 256;
constexpr double kZipfTheta = 0.99;
constexpr std::uint64_t kSeed = 42;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WorkloadResult {
  std::string name;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double path_p50_us = -1;  // uniform only
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
};

std::vector<store::DistanceService::Query> MakeQueries(
    std::int64_t count, bool zipf, Xoshiro256& rng) {
  std::vector<store::DistanceService::Query> queries;
  queries.reserve(static_cast<std::size_t>(count));
  if (zipf) {
    ZipfSampler sampler(kN, kZipfTheta);
    for (std::int64_t i = 0; i < count; ++i) {
      queries.push_back(
          {static_cast<graph::VertexId>(sampler.Sample(rng)),
           static_cast<graph::VertexId>(sampler.Sample(rng))});
    }
  } else {
    for (std::int64_t i = 0; i < count; ++i) {
      queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(kN)),
                         static_cast<graph::VertexId>(rng.NextBounded(kN))});
    }
  }
  return queries;
}

/// True if Path(s, t) is a genuine edge walk of exactly the oracle's length
/// (kNotFound when t is unreachable).
bool PathIsExact(const Result<std::vector<graph::VertexId>>& path,
                 graph::VertexId s, graph::VertexId t,
                 const linalg::DenseBlock& oracle,
                 const linalg::DenseBlock& adjacency) {
  if (std::isinf(oracle.At(s, t))) {
    return path.status().code() == StatusCode::kNotFound;
  }
  if (!path.ok() || path->front() != s || path->back() != t) return false;
  double total = 0;
  for (std::size_t hop = 0; hop + 1 < path->size(); ++hop) {
    total += adjacency.At((*path)[hop], (*path)[hop + 1]);
  }
  return total == oracle.At(s, t);
}

}  // namespace

int main() {
  bench::PrintHeader("serving layer: disk-backed store query throughput");
  bool ok = true;

  // ---------------------------------------------------------------- solve
  graph::Graph g_real =
      graph::ErdosRenyi(kN, graph::PaperEdgeProbability(kN), {1.0, 10.0},
                        kSeed);
  graph::Graph g(kN, false);
  for (const auto& e : g_real.edges()) {
    g.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const linalg::DenseBlock adjacency = g.ToDenseAdjacency();
  linalg::DenseBlock oracle = adjacency;
  linalg::ReferenceFloydWarshall(oracle);

  apsp::SolveRequest request;
  request.options.block_size = kSolveBlock;
  auto report = apsp::Solve(g, request);
  if (!report.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  // -------------------------------------------------------------- persist
  const std::string dir =
      (std::filesystem::temp_directory_path() / "apspark_bench_serve")
          .string();
  std::filesystem::remove_all(dir);
  auto persist_start = Clock::now();
  apsp::PersistOptions popts;
  popts.block_size = kStoreBlock;
  auto persisted = apsp::PersistSolve(dir, *report.distances(), &g, false,
                                      linalg::SemiringId::kMinPlus, popts);
  const double persist_seconds = Seconds(persist_start);
  if (!persisted.ok()) {
    std::fprintf(stderr, "persist failed: %s\n", persisted.ToString().c_str());
    return 1;
  }

  store::DistanceService::Options sopts;
  auto probe = store::BlockStore::Open(dir);
  if (!probe.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 probe.status().ToString().c_str());
    return 1;
  }
  const std::uint64_t payload_bytes = (*probe)->total_payload_bytes();
  probe->reset();
  // A quarter of the payload: the cap binds on every sweep.
  sopts.store_options.cache_capacity_bytes = payload_bytes / 4;
  auto service = store::DistanceService::Open(dir, sopts);
  if (!service.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  store::DistanceService& svc = **service;
  std::printf("persisted n = %lld as %zu blocks (%s) in %s; cache cap %s\n",
              static_cast<long long>(kN),
              svc.store().manifest().entries.size(),
              FormatBytes(payload_bytes).c_str(),
              FormatDuration(persist_seconds).c_str(),
              FormatBytes(sopts.store_options.cache_capacity_bytes).c_str());

  // -------------------------------------------- correctness: full n^2 sweep
  {
    std::vector<store::DistanceService::Query> all;
    all.reserve(static_cast<std::size_t>(kN * kN));
    for (std::int64_t s = 0; s < kN; ++s) {
      for (std::int64_t t = 0; t < kN; ++t) all.push_back({s, t});
    }
    auto answers = svc.DistanceBatch(all);
    if (!answers.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   answers.status().ToString().c_str());
      return 1;
    }
    std::int64_t mismatches = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      const double expected = oracle.At(all[i].s, all[i].t);
      if (std::memcmp(&(*answers)[i], &expected, sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    ok &= mismatches == 0;
    std::printf("correctness: full n^2 sweep %s the scalar oracle\n",
                mismatches == 0 ? "bitwise-equal to"
                                : "DIVERGES from");

    Xoshiro256 prng(kSeed + 7);
    for (int probe_i = 0; probe_i < 256 && ok; ++probe_i) {
      const auto s =
          static_cast<graph::VertexId>(prng.NextBounded(kN));
      const auto t =
          static_cast<graph::VertexId>(prng.NextBounded(kN));
      ok &= PathIsExact(svc.Path(s, t), s, t, oracle, adjacency);
    }
    std::printf("correctness: reconstructed paths %s\n",
                ok ? "are exact shortest walks" : "FAILED");
  }

  // ------------------------------------------------------------ workloads
  std::vector<WorkloadResult> results;
  for (const bool zipf : {false, true}) {
    Xoshiro256 rng(kSeed + (zipf ? 1 : 2));
    const auto queries = MakeQueries(kQueriesPerWorkload, zipf, rng);

    const auto before = svc.store().stats();
    auto start = Clock::now();
    auto answers = svc.DistanceBatch(queries);
    const double elapsed = Seconds(start);
    if (!answers.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   answers.status().ToString().c_str());
      return 1;
    }
    const auto after = svc.store().stats();

    // Residency must respect the cap once the batch's pins are released.
    ok &= svc.store().resident_bytes() <=
          sopts.store_options.cache_capacity_bytes;

    // Per-query latency percentiles from a timed single-threaded sample of
    // the same distribution (batched timing hides per-call cost).
    const auto sample = MakeQueries(kLatencySample, zipf, rng);
    std::vector<double> latencies_us;
    latencies_us.reserve(sample.size());
    for (const auto& q : sample) {
      const auto t0 = Clock::now();
      auto d = svc.Distance(q.s, q.t);
      const double us = Seconds(t0) * 1e6;
      if (!d.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     d.status().ToString().c_str());
        return 1;
      }
      latencies_us.push_back(us);
    }
    std::sort(latencies_us.begin(), latencies_us.end());

    WorkloadResult r;
    r.name = zipf ? "zipf" : "uniform";
    r.qps = static_cast<double>(kQueriesPerWorkload) / elapsed;
    r.p50_us = latencies_us[latencies_us.size() / 2];
    r.p99_us = latencies_us[latencies_us.size() * 99 / 100];
    r.p999_us = latencies_us[latencies_us.size() * 999 / 1000];
    r.cache_hits = after.hits - before.hits;
    r.cache_misses = after.misses - before.misses;
    r.evictions = after.evictions - before.evictions;
    results.push_back(r);

    std::printf(
        "%-8s %lld queries in %s: %.0f qps, p50 %.2f us, p99 %.2f us, "
        "p99.9 %.2f us (%llu hits, %llu misses, %llu evictions)\n",
        r.name.c_str(), static_cast<long long>(kQueriesPerWorkload),
        FormatDuration(elapsed).c_str(), r.qps, r.p50_us, r.p99_us,
        r.p999_us,
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.evictions));
  }

  // Timed single-client Path() walks on uniform pairs, each one checked and
  // reported on the uniform record. They run after both batch workloads, so
  // the successor windows they admit leave the batches' cache counts alone.
  {
    Xoshiro256 rng(kSeed + 3);
    std::vector<double> path_us;
    path_us.reserve(kPathSample);
    bool paths_exact = true;
    for (int i = 0; i < kPathSample; ++i) {
      const auto s = static_cast<graph::VertexId>(rng.NextBounded(kN));
      const auto t = static_cast<graph::VertexId>(rng.NextBounded(kN));
      const auto t0 = Clock::now();
      auto path = svc.Path(s, t);
      path_us.push_back(Seconds(t0) * 1e6);
      paths_exact &= PathIsExact(path, s, t, oracle, adjacency);
    }
    std::sort(path_us.begin(), path_us.end());
    results.front().path_p50_us = path_us[path_us.size() / 2];
    ok &= paths_exact;
    std::printf("uniform  %d Path() walks: p50 %.2f us; %s\n", kPathSample,
                results.front().path_p50_us,
                paths_exact ? "every walk is an exact shortest walk"
                            : "a walk FAILED");
  }

  // The cap is meant to bind: the full-sweep + uniform phases must have
  // forced churn (a cap nobody hits gates nothing).
  const auto final_stats = svc.store().stats();
  ok &= final_stats.evictions > 0;
  ok &= final_stats.resident_bytes <= sopts.store_options.cache_capacity_bytes;
  std::printf(
      "cache: %llu total evictions, resident %s <= cap %s, peak %s\n",
      static_cast<unsigned long long>(final_stats.evictions),
      FormatBytes(final_stats.resident_bytes).c_str(),
      FormatBytes(sopts.store_options.cache_capacity_bytes).c_str(),
      FormatBytes(final_stats.peak_resident_bytes).c_str());

  // ------------------------------------------------------------------ JSON
  // QPS and latency are wall-clock, so other hosts get wide bands that
  // trip only when a serving path gets several times slower, not on
  // runner-to-runner variance; 10% is for the machine that produced the
  // committed file.
  std::vector<bench::Record> records;
  records.push_back(
      {bench::Format("\"section\": \"store\", \"n\": %lld, \"b\": %lld, "
                     "\"blocks\": %zu, \"payload_bytes\": %llu, "
                     "\"cache_capacity_bytes\": %llu, "
                     "\"persist_seconds\": %.6f",
                     static_cast<long long>(kN),
                     static_cast<long long>(kStoreBlock),
                     svc.store().manifest().entries.size(),
                     static_cast<unsigned long long>(payload_bytes),
                     static_cast<unsigned long long>(
                         sopts.store_options.cache_capacity_bytes),
                     persist_seconds),
       {}});
  for (const WorkloadResult& r : results) {
    std::vector<bench::Gate> gates = {
        // Guards block-grouped batching and the lock-free hit path: an
        // ungrouped batch, which fetches per query, is ~16x slower and
        // lands far below the 0.80 band.
        bench::Relative("serve_" + r.name + "_qps", "qps",
                        bench::Better::kHigher, 0.10, 0.80)};
    std::string path_field;
    if (r.path_p50_us >= 0) {
      path_field = bench::Format("\"path_p50_us\": %.3f, ", r.path_p50_us);
      // Single-client Distance() calls, where about a quarter of uniform
      // lookups admit a window: a miss costs one checksum and no system
      // call, and a syscall or copy put back on the miss path (~30 us)
      // lands past the 5x ceiling. The Path() p50 guards what those
      // misses cost a walk.
      gates.push_back(bench::Relative("serve_uniform_p999_us", "p999_us",
                                      bench::Better::kLower, 0.10, 4.0));
      gates.push_back(bench::Relative("serve_uniform_path_p50_us",
                                      "path_p50_us", bench::Better::kLower,
                                      0.10, 4.0));
    }
    records.push_back(
        {bench::Format("\"section\": \"serve\", \"workload\": \"%s\", "
                       "\"queries\": %lld, \"qps\": %.1f, \"p50_us\": %.3f, "
                       "\"p99_us\": %.3f, \"p999_us\": %.3f, %s"
                       "\"cache_hits\": %llu, "
                       "\"cache_misses\": %llu, \"evictions\": %llu, "
                       "\"bitwise_equal_to_reference\": %s",
                       r.name.c_str(),
                       static_cast<long long>(kQueriesPerWorkload), r.qps,
                       r.p50_us, r.p99_us, r.p999_us, path_field.c_str(),
                       static_cast<unsigned long long>(r.cache_hits),
                       static_cast<unsigned long long>(r.cache_misses),
                       static_cast<unsigned long long>(r.evictions),
                       ok ? "true" : "false"),
         std::move(gates)});
  }
  const bool written =
      bench::WriteBenchJson("bench_serve", "BENCH_serve.json", records);

  std::filesystem::remove_all(dir);
  if (!written) return 1;
  if (!ok) {
    std::fprintf(stderr,
                 "\nFAIL: serving correctness or cache-cap invariant "
                 "violated\n");
    return 1;
  }
  std::printf("\nall serving invariants hold\n");
  return 0;
}
