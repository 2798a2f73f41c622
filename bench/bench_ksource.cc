// Batched k-source shortest paths — kernel and end-to-end benchmark.
//
// Section 1 races the rectangular frontier kernel (MinPlusUpdateRect: a
// b x b pivot block folded into a b x k frontier panel) across the registry
// variants, checking bitwise equality against the scalar reference. This is
// the hot inner operation of the KSSP sweep; the panel micro-kernel's win
// over the naive loop comes from touching each C row once per reduction
// instead of once per k step.
//
// Section 2 times a full Ksource-Blocked solve (host compute, real blocks)
// per variant and validates the panel against the scalar Floyd-Warshall
// oracle.
//
// Machine-readable results go to BENCH_ksource.json (override via
// APSPARK_BENCH_JSON); the tracked records declare the gates
// bench/check_gates.py evaluates. The bench exits non-zero if any variant
// loses bitwise equality or a solve diverges from the oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apsp/solvers/ksource_blocked.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "linalg/dense_block.h"
#include "linalg/kernels.h"

namespace {

using namespace apspark;

linalg::DenseBlock RandomBlock(std::int64_t rows, std::int64_t cols,
                               std::uint64_t seed, double inf_density = 0.0) {
  Xoshiro256 rng(seed);
  linalg::DenseBlock block(rows, cols, 0.0);
  for (std::int64_t i = 0; i < block.size(); ++i) {
    block.mutable_data()[i] = rng.NextDouble() < inf_density
                                  ? linalg::kInf
                                  : rng.NextDouble(1.0, 100.0);
  }
  return block;
}

bool BitwiseEqual(const linalg::DenseBlock& a, const linalg::DenseBlock& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    const double s = t.ElapsedSeconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

struct KsResult {
  std::string section;  // "rect_kernel", "solve", or "fault"
  std::string variant;
  std::string data_plane = "none";  // solve section: "staged" | "shuffle"
  std::int64_t b = 0;  // block / pivot size (or solve block size)
  std::int64_t k = 0;  // panel width (source count)
  double seconds = 0;
  double gops = 0;         // min-plus ops / 1e9 / seconds
  double speedup = 1.0;    // vs naive at the same shape
  bool bitwise_equal = true;
  /// Driver live-bytes high water of the modelled run (solve section only) —
  /// a deterministic byte count.
  std::uint64_t driver_peak_bytes = 0;
  /// Fault-injection section: the recovery trajectory of a solve with an
  /// injected executor loss (deterministic modelled quantities).
  double recovery_seconds = 0;
  std::uint64_t recomputed_tasks = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t job_restarts = 0;
};

/// The gates a record declares. Same-host values hold on the machine that
/// produced the committed BENCH_ksource.json, other-host values on shared
/// CI runners.
std::vector<bench::Gate> GatesFor(const KsResult& r) {
  using bench::Better;
  if (r.section == "rect_kernel" && r.variant == "tiled" && r.b == 1024 &&
      r.k == 64) {
    return {
        // The KSSP acceptance bar: the panel-tiled kernel at least matches
        // naive throughput; 0.9 leaves headroom for shared-runner noise.
        bench::Bound("rect_tiled_speedup_floor", "speedup_vs_naive",
                     Better::kHigher, 1.0, 0.9),
        // The trajectory, widened on other hosts so the band implies about
        // the bar above.
        bench::Relative("rect_tiled_speedup", "speedup_vs_naive",
                        Better::kHigher, 0.10, 0.55),
        // Absolute throughput compares only on the baseline machine.
        bench::Relative("rect_tiled_gops", "gops", Better::kHigher, 0.10,
                        std::nullopt),
    };
  }
  if (r.section == "solve" && r.variant == "tiled" &&
      r.data_plane == "shuffle") {
    // A deterministic byte count, so 10% holds on any runner: growth means
    // the zero-copy data plane started materializing copies on the driver.
    return {bench::Relative("solve_shuffle_driver_peak_bytes",
                            "driver_peak_bytes", Better::kLower, 0.10, 0.10)};
  }
  return {};
}

bool WriteJson(const std::vector<KsResult>& results) {
  std::vector<bench::Record> records;
  for (const KsResult& r : results) {
    records.push_back(
        {bench::Format(
             "\"section\": \"%s\", \"variant\": \"%s\", "
             "\"data_plane\": \"%s\", \"b\": %lld, "
             "\"k\": %lld, \"seconds\": %.6f, \"gops\": %.3f, "
             "\"speedup_vs_naive\": %.2f, "
             "\"driver_peak_bytes\": %llu, "
             "\"recovery_seconds\": %.6f, \"recomputed_tasks\": %llu, "
             "\"task_retries\": %llu, \"job_restarts\": %llu, "
             "\"bitwise_equal_to_reference\": %s",
             r.section.c_str(), r.variant.c_str(), r.data_plane.c_str(),
             static_cast<long long>(r.b), static_cast<long long>(r.k),
             r.seconds, r.gops, r.speedup,
             static_cast<unsigned long long>(r.driver_peak_bytes),
             r.recovery_seconds,
             static_cast<unsigned long long>(r.recomputed_tasks),
             static_cast<unsigned long long>(r.task_retries),
             static_cast<unsigned long long>(r.job_restarts),
             r.bitwise_equal ? "true" : "false"),
         GatesFor(r)});
  }
  return bench::WriteBenchJson("bench_ksource", "BENCH_ksource.json",
                               records);
}

constexpr linalg::KernelVariant kVariants[] = {
    linalg::KernelVariant::kNaive, linalg::KernelVariant::kTiled,
    linalg::KernelVariant::kTiledParallel};

std::vector<KsResult> RunRectKernelRace() {
  bench::PrintHeader(
      "Rectangular frontier kernel — C[b x k] = min(C, A[b x b] \xe2\x8a\x97 "
      "P[b x k])\n(naive scalar vs panel-tiled vs panel-tiled+parallel)");
  std::vector<KsResult> results;
  std::printf("%8s %6s %16s %16s %10s %10s  %s\n", "b", "k", "variant", "time",
              "Gops", "speedup", "exact");
  for (std::int64_t b : {256, 512, 1024}) {
    for (std::int64_t k : {8, 32, 64}) {
      const int reps = b >= 1024 ? 3 : 5;
      // ~20% infinite entries: the sweep's panels are inf-heavy early on.
      const linalg::DenseBlock pivot = RandomBlock(b, b, 2, 0.2);
      const linalg::DenseBlock panel = RandomBlock(b, k, 3, 0.2);
      const linalg::DenseBlock base = RandomBlock(b, k, 4, 0.2);
      const double ops = static_cast<double>(b) * b * k;

      linalg::DenseBlock reference = base;
      linalg::MinPlusAccumulateRawNaive(b, k, b, pivot.data(), b, panel.data(),
                                        k, reference.mutable_data(), k);
      double naive_seconds = 0;
      for (linalg::KernelVariant v : kVariants) {
        linalg::ScopedKernelVariant scope(v);
        KsResult r;
        r.section = "rect_kernel";
        r.variant = linalg::KernelVariantName(v);
        r.b = b;
        r.k = k;
        linalg::DenseBlock out(0, 0);
        r.seconds = BestOf(reps, [&] {
          linalg::DenseBlock c = base;
          linalg::MinPlusUpdateRect(pivot, panel, c);
          out = std::move(c);
        });
        if (v == linalg::KernelVariant::kNaive) naive_seconds = r.seconds;
        r.gops = ops / r.seconds / 1e9;
        r.speedup = naive_seconds / r.seconds;
        r.bitwise_equal = BitwiseEqual(out, reference);
        std::printf("%8lld %6lld %16s %16s %10.3f %9.2fx  %s\n",
                    static_cast<long long>(b), static_cast<long long>(k),
                    r.variant.c_str(), FormatSeconds(r.seconds, 3).c_str(),
                    r.gops, r.speedup, r.bitwise_equal ? "yes" : "NO");
        results.push_back(r);
      }
    }
  }
  return results;
}

std::vector<KsResult> RunSolveRace() {
  bench::PrintHeader(
      "End-to-end Ksource-Blocked solve (host wall time, n = 512, k = 16,"
      " b = 128)\nstaged data plane per kernel variant + the pure"
      " shuffle-replicated plane;\ndriver-peak = modelled driver live-bytes"
      " high water (zero-copy record plane)");
  std::vector<KsResult> results;
  const std::int64_t n = 512;
  const std::int64_t k = 16;
  const std::int64_t b = 128;
  const graph::Graph g = graph::PaperErdosRenyi(n, /*seed=*/7);
  std::vector<graph::VertexId> sources;
  for (std::int64_t j = 0; j < k; ++j) sources.push_back(j * n / k);

  linalg::DenseBlock oracle = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(oracle);

  // (kernel variant, data plane) runs: the kernel race on the staged plane,
  // plus the pure shuffle-replicated plane on the tiled kernel.
  struct Combo {
    linalg::KernelVariant kernel;
    apsp::KsourceVariant plane;
  };
  std::vector<Combo> combos;
  for (linalg::KernelVariant v : kVariants) {
    combos.push_back({v, apsp::KsourceVariant::kStagedStorage});
  }
  combos.push_back(
      {linalg::KernelVariant::kTiled, apsp::KsourceVariant::kShuffleReplicated});

  std::printf("%16s %8s %16s %10s %14s  %s\n", "variant", "plane", "time",
              "speedup", "driver-peak", "valid");
  double naive_seconds = 0;
  for (const Combo& combo : combos) {
    apsp::KsourceOptions opts;
    opts.block_size = b;
    opts.variant = combo.plane;
    auto cluster = sparklet::ClusterConfig::TinyTest();
    cluster.local_storage_bytes = 16ULL * kGiB;
    cluster.kernel_variant = combo.kernel;
    apsp::KsourceBlockedSolver solver;
    KsResult r;
    r.section = "solve";
    r.variant = linalg::KernelVariantName(combo.kernel);
    r.data_plane = apsp::KsourceVariantName(combo.plane);
    r.b = b;
    r.k = k;
    apsp::KsourceResult solve_result;
    r.seconds = BestOf(2, [&] {
      solve_result = solver.SolveGraph(g, sources, opts, cluster);
    });
    if (combo.kernel == linalg::KernelVariant::kNaive) {
      naive_seconds = r.seconds;
    }
    r.speedup = naive_seconds / r.seconds;
    r.gops = static_cast<double>(n) * n * (n + k) / r.seconds / 1e9;
    r.driver_peak_bytes = solve_result.metrics.driver_peak_bytes;
    bool valid = solve_result.status.ok() &&
                 solve_result.distances.has_value();
    if (valid) {
      const auto& panel = *solve_result.distances;
      for (std::int64_t vtx = 0; vtx < n && valid; ++vtx) {
        for (std::int64_t j = 0; j < k && valid; ++j) {
          const double got = panel.At(vtx, j);
          const double want = oracle.At(sources[static_cast<std::size_t>(j)],
                                        vtx);
          if (std::isinf(got) != std::isinf(want) ||
              (!std::isinf(got) && std::fabs(got - want) > 1e-9)) {
            valid = false;
          }
        }
      }
    }
    r.bitwise_equal = valid;  // tolerance-validated for the e2e section
    std::printf("%16s %8s %16s %9.2fx %13.1fKiB  %s\n", r.variant.c_str(),
                r.data_plane.c_str(), FormatSeconds(r.seconds, 3).c_str(),
                r.speedup,
                static_cast<double>(r.driver_peak_bytes) / 1024.0,
                valid ? "yes" : "NO");
    if (!valid) {
      std::fprintf(stderr,
                   "FAIL: ksource solve (%s, %s plane) diverged from oracle\n",
                   r.variant.c_str(), r.data_plane.c_str());
      std::exit(1);
    }
    results.push_back(r);
  }
  return results;
}

std::vector<KsResult> RunFaultRecoveryRace() {
  bench::PrintHeader(
      "Fault injection — executor loss mid-solve (modelled recovery cost)\n"
      "staged plane restarts from its checkpoint, the pure shuffle plane\n"
      "recovers in place through lineage; both must match the oracle");
  std::vector<KsResult> results;
  const std::int64_t n = 256;
  const std::int64_t k = 8;
  const std::int64_t b = 64;
  const graph::Graph g = graph::PaperErdosRenyi(n, /*seed=*/11);
  std::vector<graph::VertexId> sources;
  for (std::int64_t j = 0; j < k; ++j) sources.push_back(j * n / k);
  linalg::DenseBlock oracle = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(oracle);

  std::printf("%8s %12s %10s %12s %10s %10s  %s\n", "plane", "redone", "tasks",
              "retried-maps", "restarts", "loss-hit", "valid");
  for (const apsp::KsourceVariant plane :
       {apsp::KsourceVariant::kStagedStorage,
        apsp::KsourceVariant::kShuffleReplicated}) {
    apsp::KsourceOptions opts;
    opts.block_size = b;
    opts.variant = plane;
    opts.fail_nodes = {{1, 10}};
    if (plane == apsp::KsourceVariant::kStagedStorage) {
      opts.checkpoint_every = 1;
    }
    auto cluster = sparklet::ClusterConfig::TinyTest();
    cluster.local_storage_bytes = 16ULL * kGiB;
    apsp::KsourceBlockedSolver solver;
    WallTimer timer;
    auto solve_result = solver.SolveGraph(g, sources, opts, cluster);
    KsResult r;
    r.section = "fault";
    r.variant = "tiled";
    r.data_plane = apsp::KsourceVariantName(plane);
    r.b = b;
    r.k = k;
    r.seconds = timer.ElapsedSeconds();
    r.driver_peak_bytes = solve_result.metrics.driver_peak_bytes;
    r.recovery_seconds = solve_result.metrics.recovery_seconds;
    r.recomputed_tasks = solve_result.metrics.recomputed_tasks;
    r.task_retries = solve_result.metrics.task_retries;
    r.job_restarts = solve_result.metrics.job_restarts;
    const bool loss_fired = solve_result.metrics.executor_failures > 0;
    bool valid = solve_result.status.ok() &&
                 solve_result.distances.has_value() && loss_fired;
    if (valid) {
      const auto& panel = *solve_result.distances;
      for (std::int64_t vtx = 0; vtx < n && valid; ++vtx) {
        for (std::int64_t j = 0; j < k && valid; ++j) {
          const double got = panel.At(vtx, j);
          const double want =
              oracle.At(sources[static_cast<std::size_t>(j)], vtx);
          if (std::isinf(got) != std::isinf(want) ||
              (!std::isinf(got) && std::fabs(got - want) > 1e-9)) {
            valid = false;
          }
        }
      }
    }
    r.bitwise_equal = valid;
    std::printf("%8s %12s %10llu %12llu %10llu %10s  %s\n",
                r.data_plane.c_str(),
                FormatSeconds(r.recovery_seconds, 3).c_str(),
                static_cast<unsigned long long>(r.recomputed_tasks),
                static_cast<unsigned long long>(r.task_retries),
                static_cast<unsigned long long>(r.job_restarts),
                loss_fired ? "yes" : "NO", valid ? "yes" : "NO");
    if (!valid) {
      std::fprintf(stderr,
                   "FAIL: fault-injected ksource solve (%s plane) did not "
                   "recover to the oracle\n",
                   r.data_plane.c_str());
      std::exit(1);
    }
    results.push_back(r);
  }
  return results;
}

}  // namespace

int main() {
  auto results = RunRectKernelRace();
  const auto solve_results = RunSolveRace();
  results.insert(results.end(), solve_results.begin(), solve_results.end());
  const auto fault_results = RunFaultRecoveryRace();
  results.insert(results.end(), fault_results.begin(), fault_results.end());
  if (!WriteJson(results)) return 1;

  for (const KsResult& r : results) {
    if (r.section == "rect_kernel" && !r.bitwise_equal) {
      std::fprintf(stderr, "FAIL: %s b=%lld k=%lld not bitwise equal\n",
                   r.variant.c_str(), static_cast<long long>(r.b),
                   static_cast<long long>(r.k));
      return 1;
    }
  }
  return 0;
}
