// Ablation probes for the simulation constants behind the modelled results
// (README.md, "Running the benchmarks"): how sensitive are the headline
// results to them?
//
//   1. Shuffle compression ratio — moves the Blocked-IM storage cliff.
//   2. Straggler spread — drives the value of over-decomposition (B).
//   3. Per-task scheduler overhead — dominates 2D Floyd-Warshall.
//   4. Shared-FS bandwidth — dominates Blocked-CB's Phase 3 reads.
//   5. Symmetric (upper-triangular) vs full (directed) block storage.
#include <cstdio>

#include "apsp/api.h"
#include "bench_util.h"
#include "common/time_utils.h"

int main() {
  using namespace apspark;
  using apsp::SolverKind;

  bench::TraceGuard trace;  // APSPARK_TRACE_JSON=FILE captures the run
  const std::int64_t n = 131072;

  bench::PrintHeader(
      "Ablation 1 — shuffle compression vs Blocked-IM storage cliff\n"
      "n = 131072, p = 1024, spill/node projected over all iterations");
  std::printf("%-14s", "compression");
  for (std::int64_t b : {512LL, 768LL, 1024LL, 2048LL}) {
    std::printf(" %14s", ("b=" + std::to_string(b)).c_str());
  }
  std::printf("\n");
  for (double compression : {0.25, 0.5, 0.75, 1.0}) {
    std::printf("%-14.2f", compression);
    for (std::int64_t b : {512LL, 768LL, 1024LL, 2048LL}) {
      apsp::SolveRequest request;
      request.solver = SolverKind::kBlockedInMemory;
      request.cluster = sparklet::ClusterConfig::Paper();
      request.cluster.shuffle_compression = compression;
      request.options.block_size = b;
      request.options.max_rounds = 1;
      const auto report = apsp::SolveModel(n, request);
      const auto& result = report.run;
      const bool dead = !report.ok() || result.projected_storage_exceeded;
      std::printf(" %14s",
                  dead ? "FAIL"
                       : FormatBytes(static_cast<std::uint64_t>(
                                         result.projected_spill_bytes))
                             .c_str());
    }
    std::printf("\n");
  }

  bench::PrintHeader(
      "Ablation 2 — straggler spread vs over-decomposition factor B\n"
      "Blocked-CB, n = 131072, b = 1536, MD");
  std::printf("%-14s %14s %14s %14s\n", "spread", "B=1", "B=2", "B=4");
  for (double spread : {0.0, 0.35, 0.7, 1.4}) {
    std::printf("%-14.2f", spread);
    for (int B : {1, 2, 4}) {
      apsp::SolveRequest request;
      request.solver = SolverKind::kBlockedCollectBroadcast;
      request.cluster = sparklet::ClusterConfig::Paper();
      request.cluster.straggler_spread = spread;
      request.options.block_size = 1536;
      request.options.partitions_per_core = B;
      request.options.max_rounds = 1;
      const auto report = apsp::SolveModel(n, request);
      std::printf(" %14s",
                  FormatDuration(report.run.projected_seconds).c_str());
    }
    std::printf("\n");
  }

  bench::PrintHeader(
      "Ablation 3 — per-task overhead vs 2D Floyd-Warshall iteration time\n"
      "n = 131072 (the solver's per-round time is pure scheduling)");
  std::printf("%-18s %14s %14s\n", "task overhead", "per-round",
              "projected total");
  for (double overhead : {0.5e-3, 1e-3, 2.5e-3, 5e-3, 10e-3}) {
    apsp::SolveRequest request;
    request.solver = SolverKind::kFloydWarshall2d;
    request.cluster = sparklet::ClusterConfig::Paper();
    request.cluster.task_overhead_seconds = overhead;
    request.options.block_size = 1024;
    request.options.max_rounds = 2;
    const auto report = apsp::SolveModel(n, request);
    std::printf("%-18s %14s %14s\n",
                (std::to_string(overhead * 1e3) + "ms").c_str(),
                FormatDuration(report.run.SecondsPerRound()).c_str(),
                FormatDuration(report.run.projected_seconds).c_str());
  }

  bench::PrintHeader(
      "Ablation 4 — shared-FS bandwidth vs Blocked-CB (impure side channel)");
  std::printf("%-18s %14s\n", "GPFS aggregate", "CB projected");
  for (double bw : {2e9, 8e9, 16e9, 64e9}) {
    apsp::SolveRequest request;
    request.solver = SolverKind::kBlockedCollectBroadcast;
    request.cluster = sparklet::ClusterConfig::Paper();
    request.cluster.shared_fs.aggregate_bandwidth_bytes_per_sec = bw;
    request.options.block_size = 1536;
    request.options.max_rounds = 1;
    const auto report = apsp::SolveModel(n, request);
    std::printf("%-18s %14s\n", FormatRate(bw).c_str(),
                FormatDuration(report.run.projected_seconds).c_str());
  }

  bench::PrintHeader(
      "Ablation 5 — symmetric (upper-triangular) vs full block storage\n"
      "Blocked-CB, n = 65536, b = 1024: shuffle volume and time");
  for (bool directed : {false, true}) {
    apsp::SolveRequest request;
    request.solver = SolverKind::kBlockedCollectBroadcast;
    request.cluster = sparklet::ClusterConfig::Paper();
    request.options.block_size = 1024;
    request.options.directed = directed;
    request.options.max_rounds = 1;
    const auto report = apsp::SolveModel(65536, request);
    std::printf("%-22s shuffle=%s per-round=%s\n",
                directed ? "full (directed)" : "upper-triangular",
                FormatBytes(report.metrics().shuffle_bytes).c_str(),
                FormatDuration(report.run.SecondsPerRound()).c_str());
  }
  std::printf(
      "\nThe paper's symmetric storage halves the shuffled volume at the "
      "cost of on-demand\ntransposition (§4), and adapting to digraphs "
      "simply reverts to full storage.\n");
  return 0;
}
