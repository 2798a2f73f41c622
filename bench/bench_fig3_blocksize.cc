// Figure 3: effect of block size, partitioner, and over-decomposition
// factor B on the blocked solvers, n = 131072, p = 1024.
//
//   Top/middle panels: total execution time of Blocked In-Memory (IM) and
//   Blocked Collect/Broadcast (CB) vs b, for the default Spark partitioner
//   (PH) and the multi-diagonal partitioner (MD), B in {1, 2}.
//   Bottom panel: the distribution of RDD partition sizes each partitioner
//   induces (B = 2).
//
// Shapes to reproduce: U-shaped time-vs-b curves; IM infeasible for small b
// (local storage exhausted by shuffle spill); CB < IM; MD <= PH with the gap
// widening at large b; PH partition sizes skewed, MD flat.
//
// Runs through the consolidated apsp::SolveRequest / SolveModel surface and
// the kernel registry (the projected per-block kernel cost follows the
// resolved KernelTuning), and writes one JSON record per (solver,
// partitioner, B, b) cell to BENCH_fig3.json (APSPARK_BENCH_JSON overrides);
// the tracked CB/MD cell declares the gate bench/check_gates.py evaluates.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apsp/api.h"
#include "apsp/partitioners.h"
#include "bench_util.h"
#include "common/time_utils.h"
#include "linalg/kernel_registry.h"

namespace {

using namespace apspark;
using apsp::PartitionerKind;
using apsp::SolverKind;

struct CellResult {
  std::string solver;       // "im" or "cb"
  std::string partitioner;  // "PH" or "MD"
  int over_decomposition = 1;
  std::int64_t b = 0;
  double model_seconds = 0;  // projected virtual time (0 when infeasible)
  bool storage_ok = true;
};

bool WriteJson(const std::vector<CellResult>& results) {
  std::vector<bench::Record> records;
  for (const CellResult& r : results) {
    std::vector<bench::Gate> gates;
    if (r.solver == "cb" && r.partitioner == "MD" &&
        r.over_decomposition == 2 && r.b == 1024) {
      // The paper's tracked cell. Model time is deterministic cost-model
      // output, identical on any runner, so 10% holds everywhere: growth
      // means the cost model or the placement logic got worse.
      gates.push_back(bench::Relative("fig3_cb_md_B2_b1024_model_seconds",
                                      "model_seconds", bench::Better::kLower,
                                      0.10, 0.10));
    }
    records.push_back(
        {bench::Format("\"section\": \"fig3\", \"solver\": \"%s\", "
                       "\"partitioner\": \"%s\", \"B\": %d, \"b\": %lld, "
                       "\"model_seconds\": %.6f, \"storage_ok\": %s",
                       r.solver.c_str(), r.partitioner.c_str(),
                       r.over_decomposition, static_cast<long long>(r.b),
                       r.model_seconds, r.storage_ok ? "true" : "false"),
         std::move(gates)});
  }
  return bench::WriteBenchJson("bench_fig3_blocksize", "BENCH_fig3.json",
                               records);
}

}  // namespace

int main() {
  const std::int64_t n = 131072;
  auto cluster = sparklet::ClusterConfig::Paper();
  const std::vector<std::int64_t> block_sizes = {512,  768,  1024, 1280,
                                                 1536, 1792, 2048};
  std::vector<CellResult> results;

  bench::PrintHeader(
      "Figure 3 (top/middle) — Blocked-IM and Blocked-CB time vs block size\n"
      "n = 131072, p = 1024 (simulated, projected from one iteration)");
  std::printf("kernels: %s\n\n",
              linalg::DescribeKernelTuning(linalg::GetKernelTuning()).c_str());

  std::printf("%-10s %-4s %-3s", "b", "Part", "B");
  std::printf(" %14s %14s\n", "IM total", "CB total");
  for (PartitionerKind part : {PartitionerKind::kPortableHash,
                               PartitionerKind::kMultiDiagonal}) {
    for (int B : {1, 2}) {
      for (std::int64_t b : block_sizes) {
        std::string cells[2];
        int idx = 0;
        for (SolverKind kind : {SolverKind::kBlockedInMemory,
                                SolverKind::kBlockedCollectBroadcast}) {
          apsp::SolveRequest request;
          request.solver = kind;
          request.options.block_size = b;
          request.options.partitioner = part;
          request.options.partitions_per_core = B;
          request.options.max_rounds = 1;
          request.cluster = cluster;
          const auto report = apsp::SolveModel(n, request);
          CellResult cell;
          cell.solver =
              kind == SolverKind::kBlockedInMemory ? "im" : "cb";
          cell.partitioner = bench::PartitionerLabel(part);
          cell.over_decomposition = B;
          cell.b = b;
          if (!report.ok() || report.run.projected_storage_exceeded) {
            cell.storage_ok = false;
            cells[idx++] = "FAIL(storage)";
          } else {
            cell.model_seconds = report.run.projected_seconds;
            cells[idx++] = FormatDuration(report.run.projected_seconds);
          }
          results.push_back(cell);
        }
        std::printf("%-10lld %-4s %-3d %14s %14s\n",
                    static_cast<long long>(b), bench::PartitionerLabel(part),
                    B, cells[0].c_str(), cells[1].c_str());
        std::fflush(stdout);
      }
    }
  }

  bench::PrintHeader(
      "Figure 3 (bottom) — RDD partition-size distribution, B = 2");
  std::printf("%-10s %12s %12s %12s %12s %12s %12s\n", "b", "PH min",
              "PH max", "PH stdev", "MD min", "MD max", "MD stdev");
  const int p = cluster.total_cores();
  for (std::int64_t b : block_sizes) {
    const apsp::BlockLayout layout(n, b);
    double stats[2][3];  // [PH, MD] x [min, max, stdev]
    int idx = 0;
    for (PartitionerKind part : {PartitionerKind::kPortableHash,
                                 PartitionerKind::kMultiDiagonal}) {
      auto partitioner = apsp::MakeBlockPartitioner(part, layout, 2 * p);
      auto histogram = apsp::PartitionSizeHistogram(layout, *partitioner);
      const auto [mn, mx] =
          std::minmax_element(histogram.begin(), histogram.end());
      double mean = 0;
      for (auto h : histogram) mean += static_cast<double>(h);
      mean /= static_cast<double>(histogram.size());
      double var = 0;
      for (auto h : histogram) {
        const double d = static_cast<double>(h) - mean;
        var += d * d;
      }
      var /= static_cast<double>(histogram.size());
      stats[idx][0] = static_cast<double>(*mn);
      stats[idx][1] = static_cast<double>(*mx);
      stats[idx][2] = var > 0 ? std::sqrt(var) : 0.0;
      ++idx;
    }
    std::printf("%-10lld %12.0f %12.0f %12.2f %12.0f %12.0f %12.2f\n",
                static_cast<long long>(b), stats[0][0], stats[0][1],
                stats[0][2], stats[1][0], stats[1][1], stats[1][2]);
  }
  std::printf(
      "\nPaper reference: IM fails for b < 1024 (storage); MD partition sizes"
      " are flat\nwhile PH skews badly on upper-triangular keys (Fig. 3 "
      "bottom).\n");

  if (!WriteJson(results)) return 1;

  // Sanity gate: the paper's tracked cell — Blocked-CB with the
  // multi-diagonal partitioner, B = 2, b = 1024 — must be feasible.
  for (const CellResult& r : results) {
    if (r.solver == "cb" && r.partitioner == "MD" &&
        r.over_decomposition == 2 && r.b == 1024) {
      if (!r.storage_ok || r.model_seconds <= 0) {
        std::fprintf(stderr, "FAIL: tracked CB/MD/B=2/b=1024 cell infeasible\n");
        return 1;
      }
      return 0;
    }
  }
  std::fprintf(stderr, "FAIL: tracked CB/MD/B=2/b=1024 cell missing\n");
  return 1;
}
