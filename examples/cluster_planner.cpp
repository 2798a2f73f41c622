// Capacity/configuration planner: before renting 1,024 cores, sweep solver,
// block size and partitioner on the virtual cluster (phantom blocks — no
// graph data needed) and print a recommendation. This automates the paper's
// §5.2-§5.3 tuning discussion: "the block size should be selected
// carefully" and "programmer should not depend on default options".
//
// Usage: cluster_planner [n] [cores]   (defaults: n = 131072, cores = 1024)
#include <cstdio>
#include <cstdlib>

#include "apsp/tuner.h"
#include "common/time_utils.h"

int main(int argc, char** argv) {
  using namespace apspark;
  apsp::TuneRequest request;
  request.n = argc > 1 ? std::atoll(argv[1]) : 131072;
  const int cores = argc > 2 ? std::atoi(argv[2]) : 1024;
  request.cluster = sparklet::ClusterConfig::PaperWithCores(cores);
  request.block_sizes = {512, 1024, 1536, 2048, 3072};
  std::printf("planning APSP of n = %lld on: %s\n",
              static_cast<long long>(request.n),
              request.cluster.Summary().c_str());
  std::printf("%-14s %-6s %-4s %14s %12s\n", "solver", "b", "part",
              "projected", "spill/node");

  // One simulated round per configuration, projected; best-first.
  const auto entries = apsp::SweepConfigurations(request);
  for (const apsp::TuneEntry& entry : entries) {
    std::printf("%-14s %-6lld %-4s %14s %12s\n",
                apsp::SolverKindName(entry.solver),
                static_cast<long long>(entry.block_size),
                apsp::PartitionerKindName(entry.partitioner),
                entry.feasible
                    ? FormatDuration(entry.projected_seconds).c_str()
                    : "infeasible",
                FormatBytes(static_cast<std::uint64_t>(
                                entry.projected_spill_bytes))
                    .c_str());
  }
  if (!entries.empty() && entries.front().feasible) {
    const apsp::TuneEntry& best = entries.front();
    std::printf("\nrecommendation: %s, b = %lld, %s partitioner%s — "
                "estimated %s\n",
                apsp::SolverKindName(best.solver),
                static_cast<long long>(best.block_size),
                apsp::PartitionerKindName(best.partitioner),
                apsp::SolverIsPure(best.solver) ? " (fault-tolerant)"
                                                : " (NOT fault-tolerant)",
                FormatDuration(best.projected_seconds).c_str());
  } else {
    std::printf("\nno feasible configuration found — add nodes or storage\n");
  }
  return 0;
}
