#include "apsp/tuner.h"

#include <algorithm>

namespace apspark::apsp {

std::vector<TuneEntry> SweepConfigurations(const TuneRequest& request) {
  std::vector<std::int64_t> block_sizes = request.block_sizes;
  if (block_sizes.empty()) {
    for (std::int64_t b = 512; b <= 4096; b *= 2) block_sizes.push_back(b);
    block_sizes.push_back(1536);
    block_sizes.push_back(3072);
  }
  std::sort(block_sizes.begin(), block_sizes.end());
  block_sizes.erase(std::unique(block_sizes.begin(), block_sizes.end()),
                    block_sizes.end());

  std::vector<SolverKind> solvers = request.solvers;
  if (solvers.empty()) {
    solvers = {SolverKind::kBlockedInMemory,
               SolverKind::kBlockedCollectBroadcast};
  }

  std::vector<TuneEntry> entries;
  for (SolverKind kind : solvers) {
    if (request.require_fault_tolerance && !SolverIsPure(kind)) continue;
    for (std::int64_t b : block_sizes) {
      if (b <= 0 || b >= request.n) continue;
      for (PartitionerKind part : {PartitionerKind::kMultiDiagonal,
                                   PartitionerKind::kPortableHash}) {
        SolveRequest model{.solver = kind, .cluster = request.cluster};
        model.options.block_size = b;
        model.options.partitioner = part;
        model.options.max_rounds = 1;
        model.options.directed = request.directed;
        // Only the count matters to a model run.
        model.sources.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                                 0, request.num_sources)),
                             0);
        const ApspRunResult run = SolveModel(request.n, model).run;
        TuneEntry entry;
        entry.solver = kind;
        entry.block_size = b;
        entry.partitioner = part;
        entry.projected_seconds = run.projected_seconds;
        entry.projected_spill_bytes = run.projected_spill_bytes;
        entry.feasible =
            run.status.ok() && !run.projected_storage_exceeded;
        entries.push_back(entry);
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const TuneEntry& a, const TuneEntry& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     return a.projected_seconds < b.projected_seconds;
                   });
  return entries;
}

Result<TuneEntry> TuneConfiguration(const TuneRequest& request) {
  if (request.n <= 1) {
    return InvalidArgumentError("tuner: n must be > 1");
  }
  if (request.num_sources < 0) {
    return InvalidArgumentError("tuner: num_sources must be >= 0");
  }
  const auto entries = SweepConfigurations(request);
  for (const TuneEntry& entry : entries) {
    if (entry.feasible) return entry;
  }
  return NotFoundError(
      "no feasible configuration: every candidate exhausts local storage");
}

}  // namespace apspark::apsp
