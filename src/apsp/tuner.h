// Block-size / solver / partitioner autotuner.
//
// §4 of the paper says b is "a user-provided (or auto-tuned) decomposition
// parameter"; §5.2-5.3 spend two sections on how to choose it. This module
// automates that choice: it sweeps candidate configurations in phantom mode
// on the virtual cluster (one simulated round each, projected — seconds of
// wall time), discards configurations whose projected shuffle spill would
// overflow local storage, and returns the fastest remaining one.
//
// With num_sources > 0 the same sweep picks the k-source data plane: staged
// (Blocked-CB; cost dominated by shared-FS bandwidth and per-file overhead)
// or shuffle (Blocked-IM; cost dominated by network shuffle volume). Which
// wins depends on the modelled cluster — a fat GPFS favors staging, a slow
// one (or a fast fabric) favors the shuffle.
#pragma once

#include <vector>

#include "apsp/api.h"

namespace apspark::apsp {

struct TuneRequest {
  std::int64_t n = 0;
  /// 0 = APSP. Otherwise the sweep models a k-source run with this many
  /// sources (see SolveRequest::sources).
  std::int64_t num_sources = 0;
  sparklet::ClusterConfig cluster;
  /// Candidates; empty selects a geometric sweep 512..4096 clipped to n.
  std::vector<std::int64_t> block_sizes;
  /// Solvers to consider; empty = the two blocked methods (the only ones
  /// the paper finds viable at scale, and the k-source data planes).
  std::vector<SolverKind> solvers;
  /// Restrict to pure (fault-tolerant) solvers.
  bool require_fault_tolerance = false;
  bool directed = false;
};

struct TuneEntry {
  SolverKind solver;
  std::int64_t block_size = 0;
  PartitionerKind partitioner = PartitionerKind::kMultiDiagonal;
  double projected_seconds = 0;
  double projected_spill_bytes = 0;
  bool feasible = false;  // storage fits and the simulated round succeeded
};

/// All swept configurations, best-first (infeasible entries last).
std::vector<TuneEntry> SweepConfigurations(const TuneRequest& request);

/// The recommended configuration, or NOT_FOUND if nothing is feasible.
Result<TuneEntry> TuneConfiguration(const TuneRequest& request);

}  // namespace apspark::apsp
