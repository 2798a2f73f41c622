// Public APSP solve surface: the one way to run the paper's four solvers.
//
// The four solvers implement the paper's algorithms (§4) and differ in one
// property — whether they stay pure Spark or stage data in shared persistent
// storage (§3):
//   kRepeatedSquaring        — Alg. 1 (impure: shared-FS column staging)
//   kFloydWarshall2d         — Alg. 2 (pure)
//   kBlockedInMemory         — Alg. 3 (pure)
//   kBlockedCollectBroadcast — Alg. 4 (impure)
//
//   SolveRequest — everything one APSP solve needs: which solver, the
//     workload options (ApspOptions), the cluster and the cost model. The
//     shared durability/fault/membership knobs live in options' RunPlan base
//     (apsp/run_plan.h) so one plan configures any workload.
//   SolveReport — the run payload (ApspRunResult) plus the identity of the
//     solver that produced it.
//
//   Solve(graph, request)   — full-fidelity run on real data; returns the
//     distance matrix, validated in tests against Dijkstra/Johnson.
//   SolveModel(n, request)  — paper-scale run on phantom blocks; executes the
//     complete engine control path (partitioning, shuffles, storage
//     accounting) and reports modelled time. With options.max_rounds > 0 only
//     the first rounds run and the total is projected, exactly the
//     methodology of the paper's Table 2 ("Single" vs "Projected").
//   SolveBlocks(ctx, layout, blocks, kind, opts) — the engine-level core both
//     of the above call, on a caller-owned context (fault injection through
//     ctx.fault_injector(), checkpoint resume, shared-storage inspection).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/block_layout.h"
#include "apsp/partitioners.h"
#include "apsp/run_plan.h"
#include "graph/graph.h"
#include "linalg/cost_model.h"
#include "linalg/kernel_registry.h"
#include "sparklet/config.h"
#include "sparklet/rdd.h"

namespace apspark::apsp {

enum class SolverKind {
  kRepeatedSquaring,
  kFloydWarshall2d,
  kBlockedInMemory,
  kBlockedCollectBroadcast,
};

/// Display name, e.g. "Blocked-CB".
const char* SolverKindName(SolverKind kind) noexcept;
std::vector<SolverKind> AllSolverKinds();
/// Pure solvers rely only on fault-tolerant Spark functionality; impure
/// ones stage data in shared persistent storage (§3).
bool SolverIsPure(SolverKind kind) noexcept;
/// Rounds a full run of `kind` takes for `layout` (a "round" is one column
/// sweep for Repeated Squaring, one k step for 2D Floyd-Warshall, one
/// diagonal iteration for the blocked methods).
std::int64_t TotalRounds(SolverKind kind, const BlockLayout& layout);

/// The durability/fault/membership knobs live in the RunPlan base (shared
/// with KsourceOptions — see apsp/run_plan.h); the fields here are the
/// APSP-specific decomposition and execution parameters.
struct ApspOptions : RunPlan {
  /// Decomposition parameter b; q = ceil(n/b).
  std::int64_t block_size = 256;
  /// Semiring the solve evaluates (see linalg/semiring.h). Solve converts
  /// the canonical min-plus adjacency into this algebra's matrix (boolean
  /// reachability, max-min capacities, max-times reliabilities via 2^-w);
  /// the result matrix is in the semiring's value domain.
  linalg::SemiringId semiring = linalg::SemiringId::kMinPlus;
  /// Boolean solves use the bit-packed block plane (64 vertices per word)
  /// unless disabled. Ignored for the other semirings.
  bool bitpack_boolean = true;
  PartitionerKind partitioner = PartitionerKind::kMultiDiagonal;
  /// Spark's over-decomposition factor B: RDD partitions per core (§5.3).
  int partitions_per_core = 2;
  /// 0 = run to completion. Otherwise simulate this many rounds and project
  /// (see TotalRounds for what one round is).
  std::int64_t max_rounds = 0;
  bool directed = false;
  /// Resume support: skip rounds [0, start_round) — the caller provides the
  /// matching checkpointed blocks via SolveBlocks().
  std::int64_t start_round = 0;
};

struct ApspRunResult {
  Status status;  // OK, or why the run stopped (e.g. storage exhausted)

  /// Full distance matrix (only for completed real-data runs).
  std::optional<linalg::DenseBlock> distances;

  sparklet::SimMetrics metrics;
  double sim_seconds = 0;  // modelled time of the executed rounds
  std::int64_t rounds_executed = 0;
  std::int64_t rounds_total = 0;
  /// sim_seconds scaled to all rounds (equals sim_seconds for full runs).
  double projected_seconds = 0;

  std::uint64_t spill_peak_bytes = 0;  // per-node local-storage high water
  double projected_spill_bytes = 0;    // extrapolated over all rounds
  /// True when the extrapolated spill exceeds per-node capacity: the solver
  /// would die before finishing (paper Table 3: Blocked-IM at p = 1024).
  bool projected_storage_exceeded = false;

  double SecondsPerRound() const noexcept {
    return rounds_executed > 0
               ? sim_seconds / static_cast<double>(rounds_executed)
               : 0.0;
  }
};

struct SolveRequest {
  SolverKind solver = SolverKind::kBlockedCollectBroadcast;
  /// Workload options. The RunPlan base carries the checkpoint cadence and
  /// the armed failure/membership schedule; assign a shared plan with
  /// `static_cast<RunPlan&>(request.options) = plan`.
  ApspOptions options{};
  sparklet::ClusterConfig cluster = sparklet::ClusterConfig::TinyTest();
  linalg::CostModel cost_model{};
};

struct SolveReport {
  /// Name of the solver that ran (SolverKindName, e.g. "Blocked-CB").
  std::string solver_name;
  /// Whether the solver relies only on fault-tolerant Spark functionality.
  bool pure = false;
  /// The full run payload (status, distances, metrics, projections).
  ApspRunResult run;

  bool ok() const noexcept { return run.status.ok(); }
  const Status& status() const noexcept { return run.status; }
  const sparklet::SimMetrics& metrics() const noexcept { return run.metrics; }
  /// Distance matrix of a completed real-data run (empty for model runs).
  const std::optional<linalg::DenseBlock>& distances() const noexcept {
    return run.distances;
  }
};

/// Full-fidelity solve of `graph` per `request`.
SolveReport Solve(const graph::Graph& graph, const SolveRequest& request);

/// Paper-scale model run on phantom blocks (no numeric payload).
SolveReport SolveModel(std::int64_t n, const SolveRequest& request);

/// Runs solver `kind` over `blocks` (the decomposition of the input matrix
/// for `layout`, real or phantom) on a caller-owned context. Arms opts' run
/// plan, restarts impure solvers from checkpoints after DATA_LOSS, and
/// assembles the distance matrix when a real-data run completes.
ApspRunResult SolveBlocks(sparklet::SparkletContext& ctx,
                          const BlockLayout& layout,
                          const std::vector<BlockRecord>& blocks,
                          SolverKind kind, const ApspOptions& opts);

}  // namespace apspark::apsp
