// Public solve surface: the one way to run the paper's four APSP solvers
// and the batched k-source sweep.
//
// The four solvers implement the paper's algorithms (§4) and differ in one
// property — whether they stay pure Spark or stage data in shared persistent
// storage (§3):
//   kRepeatedSquaring        — Alg. 1 (impure: shared-FS column staging)
//   kFloydWarshall2d         — Alg. 2 (pure)
//   kBlockedInMemory         — Alg. 3 (pure)
//   kBlockedCollectBroadcast — Alg. 4 (impure)
// A k-source request (non-empty SolveRequest::sources) solves the n x k
// frontier instead of the n x n matrix, on the data plane of one of the
// blocked methods: kBlockedCollectBroadcast stages pivot data through shared
// storage, kBlockedInMemory replicates it through the shuffle
// (solvers/rounds.h, RunRoundsKsource).
//
//   SolveRequest — everything one solve needs: which solver, the workload
//     options (ApspOptions, including the durability/fault knobs), the
//     k-source sources, the cluster and the cost model.
//   SolveReport — the run payload (ApspRunResult) plus the identity of the
//     solver that produced it.
//
//   Solve(graph, request)   — full-fidelity run on real data; returns the
//     distance matrix (or k-source panel), validated in tests against
//     Dijkstra/Johnson and the scalar Floyd-Warshall oracle.
//   SolveModel(n, request)  — paper-scale run on phantom blocks; executes the
//     complete engine control path (partitioning, shuffles, storage
//     accounting) and reports modelled time. With options.max_rounds > 0 only
//     the first rounds run and the total is projected, exactly the
//     methodology of the paper's Table 2 ("Single" vs "Projected").
//   SolveBlocks(ctx, layout, blocks, kind, opts, frontier) — the
//     engine-level core both of the above call, on a caller-owned context
//     (fault injection through ctx.fault_injector(), checkpoint resume,
//     shared-storage inspection, stage traces).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/block_layout.h"
#include "apsp/partitioners.h"
#include "graph/graph.h"
#include "linalg/cost_model.h"
#include "linalg/kernel_registry.h"
#include "sparklet/config.h"
#include "sparklet/fault.h"
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
/// ones stage data in shared persistent storage (§3). A k-source sweep
/// inherits the purity of the blocked method whose data plane it runs.
bool SolverIsPure(SolverKind kind) noexcept;
/// Rounds a full run of `kind` takes for `layout` (a "round" is one column
/// sweep for Repeated Squaring, one k step for 2D Floyd-Warshall, one
/// diagonal iteration for the blocked methods and the k-source sweep).
std::int64_t TotalRounds(SolverKind kind, const BlockLayout& layout);

/// The decomposition and execution parameters of both workloads, and the
/// durability/fault schedule every solve arms (ArmRunPlan and
/// RestartOnDataLoss in apsp/checkpoint.h).
struct ApspOptions {
  /// Decomposition parameter b; q = ceil(n/b).
  std::int64_t block_size = 256;
  /// Semiring the solve evaluates (see linalg/semiring.h). Solve converts
  /// the canonical min-plus adjacency into this algebra's matrix (boolean
  /// reachability, max-min capacities, max-times reliabilities via 2^-w);
  /// the result matrix is in the semiring's value domain.
  /// Boolean APSP solves run on the bit-packed block plane (64 vertices
  /// per word); k-source panels mix with matrix blocks every pivot and stay
  /// dense.
  linalg::SemiringId semiring = linalg::SemiringId::kMinPlus;
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
  /// K-source early exit: skip a pivot's phases 2/3 and frontier sweep when
  /// its whole cross is the semiring's annihilator (all-infinite under
  /// (min, +)). The detection scan charges identically on real and phantom
  /// runs; only real runs can actually skip, so disable this when comparing
  /// a disconnected real run against its phantom projection
  /// second-for-second. Ignored by APSP solves.
  bool early_exit_infinite = true;

  // --- durability and faults
  /// Durability extension: checkpoint solver state to shared storage every
  /// this many rounds/pivots (0 = off); see apsp/checkpoint.h. Honored by
  /// the impure solvers; pure ones recover through lineage and ignore it.
  std::int64_t checkpoint_every = 0;
  /// Fault injection: executor losses to arm before the run (fired by the
  /// engine at stage boundaries; see sparklet::FaultInjector::FailNode).
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  /// How many checkpoint restarts an impure solver may attempt after
  /// executor losses before giving up and surfacing DATA_LOSS.
  int max_restarts = 3;
};

struct ApspRunResult {
  /// OK, or why the run stopped (e.g. storage exhausted; kAborted for a
  /// min-plus APSP graph with a negative cycle, or, from Solve(), a
  /// min-plus k-source run whose sources reach one).
  Status status;

  /// Full distance matrix, or for a k-source run the n x k panel with
  /// distances->At(v, j) = dist(sources[j] -> v) (only for completed
  /// real-data runs).
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
  /// For a k-source request, the data plane: kBlockedCollectBroadcast
  /// (staged) or kBlockedInMemory (shuffle); any other kind is
  /// INVALID_ARGUMENT.
  SolverKind solver = SolverKind::kBlockedCollectBroadcast;
  /// Workload options, including the checkpoint cadence and the armed
  /// failure schedule.
  ApspOptions options{};
  /// Empty = APSP. Otherwise the batched k-source workload: vertex ids of
  /// the graph (duplicates allowed, so k may exceed n); SolveModel uses
  /// only their count as k.
  std::vector<graph::VertexId> sources{};
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
/// for `layout`, real or phantom) on a caller-owned context. A non-empty
/// `frontier` (layout.DecomposeFrontier of the n x k source frontier) makes
/// it a k-source sweep on kind's data plane; its columns come out
/// source-rooted only if `blocks` hold the transposed adjacency of a
/// directed graph, as Solve arranges. Arms opts' failure schedule, restarts
/// impure solvers from checkpoints after DATA_LOSS, and assembles the
/// distance matrix or panel when a real-data run completes.
ApspRunResult SolveBlocks(sparklet::SparkletContext& ctx,
                          const BlockLayout& layout,
                          const std::vector<BlockRecord>& blocks,
                          SolverKind kind, const ApspOptions& opts,
                          const std::vector<PanelRecord>& frontier = {});

}  // namespace apspark::apsp
