#include "apsp/api.h"

#include <algorithm>
#include <stdexcept>

#include "apsp/checkpoint.h"
#include "apsp/solvers/rounds.h"
#include "common/math_utils.h"
#include "linalg/semiring.h"

namespace apspark::apsp {

const char* SolverKindName(SolverKind kind) noexcept {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      return "Repeated Squaring";
    case SolverKind::kFloydWarshall2d:
      return "2D Floyd-Warshall";
    case SolverKind::kBlockedInMemory:
      return "Blocked-IM";
    case SolverKind::kBlockedCollectBroadcast:
      return "Blocked-CB";
  }
  return "?";
}

std::vector<SolverKind> AllSolverKinds() {
  return {SolverKind::kRepeatedSquaring, SolverKind::kFloydWarshall2d,
          SolverKind::kBlockedInMemory, SolverKind::kBlockedCollectBroadcast};
}

bool SolverIsPure(SolverKind kind) noexcept {
  return kind == SolverKind::kFloydWarshall2d ||
         kind == SolverKind::kBlockedInMemory;
}

std::int64_t TotalRounds(SolverKind kind, const BlockLayout& layout) {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      // ceil(log2(n)) squarings x q column sweeps (paper Table 2).
      return static_cast<std::int64_t>(CeilLog2(layout.n())) * layout.q();
    case SolverKind::kFloydWarshall2d:
      return layout.n();
    case SolverKind::kBlockedInMemory:
    case SolverKind::kBlockedCollectBroadcast:
      return layout.q();
  }
  throw std::invalid_argument("unknown solver kind");
}

namespace {

sparklet::RddPtr<BlockRecord> RunRounds(
    SolverKind kind, sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const sparklet::RddPtr<BlockRecord>& a,
    const sparklet::PartitionerPtr<BlockKey>& part, const ApspOptions& opts,
    std::int64_t rounds) {
  switch (kind) {
    case SolverKind::kRepeatedSquaring:
      return RunRoundsRepeatedSquaring(ctx, layout, a, part, opts, rounds);
    case SolverKind::kFloydWarshall2d:
      return RunRoundsFloydWarshall2d(ctx, layout, a, part, opts, rounds);
    case SolverKind::kBlockedInMemory:
      return RunRoundsBlockedInMemory(ctx, layout, a, part, opts, rounds);
    case SolverKind::kBlockedCollectBroadcast:
      return RunRoundsBlockedCollectBroadcast(ctx, layout, a, part, opts,
                                              rounds);
  }
  throw std::invalid_argument("unknown solver kind");
}

SolveReport Report(SolverKind kind, ApspRunResult run) {
  SolveReport report;
  report.solver_name = SolverKindName(kind);
  report.pure = SolverIsPure(kind);
  report.run = std::move(run);
  return report;
}

bool Packed(const ApspOptions& opts) {
  return opts.semiring == linalg::SemiringId::kBoolean && opts.bitpack_boolean;
}

}  // namespace

SolveReport Solve(const graph::Graph& graph, const SolveRequest& request) {
  const ApspOptions& opts = request.options;
  const BlockLayout layout(graph.num_vertices(), opts.block_size,
                           opts.directed || graph.directed());
  // Ingest into the requested algebra: the graph's canonical min-plus
  // adjacency becomes the semiring's matrix (bit-packed for boolean).
  const linalg::DenseBlock adjacency = linalg::SemiringAdjacency(
      graph.ToDenseAdjacency(), opts.semiring, Packed(opts));
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  return Report(request.solver,
                SolveBlocks(ctx, layout, layout.Decompose(adjacency),
                            request.solver, opts));
}

SolveReport SolveModel(std::int64_t n, const SolveRequest& request) {
  const ApspOptions& opts = request.options;
  const BlockLayout layout(n, opts.block_size, opts.directed);
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  return Report(request.solver,
                SolveBlocks(ctx, layout, layout.DecomposePhantom(Packed(opts)),
                            request.solver, opts));
}

ApspRunResult SolveBlocks(sparklet::SparkletContext& ctx,
                          const BlockLayout& layout,
                          const std::vector<BlockRecord>& blocks,
                          SolverKind kind, const ApspOptions& opts) {
  // Select the host kernel implementation for this run (restored on return
  // so one run's config cannot leak into other work in the process). This
  // only affects how fast real blocks are processed on this machine;
  // modelled cluster time comes from the cost model either way.
  linalg::ScopedKernelVariant kernel_scope(ctx.config().kernel_variant);
  // Pin the run's algebra: every kernel entry point this solve reaches —
  // fused updates, closures, element-wise folds — evaluates opts.semiring.
  linalg::ScopedSemiring semiring_scope(opts.semiring);
  ApspRunResult result;
  result.rounds_total = TotalRounds(kind, layout);
  const std::int64_t rounds_remaining =
      std::max<std::int64_t>(0, result.rounds_total - opts.start_round);
  const std::int64_t rounds_to_run =
      opts.max_rounds > 0 ? std::min(opts.max_rounds, rounds_remaining)
                          : rounds_remaining;
  const std::int64_t end_round = opts.start_round + rounds_to_run;

  const int num_partitions =
      std::max(1, opts.partitions_per_core * ctx.config().total_cores());
  auto partitioner =
      MakeBlockPartitioner(opts.partitioner, layout, num_partitions);

  auto a = ctx.ParallelizePartitioned("A", blocks, partitioner);
  // The paper disregards the cost of populating the RDD (§5.1).
  ctx.cluster().Reset();
  ArmRunPlan(ctx, opts);

  // Whether the run ends with a driver-side assembly collect (completed
  // real-data runs only). The collect runs inside the attempt loop so an
  // executor loss firing during assembly goes through the same recovery.
  const bool phantom = !blocks.empty() && blocks.front().second->is_phantom();
  const bool want_assembly = !phantom && end_round == result.rounds_total;

  sparklet::RddPtr<BlockRecord> final_rdd;
  std::vector<BlockRecord> assembled;
  std::int64_t start = opts.start_round;
  int restarts = 0;
  for (;;) {
    try {
      ApspOptions attempt_opts = opts;
      attempt_opts.start_round = start;
      final_rdd = RunRounds(kind, ctx, layout, a, partitioner, attempt_opts,
                            end_round - start);
      result.rounds_executed = rounds_to_run;
      // The assembly collect is excluded from the reported solve time and
      // metrics, like the paper's timings (both captured before the collect
      // below runs; the collect still goes through this try block so an
      // executor loss firing during assembly recovers like any other).
      // Failure/recovery evidence accrued *during* assembly is folded back
      // in — a loss that fires there must still show in the report.
      result.sim_seconds = ctx.now_seconds();
      result.metrics = ctx.metrics();
      if (want_assembly) {
        assembled = final_rdd->Collect();
        FoldRecoveryMetrics(ctx.metrics(), result.metrics);
      }
      result.status = Status::Ok();
      break;
    } catch (const sparklet::SparkletAbort& abort) {
      // Pure solvers recover in place through lineage recomputation and
      // never raise the one restartable abort (DATA_LOSS).
      final_rdd.reset();
      auto resume = RestartOnDataLoss(
          ctx, layout, opts, abort.status(), restarts,
          /*fallback_round=*/opts.start_round,
          [&](const CheckpointInfo* info, const std::string& tag) {
            a = ctx.ParallelizePartitioned(
                "A" + tag, info != nullptr ? info->blocks : blocks,
                partitioner);
          });
      if (!resume.ok()) {
        result.status = resume.status();
        break;
      }
      start = *resume;
    }
  }

  if (!result.status.ok()) {
    result.sim_seconds = ctx.now_seconds();
    result.metrics = ctx.metrics();
  }
  result.spill_peak_bytes = ctx.cluster().MaxLocalStorageUsed();
  if (result.rounds_executed > 0) {
    const double scale = static_cast<double>(result.rounds_total) /
                         static_cast<double>(result.rounds_executed);
    result.projected_seconds = result.sim_seconds * scale;
    result.projected_spill_bytes =
        static_cast<double>(result.spill_peak_bytes) * scale;
    result.projected_storage_exceeded =
        result.projected_spill_bytes >
        static_cast<double>(ctx.config().local_storage_bytes);
  }

  if (result.status.ok() && want_assembly) {
    auto matrix = layout.Assemble(assembled);
    if (matrix.ok()) {
      result.distances = std::move(matrix).value();
    } else {
      result.status = matrix.status();
    }
  }
  return result;
}

}  // namespace apspark::apsp
