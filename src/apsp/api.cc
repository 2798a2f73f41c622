#include "apsp/api.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

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

/// A min-plus closure with a negative diagonal entry has no shortest paths:
/// the entry is a negative-weight closed walk through its vertex. Like the
/// Bellman-Ford reference, the solve fails with kAborted instead of
/// returning the walk's weights as distances.
Status CheckNoNegativeCycle(const linalg::DenseBlock& distances) {
  for (std::int64_t v = 0; v < distances.rows(); ++v) {
    if (distances.At(v, v) < 0) {
      char weight[32];
      std::snprintf(weight, sizeof(weight), "%g", distances.At(v, v));
      return AbortedError("negative cycle through vertex " +
                          std::to_string(v) + " (a closed walk through it "
                          "weighs " + weight + ")");
    }
  }
  return Status::Ok();
}

/// A min-plus k-source panel holds no diagonal to check: the sweep returns
/// garbage, not an error, when a negative cycle is reachable from a source.
/// One Bellman-Ford pass over the edges finds it, in the direction the
/// panel's distances run (from the sources): around a negative cycle that
/// a source reaches, at least one edge still relaxes. A relaxation within
/// rounding of its operands is another association of the same path sum,
/// not a cycle. Graphs without a negative edge have no negative cycle.
Status CheckPanelHasNoNegativeCycle(const graph::Graph& graph,
                                    const std::vector<graph::VertexId>& sources,
                                    const linalg::DenseBlock& panel) {
  const std::vector<graph::Edge>& edges = graph.edges();
  if (std::none_of(edges.begin(), edges.end(),
                   [](const graph::Edge& e) { return e.weight < 0; })) {
    return Status::Ok();
  }
  for (std::int64_t j = 0; j < panel.cols(); ++j) {
    auto relaxes = [&panel, j](graph::VertexId u, graph::VertexId v,
                               double w) {
      const double du = panel.At(u, j);
      return !std::isinf(du) &&
             du + w < panel.At(v, j) - 1e-9 * (std::abs(du) + std::abs(w));
    };
    for (const graph::Edge& e : edges) {
      const bool forward = relaxes(e.u, e.v, e.weight);
      if (forward || (!graph.directed() && relaxes(e.v, e.u, e.weight))) {
        return AbortedError(
            "negative cycle reachable from source " +
            std::to_string(sources[static_cast<std::size_t>(j)]) +
            " (edge " + std::to_string(forward ? e.u : e.v) + " -> " +
            std::to_string(forward ? e.v : e.u) + " still relaxes)");
      }
    }
  }
  return Status::Ok();
}

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

SolveReport Rejected(SolverKind kind, Status status) {
  ApspRunResult run;
  run.status = std::move(status);
  return Report(kind, std::move(run));
}

/// What a BlockLayout and the k-source frontier need of a request: at
/// least one vertex, a positive block size and in-range sources.
Status CheckRequest(const SolveRequest& request, std::int64_t n) {
  if (n < 1 || request.options.block_size < 1) {
    return InvalidArgumentError(
        "solve: n = " + std::to_string(n) + " and block size " +
        std::to_string(request.options.block_size) + " must both be >= 1");
  }
  for (const graph::VertexId s : request.sources) {
    if (s < 0 || s >= n) {
      return InvalidArgumentError("k-source: source " + std::to_string(s) +
                                  " out of range for n = " +
                                  std::to_string(n));
    }
  }
  return Status::Ok();
}

/// Boolean APSP runs bit-packed; k-source panels stay dense (see
/// ApspOptions::semiring).
bool Packed(const SolveRequest& request) {
  return request.sources.empty() &&
         request.options.semiring == linalg::SemiringId::kBoolean;
}

}  // namespace

SolveReport Solve(const graph::Graph& graph, const SolveRequest& request) {
  const ApspOptions& opts = request.options;
  const std::int64_t n = graph.num_vertices();
  Status request_ok = CheckRequest(request, n);
  if (!request_ok.ok()) return Rejected(request.solver, std::move(request_ok));
  const BlockLayout layout(n, opts.block_size,
                           opts.directed || graph.directed());
  linalg::DenseBlock adjacency = graph.ToDenseAdjacency();
  std::vector<PanelRecord> frontier;
  if (!request.sources.empty()) {
    // The sweep computes F = A* (x) F_0, i.e. distances *to* the frontier
    // columns; sweeping the reversed graph roots them at the sources.
    if (layout.directed()) adjacency = adjacency.Transposed();
    frontier = layout.DecomposeFrontier(linalg::FrontierPanel(
        n, request.sources, linalg::SemiringZeroValue(opts.semiring),
        linalg::SemiringOneValue(opts.semiring)));
  }
  // Ingest into the requested algebra: the graph's canonical min-plus
  // adjacency becomes the semiring's matrix (bit-packed for boolean).
  adjacency = linalg::SemiringAdjacency(std::move(adjacency), opts.semiring,
                                        Packed(request));
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  ApspRunResult run = SolveBlocks(ctx, layout, layout.Decompose(adjacency),
                                  request.solver, opts, frontier);
  if (!request.sources.empty() && run.distances.has_value() &&
      opts.semiring == linalg::SemiringId::kMinPlus) {
    run.status =
        CheckPanelHasNoNegativeCycle(graph, request.sources, *run.distances);
    if (!run.status.ok()) run.distances.reset();
  }
  return Report(request.solver, std::move(run));
}

SolveReport SolveModel(std::int64_t n, const SolveRequest& request) {
  const ApspOptions& opts = request.options;
  Status request_ok = CheckRequest(request, n);
  if (!request_ok.ok()) return Rejected(request.solver, std::move(request_ok));
  const BlockLayout layout(n, opts.block_size, opts.directed);
  std::vector<PanelRecord> frontier;
  if (!request.sources.empty()) {
    frontier = layout.DecomposeFrontier(linalg::DenseBlock::Phantom(
        n, static_cast<std::int64_t>(request.sources.size())));
  }
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  return Report(request.solver,
                SolveBlocks(ctx, layout,
                            layout.DecomposePhantom(Packed(request)),
                            request.solver, opts, frontier));
}

ApspRunResult SolveBlocks(sparklet::SparkletContext& ctx,
                          const BlockLayout& layout,
                          const std::vector<BlockRecord>& blocks,
                          SolverKind kind, const ApspOptions& opts,
                          const std::vector<PanelRecord>& frontier) {
  ApspRunResult result;
  const bool ksource = !frontier.empty();
  if (ksource && kind != SolverKind::kBlockedInMemory &&
      kind != SolverKind::kBlockedCollectBroadcast) {
    result.status = InvalidArgumentError(
        std::string("k-source runs on the Blocked-IM or Blocked-CB data "
                    "plane, not ") +
        SolverKindName(kind));
    return result;
  }
  // Select the host kernel implementation for this run (restored on return
  // so one run's config cannot leak into other work in the process). This
  // only affects how fast real blocks are processed on this machine;
  // modelled cluster time comes from the cost model either way.
  linalg::ScopedKernelVariant kernel_scope(ctx.config().kernel_variant);
  // Pin the run's algebra: every kernel entry point this solve reaches —
  // fused updates, closures, element-wise folds — evaluates opts.semiring.
  linalg::ScopedSemiring semiring_scope(opts.semiring);
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
  sparklet::PartitionerPtr<std::int64_t> panel_partitioner;

  auto a = ctx.ParallelizePartitioned("A", blocks, partitioner);
  sparklet::RddPtr<PanelRecord> f;
  if (ksource) {
    panel_partitioner = sparklet::MakePortableHash<std::int64_t>(
        std::min<int>(num_partitions, static_cast<int>(layout.q())));
    f = ctx.ParallelizePartitioned("F", frontier, panel_partitioner);
  }
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
  std::vector<PanelRecord> assembled_panels;
  std::int64_t start = opts.start_round;
  int restarts = 0;
  for (;;) {
    try {
      ApspOptions attempt_opts = opts;
      attempt_opts.start_round = start;
      final_rdd =
          ksource ? RunRoundsKsource(kind, ctx, layout, a, partitioner, f,
                                     panel_partitioner, attempt_opts,
                                     end_round - start)
                  : RunRounds(kind, ctx, layout, a, partitioner, attempt_opts,
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
        if (ksource) {
          assembled_panels = f->Collect();
          // The one accounting difference between the workloads: a k-source
          // report's memory peaks include the panel collect (the shuffle
          // plane's only driver-resident spike); an APSP report's exclude
          // the n x n assembly.
          result.metrics.driver_peak_bytes = ctx.metrics().driver_peak_bytes;
          result.metrics.node_peak_bytes = ctx.metrics().node_peak_bytes;
        } else {
          assembled = final_rdd->Collect();
        }
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
            if (ksource) {
              f = ctx.ParallelizePartitioned(
                  "F" + tag, info != nullptr ? info->panels : frontier,
                  panel_partitioner);
            }
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
    if (ksource) {
      // Every row is pasted; the semiring Zero fill makes a would-be gap
      // read as "unreachable", not as a min-plus artifact.
      result.distances = layout.AssembleFrontier(
          assembled_panels, linalg::SemiringZeroValue(opts.semiring));
    } else {
      auto matrix = layout.Assemble(assembled);
      if (!matrix.ok()) {
        result.status = matrix.status();
      } else if (opts.semiring == linalg::SemiringId::kMinPlus) {
        result.status = CheckNoNegativeCycle(*matrix);
        if (result.status.ok()) result.distances = std::move(matrix).value();
      } else {
        result.distances = std::move(matrix).value();
      }
    }
  }
  return result;
}

}  // namespace apspark::apsp
