#include "apsp/solvers/ksource_blocked.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "apsp/combine_steps.h"
#include "apsp/solvers/rounds.h"
#include "apsp/solvers/staging.h"
#include "linalg/kernel_registry.h"
#include "linalg/semiring.h"

namespace apspark::apsp {

using linalg::BlockRef;
using linalg::DenseBlock;
using sparklet::RddPtr;
using sparklet::SparkletAbort;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadPhase3Factors;
using staging::ReadStagedBlock;
using staging::StagingKeys;

const char* KsourceVariantName(KsourceVariant variant) noexcept {
  switch (variant) {
    case KsourceVariant::kStagedStorage:
      return "staged";
    case KsourceVariant::kShuffleReplicated:
      return "shuffle";
  }
  return "?";
}

std::optional<KsourceVariant> ParseKsourceVariant(std::string_view name) {
  if (name == "staged") return KsourceVariant::kStagedStorage;
  if (name == "shuffle") return KsourceVariant::kShuffleReplicated;
  return std::nullopt;
}

std::vector<PanelRecord> DecomposeFrontier(const BlockLayout& layout,
                                           const linalg::DenseBlock& frontier) {
  std::vector<PanelRecord> panels;
  panels.reserve(static_cast<std::size_t>(layout.q()));
  for (std::int64_t i = 0; i < layout.q(); ++i) {
    const std::int64_t r0 = i * layout.block_size();
    panels.push_back(
        {i, linalg::MakeBlock(frontier.RowPanel(r0, layout.BlockDim(i)))});
  }
  return panels;
}

KsourceResult KsourceBlockedSolver::SolveGraph(
    const graph::Graph& graph, const std::vector<graph::VertexId>& sources,
    const KsourceOptions& opts, const sparklet::ClusterConfig& cluster,
    const linalg::CostModel& model) {
  KsourceResult result;
  const std::int64_t n = graph.num_vertices();
  if (sources.empty()) {
    result.status = InvalidArgumentError("ksource: no sources given");
    return result;
  }
  for (graph::VertexId s : sources) {
    if (s < 0 || s >= n) {
      result.status = InvalidArgumentError("ksource: source " +
                                           std::to_string(s) +
                                           " out of range");
      return result;
    }
  }
  const bool directed = opts.directed || graph.directed();
  DenseBlock adjacency = graph.ToDenseAdjacency();
  // The sweep computes F = A* ⊗ F_0, i.e. distances *to* the frontier
  // columns; sweeping the reversed graph roots them at the sources instead.
  if (directed) adjacency = adjacency.Transposed();
  // Ingest into the requested algebra (panels stay dense; see KsourceOptions).
  adjacency = linalg::SemiringAdjacency(std::move(adjacency), opts.semiring,
                                        /*bitpack=*/false);
  KsourceOptions run_opts = opts;
  run_opts.directed = directed;
  const BlockLayout layout(n, opts.block_size, directed);
  const DenseBlock frontier = linalg::FrontierPanel(
      n, std::vector<std::int64_t>(sources.begin(), sources.end()),
      linalg::SemiringZeroValue(opts.semiring),
      linalg::SemiringOneValue(opts.semiring));
  sparklet::SparkletContext ctx(cluster, model);
  return Solve(ctx, layout, layout.Decompose(adjacency),
               DecomposeFrontier(layout, frontier), run_opts);
}

KsourceResult KsourceBlockedSolver::SolveModel(
    std::int64_t n, std::int64_t num_sources, const KsourceOptions& opts,
    const sparklet::ClusterConfig& cluster, const linalg::CostModel& model) {
  KsourceResult result;
  if (num_sources <= 0) {
    result.status = InvalidArgumentError("ksource: no sources given");
    return result;
  }
  const BlockLayout layout(n, opts.block_size, opts.directed);
  std::vector<PanelRecord> panels;
  panels.reserve(static_cast<std::size_t>(layout.q()));
  for (std::int64_t i = 0; i < layout.q(); ++i) {
    panels.push_back({i, linalg::MakeBlock(DenseBlock::Phantom(
                             layout.BlockDim(i), num_sources))});
  }
  sparklet::SparkletContext ctx(cluster, model);
  return Solve(ctx, layout, layout.DecomposePhantom(), panels, opts);
}

namespace {

/// Early-exit detection: true when every stored off-diagonal cross block of
/// pivot t is entirely the semiring's annihilator (all-infinite under
/// (min, +)), i.e. block row/column t carries no path in or out and phases
/// 2/3 plus the frontier factor sweep are provably no-ops. The scan charges
/// like the element-wise kernel it is and runs identically on phantom blocks
/// (whose BlockAllZero() is false, so a phantom run charges the same
/// detection time but never skips). Routing through the semiring's IsZero —
/// instead of the historical hardwired isinf test — is what makes the skip
/// sound for boolean/max-times runs, whose annihilator is 0.0, not +inf: an
/// isinf scan there would claim a cross full of unreachable-0 entries is
/// live and silently forfeit every skip (or worse, skip on the wrong
/// predicate if the matrix were re-encoded).
bool PivotCrossAllZero(RddPtr<BlockRecord>& a, const BlockLayout& layout,
                       std::int64_t t, linalg::SemiringId semiring) {
  auto flags =
      a->Filter("ks-infscan-cross",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t) &&
                         !OnDiagonal(rec.first, t);
                })
          ->Map("ks-infscan",
                [semiring](const BlockRecord& rec,
                           TaskContext& tc) -> std::int64_t {
                  tc.ChargeCompute(
                      tc.cost_model().ElementwiseSeconds(rec.second->size()));
                  return linalg::BlockAllZero(*rec.second, semiring) ? 1 : 0;
                })
          ->Collect();
  for (const std::int64_t all_zero : flags) {
    if (all_zero == 0) return false;
  }
  return true;
}

/// Rebuilds A after a skipped pivot: only the closed diagonal changed.
RddPtr<BlockRecord> RebuildSkipped(sparklet::SparkletContext& ctx,
                                   RddPtr<BlockRecord> a,
                                   RddPtr<BlockRecord> diag,
                                   sparklet::PartitionerPtr<BlockKey> part,
                                   std::int64_t t, const std::string& prefix) {
  auto rest = a->Filter(prefix + "-rest",
                        [t](const BlockRecord& rec) {
                          return !OnDiagonal(rec.first, t);
                        });
  auto rebuilt = sparklet::PartitionBy(
                     ctx.Union(prefix + "-skip-union", {diag, rest}), part,
                     prefix + "-skip-repartition")
                     ->Persist();
  rebuilt->EnsureMaterialized();
  a->Unpersist();
  return rebuilt;
}

/// One pivot of the staged-storage (impure) sweep. `skip` = early exit.
void RunStagedPivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                    std::int64_t t, const StagingKeys& keys,
                    sparklet::PartitionerPtr<BlockKey> block_part,
                    RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                    bool skip) {
  const bool directed = layout.directed();

  // --- Phase 1: close the pivot diagonal and stage it.
  auto diag = a->Filter("ks-diag",
                        [t](const BlockRecord& rec) {
                          return OnDiagonal(rec.first, t);
                        })
                  ->Map("ks-fw",
                        [](const BlockRecord& rec, TaskContext& tc) {
                          return BlockRecord{rec.first,
                                             FloydWarshall(rec.second, tc)};
                        });
  for (const auto& [key, block] : diag->Collect()) {
    staging::StageBlock(ctx, keys.Diag(t), block);
  }

  // --- Pivot panel: P_t = min(F_t, A*_tt (min,+) F_t), staged for the
  // frontier sweep below.
  auto pivot_panel =
      f->Filter("ks-pivot",
                [t](const PanelRecord& rec) { return rec.first == t; })
          ->Map("ks-pivot-update",
                [t, keys](const PanelRecord& rec, TaskContext& tc) {
                  BlockCache cache;
                  BlockRef d = ReadStagedBlock(cache, keys.Diag(t), tc);
                  return PanelRecord{
                      rec.first, MinPlusRect(rec.second, d, rec.second, tc)};
                });
  for (const auto& [idx, panel] : pivot_panel->Collect()) {
    staging::StageBlock(ctx, keys.Panel(t), panel);
  }

  if (skip) {
    // Early exit: the cross is all-infinite, so phases 2/3 and the frontier
    // factor sweep are no-ops. Only panel t changed (through the closed
    // diagonal) and only the diagonal block of A changed.
    auto f_prev = f;
    f = f->Map("ks-frontier-skip",
               [t, keys](const PanelRecord& rec, TaskContext& tc) {
                 if (rec.first != t) return rec;
                 BlockCache cache;
                 return PanelRecord{
                     t, ReadStagedBlock(cache, keys.Panel(t), tc)};
               })
            ->Persist();
    f->EnsureMaterialized();
    f_prev->Unpersist();
    a = RebuildSkipped(ctx, a, diag, block_part, t, "ks");
    return;
  }

  // --- Phase 2: update the column/row cross of the matrix against the
  // staged diagonal and stage the oriented factors (Alg. 4 lines 5-7).
  auto rowcol =
      a->Filter("ks-rowcol",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t) &&
                         !OnDiagonal(rec.first, t);
                })
          ->MapPartitions<BlockRecord>(
              "ks-phase2",
              [t, keys](std::vector<BlockRecord>&& part, TaskContext& tc) {
                // Staged reads and charges stay sequential (TaskContext
                // is driver-thread state); the independent block updates
                // then run as one stealable intra-task batch.
                BlockCache cache;
                std::vector<FusedTriple> updates;
                updates.reserve(part.size());
                for (const auto& [key, block] : part) {
                  BlockRef d = ReadStagedBlock(cache, keys.Diag(t), tc);
                  updates.push_back(key.J == t
                                        ? FusedTriple{block, block, d}
                                        : FusedTriple{block, d, block});
                }
                auto blocks = MinPlusIntoBatch(std::move(updates), tc);
                std::vector<BlockRecord> out;
                out.reserve(part.size());
                for (std::size_t r = 0; r < part.size(); ++r) {
                  out.push_back({part[r].first, std::move(blocks[r])});
                }
                return out;
              });
  // The pivot owns one transpose memo shared by its phase-3 tasks (see
  // the Collect/Broadcast solver).
  auto transposes = std::make_shared<TransposeMemo>();
  staging::StageCrossFactors(ctx, keys, t, rowcol->Collect(), directed,
                             *transposes);

  // --- Phase 3: remaining matrix blocks through the staged factors.
  auto offcol =
      a->Filter("ks-offcol",
                [&layout, t](const BlockRecord& rec) {
                  return !layout.InCross(rec.first, t);
                })
          ->MapPartitions<BlockRecord>(
              "ks-phase3",
              [t, directed, keys, transposes](
                  std::vector<BlockRecord>&& part, TaskContext& tc) {
                BlockCache cache;
                std::vector<FusedTriple> updates;
                updates.reserve(part.size());
                for (const auto& [key, block] : part) {
                  auto [left, right] = ReadPhase3Factors(
                      keys, cache, *transposes, t, key, directed, tc);
                  updates.push_back({block, left, right});
                }
                auto blocks = MinPlusIntoBatch(std::move(updates), tc);
                std::vector<BlockRecord> out;
                out.reserve(part.size());
                for (std::size_t r = 0; r < part.size(); ++r) {
                  out.push_back({part[r].first, std::move(blocks[r])});
                }
                return out;
              });

  // --- Frontier sweep: every panel through the pivot's column factors.
  // F_I = min(F_I, A_It (min,+) P_t); the pivot panel becomes P_t.
  auto f_prev = f;
  f = f->MapPartitions<PanelRecord>(
           "ks-frontier",
           [t, keys](std::vector<PanelRecord>&& part, TaskContext& tc) {
             BlockCache cache;
             std::vector<PanelRecord> out(part.size());
             std::vector<FusedTriple> updates;
             std::vector<std::size_t> slots;
             updates.reserve(part.size());
             slots.reserve(part.size());
             for (std::size_t r = 0; r < part.size(); ++r) {
               const auto& [idx, panel] = part[r];
               if (idx == t) {
                 out[r] = {idx,
                           ReadStagedBlock(cache, keys.Panel(t), tc)};
                 continue;
               }
               BlockRef left =
                   ReadStagedBlock(cache, keys.Left(t, idx), tc);
               BlockRef pivot =
                   ReadStagedBlock(cache, keys.Panel(t), tc);
               updates.push_back({panel, left, pivot});
               slots.push_back(r);
             }
             auto panels = MinPlusRectBatch(std::move(updates), tc);
             for (std::size_t p = 0; p < slots.size(); ++p) {
               out[slots[p]] = {part[slots[p]].first,
                                std::move(panels[p])};
             }
             return out;
           })
          ->Persist();
  f->EnsureMaterialized();
  f_prev->Unpersist();

  // --- Rebuild A for the next pivot (Alg. 4 lines 11-12).
  auto a_prev = a;
  a = sparklet::PartitionBy(
          ctx.Union("ks-union", {diag, rowcol, offcol}), block_part,
          "ks-repartition")
          ->Persist();
  a->EnsureMaterialized();
  a_prev->Unpersist();
  transposes->Clear();
}

/// One pivot of the pure shuffle-replicated sweep: the matrix phases run the
/// Blocked In-Memory combine steps, and the frontier factors replicate
/// through the shuffle (no shared-storage side channel). `skip` = early exit.
void RunShufflePivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                     std::int64_t t,
                     sparklet::PartitionerPtr<BlockKey> block_part,
                     sparklet::PartitionerPtr<std::int64_t> panel_part,
                     RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                     bool skip) {
  const std::int64_t q = layout.q();

  // --- Phase 1: close the pivot diagonal (narrow map; stays in lineage).
  auto diag = a->Filter("ksp-diag",
                        [t](const BlockRecord& rec) {
                          return OnDiagonal(rec.first, t);
                        })
                  ->Map("ksp-fw",
                        [](const BlockRecord& rec, TaskContext& tc) {
                          return BlockRecord{rec.first,
                                             FloydWarshall(rec.second, tc)};
                        });

  // --- Frontier round A: pair the closed diagonal with panel t through the
  // shuffle and form the pivot panel P_t = min(F_t, A*_tt (min,+) F_t).
  auto diag_to_panel = diag->Map(
      "ksp-diag-to-panel",
      [t](const BlockRecord& rec, TaskContext&) -> TaggedPanelRecord {
        return {t, {BlockRole::kDiag, rec.second}};
      });
  auto f_tagged =
      f->Map("ksp-f-tag",
             [](const PanelRecord& rec, TaskContext&) -> TaggedPanelRecord {
               return {rec.first, {BlockRole::kOriginal, rec.second}};
             });
  auto round_a = GatherLists(
      ctx.Union("ksp-round-a-union", {diag_to_panel, f_tagged}), panel_part,
      "ksp-round-a-combine");
  auto f_a = round_a
                 ->MapPartitions<PanelRecord>(
                     "ksp-pivot-update",
                     [](std::vector<PanelListRecord>&& part, TaskContext& tc) {
                       std::vector<PanelRecord> out;
                       out.reserve(part.size());
                       for (auto& [idx, list] : part) {
                         const BlockRef* panel =
                             FindRole(list, BlockRole::kOriginal);
                         if (panel == nullptr) {
                           throw std::logic_error(
                               "ksp round A: missing frontier panel");
                         }
                         const BlockRef* d = FindRole(list, BlockRole::kDiag);
                         out.push_back(
                             {idx, d == nullptr
                                       ? *panel
                                       : MinPlusRect(*panel, *d, *panel, tc)});
                       }
                       return out;
                     })
                 ->Persist();
  f_a->EnsureMaterialized();

  if (skip) {
    auto f_prev = f;
    f = f_a;
    f_prev->Unpersist();
    a = RebuildSkipped(ctx, a, diag, block_part, t, "ksp");
    return;
  }

  // --- Matrix phase 2 (Alg. 3 lines 6-10): diagonal copies meet the cross.
  auto diag_copies = diag->FlatMap<TaggedRecord>(
      "ksp-copydiag",
      [&layout, t](const BlockRecord& rec, TaskContext&,
                   std::vector<TaggedRecord>& out) {
        CopyDiag(layout, t, rec.second, out);
      });
  auto d0 = sparklet::PartitionBy(diag_copies, block_part, "ksp-copydiag-by");
  auto rowcol = TagOriginals(
      a->Filter("ksp-rowcol",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t);
                }),
      "ksp-rowcol-tag");
  auto paired = GatherLists(ctx.Union("ksp-phase2-union", {d0, rowcol}),
                                 block_part, "ksp-phase2-combine");
  auto updated_cross =
      paired
          ->MapPartitions<BlockRecord>(
              "ksp-phase2-unpack",
              [&layout, t](std::vector<ListRecord>&& part, TaskContext& tc) {
                return Phase2UnpackBatch(layout, t, std::move(part), tc);
              })
          ->Persist();  // consumed by CopyCol *and* the frontier factors
  updated_cross->EnsureMaterialized();

  // --- Matrix phase 3 (lines 12-15).
  auto cross_copies = updated_cross->FlatMap<TaggedRecord>(
      "ksp-copycol",
      [&layout, t](const BlockRecord& rec, TaskContext& tc,
                   std::vector<TaggedRecord>& out) {
        CopyCol(layout, t, rec, out, tc);
      });
  auto d = sparklet::PartitionBy(cross_copies, block_part, "ksp-copycol-by");
  auto rest = TagOriginals(
      a->Filter("ksp-offcol",
                [&layout, t](const BlockRecord& rec) {
                  return !layout.InCross(rec.first, t);
                }),
      "ksp-offcol-tag");
  auto phase3 = GatherLists(ctx.Union("ksp-phase3-union", {rest, d}),
                                 block_part, "ksp-phase3-combine");
  auto updated = phase3->MapPartitions<BlockRecord>(
      "ksp-phase3-unpack",
      [&layout, t](std::vector<ListRecord>&& part, TaskContext& tc) {
        return Phase3UnpackBatch(layout, t, std::move(part), tc);
      });

  // --- Frontier round B: replicate the per-panel left factors A_It (from
  // the phase-2-updated cross) and the pivot panel P_t to every panel, then
  // fold: F_I = min(F_I, A_It (min,+) P_t). All replicas are refs — the
  // shuffle moves modelled bytes, never payload copies.
  auto factor_copies = updated_cross->FlatMap<TaggedPanelRecord>(
      "ksp-factor-copies",
      [&layout, t](const BlockRecord& rec, TaskContext& tc,
                   std::vector<TaggedPanelRecord>& out) {
        const auto& [key, block] = rec;
        if (OnDiagonal(key, t)) return;  // panel t was handled in round A
        if (key.J == t) {
          out.push_back({key.I, {BlockRole::kRow, block}});  // A_xt stored
        } else if (!layout.directed()) {
          // Canonical (t, x) serves A_xt by transposition (executor-side,
          // like the paper's on-demand A_JI).
          out.push_back({key.J, {BlockRole::kRow, Transpose(block, tc)}});
        }
        // Directed row blocks (t, x) are right factors only; the frontier
        // needs just the left side.
      });
  auto pivot_copies =
      f_a->Filter("ksp-pivot-sel",
                  [t](const PanelRecord& rec) { return rec.first == t; })
          ->FlatMap<TaggedPanelRecord>(
              "ksp-pivot-bcast",
              [q, t](const PanelRecord& rec, TaskContext&,
                     std::vector<TaggedPanelRecord>& out) {
                for (std::int64_t i = 0; i < q; ++i) {
                  if (i == t) continue;
                  out.push_back({i, {BlockRole::kCol, rec.second}});
                }
              });
  auto fa_tagged = f_a->Map(
      "ksp-fa-tag",
      [](const PanelRecord& rec, TaskContext&) -> TaggedPanelRecord {
        return {rec.first, {BlockRole::kOriginal, rec.second}};
      });
  auto round_b = GatherLists(
      ctx.Union("ksp-round-b-union", {fa_tagged, pivot_copies, factor_copies}),
      panel_part, "ksp-round-b-combine");
  auto f_b =
      round_b
          ->MapPartitions<PanelRecord>(
              "ksp-frontier-update",
              [t](std::vector<PanelListRecord>&& part, TaskContext& tc) {
                std::vector<PanelRecord> out(part.size());
                std::vector<FusedTriple> updates;
                std::vector<std::size_t> slots;
                updates.reserve(part.size());
                slots.reserve(part.size());
                for (std::size_t r = 0; r < part.size(); ++r) {
                  auto& [idx, list] = part[r];
                  const BlockRef* panel =
                      FindRole(list, BlockRole::kOriginal);
                  if (panel == nullptr) {
                    throw std::logic_error(
                        "ksp round B: missing frontier panel");
                  }
                  if (idx == t) {
                    out[r] = {idx, *panel};  // P_t passes through unchanged
                    continue;
                  }
                  const BlockRef* left = FindRole(list, BlockRole::kRow);
                  const BlockRef* pivot = FindRole(list, BlockRole::kCol);
                  if (left == nullptr || pivot == nullptr) {
                    // Every non-pivot panel receives exactly one A_It and
                    // one P_t replica by construction; a silent passthrough
                    // here would return wrong distances with status OK.
                    throw std::logic_error(
                        "ksp round B: missing factor for panel " +
                        std::to_string(idx));
                  }
                  updates.push_back({*panel, *left, *pivot});
                  slots.push_back(r);
                }
                auto panels = MinPlusRectBatch(std::move(updates), tc);
                for (std::size_t p = 0; p < slots.size(); ++p) {
                  out[slots[p]] = {part[slots[p]].first,
                                   std::move(panels[p])};
                }
                return out;
              })
          ->Persist();
  f_b->EnsureMaterialized();
  auto f_prev = f;
  f = f_b;
  f_prev->Unpersist();
  f_a->Unpersist();

  // --- Rebuild A for the next pivot (line 15's explicit partitionBy).
  auto a_prev = a;
  a = sparklet::PartitionBy(updated, block_part, "ksp-repartition")
          ->Persist();
  a->EnsureMaterialized();
  a_prev->Unpersist();
  updated_cross->Unpersist();
}

}  // namespace

KsourceResult KsourceBlockedSolver::Solve(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const std::vector<BlockRecord>& blocks,
    const std::vector<PanelRecord>& frontier, const KsourceOptions& opts) {
  // Host kernel selection for this run, exactly like SolveBlocks.
  linalg::ScopedKernelVariant kernel_scope(ctx.config().kernel_variant);
  // Pin the run's algebra: the fused rectangular updates and closures this
  // sweep reaches all evaluate opts.semiring.
  linalg::ScopedSemiring semiring_scope(opts.semiring);
  KsourceResult result;
  const std::int64_t q = layout.q();
  result.rounds_total = q;
  const std::int64_t rounds_to_run =
      opts.max_rounds > 0 ? std::min(opts.max_rounds, q) : q;

  const int num_partitions =
      std::max(1, opts.partitions_per_core * ctx.config().total_cores());
  auto block_part =
      MakeBlockPartitioner(opts.partitioner, layout, num_partitions);
  auto panel_part = sparklet::MakePortableHash<std::int64_t>(
      std::min<int>(num_partitions, static_cast<int>(q)));

  auto a = ctx.ParallelizePartitioned("ksA", blocks, block_part);
  auto f = ctx.ParallelizePartitioned("ksF", frontier, panel_part);
  // Populating the RDDs is free, consistent with the APSP solvers.
  ctx.cluster().Reset();
  ArmRunPlan(ctx, opts);
  const StagingKeys keys("ks");

  // Real-data full sweeps end with the driver assembling the n x k panel;
  // the collect runs inside the attempt loop so an executor loss firing
  // during assembly goes through the same recovery as one mid-sweep.
  const bool phantom =
      !frontier.empty() && frontier.front().second->is_phantom();
  const bool want_assembly = !phantom && rounds_to_run == q;

  std::vector<PanelRecord> assembled;
  std::int64_t first = 0;
  int restarts = 0;
  for (;;) {
    try {
      for (std::int64_t t = first; t < rounds_to_run; ++t) {
        RoundSpanScope round_span(ctx.cluster(), t);
        const bool skip = opts.early_exit_infinite &&
                          PivotCrossAllZero(a, layout, t, opts.semiring);
        if (opts.variant == KsourceVariant::kShuffleReplicated) {
          RunShufflePivot(ctx, layout, t, block_part, panel_part, a, f, skip);
        } else {
          RunStagedPivot(ctx, layout, t, keys, block_part, a, f, skip);
        }
        result.rounds_executed = t + 1;
        if (opts.checkpoint_every > 0 &&
            (t + 1) % opts.checkpoint_every == 0) {
          SaveCheckpoint(ctx, layout, a->Collect(), t + 1, f->Collect());
        }
      }
      // Timing and metrics stay pivots-only (the projection methodology);
      // the assembly collect below is excluded — except its memory high
      // water (the pure variant's only driver-resident spike) and any
      // failure/recovery evidence, both folded in after the collect. The
      // collect still runs in this try block so an executor loss firing
      // during assembly recovers like any other.
      result.sim_seconds = ctx.now_seconds();
      result.metrics = ctx.metrics();
      if (want_assembly) {
        assembled = f->Collect();
        result.metrics.driver_peak_bytes = ctx.metrics().driver_peak_bytes;
        result.metrics.node_peak_bytes = ctx.metrics().node_peak_bytes;
        FoldRecoveryMetrics(ctx.metrics(), result.metrics);
      }
      result.status = Status::Ok();
      break;
    } catch (const SparkletAbort& abort) {
      // The pure shuffle variant recovers in place and never raises the one
      // restartable abort (DATA_LOSS); the staged plane restarts from the
      // latest checkpoint epoch or from the stable inputs.
      auto resume = RestartOnDataLoss(
          ctx, layout, opts, abort.status(), restarts, /*fallback_round=*/0,
          [&](const CheckpointInfo* info, const std::string& tag) {
            a = ctx.ParallelizePartitioned(
                "ksA" + tag, info != nullptr ? info->blocks : blocks,
                block_part);
            f = ctx.ParallelizePartitioned(
                "ksF" + tag, info != nullptr ? info->panels : frontier,
                panel_part);
          });
      if (!resume.ok()) {
        result.status = resume.status();
        break;
      }
      first = *resume;
    }
  }

  if (!result.status.ok()) {
    result.sim_seconds = ctx.now_seconds();
    result.metrics = ctx.metrics();
  }
  if (result.rounds_executed > 0) {
    result.projected_seconds =
        result.sim_seconds * static_cast<double>(q) /
        static_cast<double>(result.rounds_executed);
  }

  if (result.status.ok() && want_assembly) {
    const std::int64_t k =
        assembled.empty() ? 0 : assembled.front().second->cols();
    // Every row is pasted below; fill with the semiring Zero anyway so a
    // would-be gap reads as "unreachable", not as a min-plus artifact.
    DenseBlock out(layout.n(), k, linalg::SemiringZeroValue(opts.semiring));
    for (const auto& [idx, panel] : assembled) {
      out.PasteRowPanel(idx * layout.block_size(), *panel);
    }
    result.distances = std::move(out);
  }
  return result;
}

}  // namespace apspark::apsp
