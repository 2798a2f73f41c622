// Batched k-source shortest paths (KSSP): the round runner SolveBlocks
// dispatches to for a k-source request.
//
// The paper's building blocks solve APSP; the same blocked min-plus algebra
// solves the far more common k-source problem as a rectangular n x k
// frontier F, F(v, j) = dist(sources[j] -> v). The sweep runs the blocked
// Floyd-Warshall pivots of A and, per pivot t, folds the pivot's column
// factors into a *resident* frontier with two rectangular updates:
//
//   P_t  = min(F_t, A*_tt (min,+) F_t)        (pivot panel through the
//                                              closed diagonal)
//   F_I  = min(F_I, A_It  (min,+) P_t)        (every panel through the
//                                              phase-2-updated column cross)
//
// Invariant (same induction as blocked FW): after pivot t, F(v, j) is the
// shortest v -> sources[j] distance using intermediates from block rows
// 0..t; after the last pivot F = A* (min,+) F_0 exactly. Solve sweeps
// directed inputs on the transposed adjacency so columns come out
// source-rooted.
//
// The request's SolverKind picks one of two data planes, and the matrix
// phases of each pivot are that plane's own pivot functions (declared in
// solvers/rounds.h), the ones its APSP round loop calls; this file holds
// only the frontier work in between:
//
//   kBlockedCollectBroadcast ("staged") — like Alg. 4, impure:
//   StageDiagonal stages the closed diagonal, the pivot panel is staged next
//   to it, StageCrossAndRebuild stages the column factors, and the frontier
//   sweep reads both back from shared persistent storage.
//
//   kBlockedInMemory ("shuffle") — *pure*: no shared-storage side channel
//   at all. CloseDiagonal, ShuffleUpdateCross and ShuffleUpdateRest run the
//   Blocked In-Memory combine steps, and the frontier factors replicate
//   through the shuffle too: round A pairs the closed diagonal with panel t
//   to form P_t, round B scatters P_t plus the per-panel left factors A_It
//   (from the updated cross, persisted for it) to every panel and folds
//   them in with one rectangular update. Fault-tolerant by
//   construction (everything stays in the RDD lineage) at the price of
//   shuffling the replicas — with the zero-copy record plane, the replicas
//   are refs, so the driver's live-byte high water stays at the final panel
//   collect instead of a full cross per pivot (see MemoryAccountant).
//
// Early-exit pivot sweep (ApspOptions::early_exit_infinite): when a pivot's
// cross (every stored off-diagonal block of block row/column t) is entirely
// the semiring's annihilator — all-infinite under (min, +), routine for
// disconnected or inf-heavy graphs — phases 2/3 and the frontier factor
// sweep are provably no-ops and are skipped; only the diagonal closure and
// the pivot-panel update run. Detection scans the cross blocks through the
// semiring's IsZero (charged like the element-wise kernel it is) and never
// fires for phantom blocks, whose structure is unknown.
#include <stdexcept>
#include <string>
#include <utility>

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "apsp/combine_steps.h"
#include "apsp/solvers/rounds.h"
#include "apsp/solvers/staging.h"
#include "linalg/semiring.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadStagedBlock;
using staging::StagingKeys;

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
/// Releases `diag` (cached on the staged plane) once A is materialized.
void RebuildSkipped(sparklet::SparkletContext& ctx, RddPtr<BlockRecord>& a,
                    const RddPtr<BlockRecord>& diag,
                    const sparklet::PartitionerPtr<BlockKey>& part,
                    std::int64_t t, const std::string& prefix) {
  auto rest = a->Filter(prefix + "-rest", [t](const BlockRecord& rec) {
    return !OnDiagonal(rec.first, t);
  });
  Advance(a, sparklet::PartitionBy(
                 ctx.Union(prefix + "-skip-union", {diag, rest}), part,
                 prefix + "-skip-repartition")
                 ->Persist());
  diag->Unpersist();
}

/// One pivot of the staged-storage (impure) sweep. `skip` = early exit.
void RunStagedPivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                    std::int64_t t,
                    const sparklet::PartitionerPtr<BlockKey>& block_part,
                    RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                    bool skip) {
  const StagingKeys keys("ks");
  auto diag = StageDiagonal(ctx, a, t, "ks");

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
    ctx.DriverWriteSharedBlock(keys.Panel(t), panel);
  }

  if (skip) {
    // Early exit: the cross is all-infinite, so phases 2/3 and the frontier
    // factor sweep are no-ops. Only panel t changed (through the closed
    // diagonal) and only the diagonal block of A changed.
    Advance(f, f->Map("ks-frontier-skip",
                      [t, keys](const PanelRecord& rec, TaskContext& tc) {
                        if (rec.first != t) return rec;
                        BlockCache cache;
                        return PanelRecord{
                            t, ReadStagedBlock(cache, keys.Panel(t), tc)};
                      })
                   ->Persist());
    RebuildSkipped(ctx, a, diag, block_part, t, "ks");
    return;
  }

  // --- Matrix phases 2 and 3: the staged factors A_It double as the
  // frontier sweep's left factors.
  StagedRebuild rebuilt =
      StageCrossAndRebuild(ctx, layout, a, diag, t, block_part, "ks");

  // --- Frontier sweep: every panel through the pivot's column factors.
  // F_I = min(F_I, A_It (min,+) P_t); the pivot panel becomes P_t.
  Advance(
      f,
      f->MapPartitions<PanelRecord>(
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
                 out[r] = {idx, ReadStagedBlock(cache, keys.Panel(t), tc)};
                 continue;
               }
               BlockRef left = ReadStagedBlock(cache, keys.Left(t, idx), tc);
               BlockRef pivot = ReadStagedBlock(cache, keys.Panel(t), tc);
               updates.push_back({panel, left, pivot});
               slots.push_back(r);
             }
             auto panels = MinPlusRectBatch(std::move(updates), tc);
             for (std::size_t p = 0; p < slots.size(); ++p) {
               out[slots[p]] = {part[slots[p]].first, std::move(panels[p])};
             }
             return out;
           })
          ->Persist());

  Advance(a, rebuilt.a);
  diag->Unpersist();
  rebuilt.cross->Unpersist();
  rebuilt.transposes->Clear();
}

/// One pivot of the pure shuffle-replicated sweep: the matrix phases run the
/// Blocked In-Memory combine steps, and the frontier factors replicate
/// through the shuffle (no shared-storage side channel). `skip` = early exit.
void RunShufflePivot(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                     std::int64_t t,
                     const sparklet::PartitionerPtr<BlockKey>& block_part,
                     const sparklet::PartitionerPtr<std::int64_t>& panel_part,
                     RddPtr<BlockRecord>& a, RddPtr<PanelRecord>& f,
                     bool skip) {
  const std::int64_t q = layout.q();
  // Phase 1 stays in lineage: a narrow map.
  auto diag = CloseDiagonal(a, t, "ksp");

  // --- Frontier round A: pair the closed diagonal with panel t through the
  // shuffle and form the pivot panel P_t = min(F_t, A*_tt (min,+) F_t).
  auto diag_to_panel = diag->Map(
      "ksp-diag-to-panel",
      [t](const BlockRecord& rec, TaskContext&) -> TaggedPanelRecord {
        return {t, {BlockRole::kDiag, rec.second}};
      });
  auto round_a = GatherLists(
      ctx.Union("ksp-round-a-union",
                {diag_to_panel, TagOriginals(f, "ksp-f-tag")}),
      panel_part, "ksp-round-a-combine");
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
    Advance(f, f_a);
    RebuildSkipped(ctx, a, diag, block_part, t, "ksp");
    return;
  }

  // --- Matrix phases 2 and 3. The updated cross is persisted: CopyCol and
  // the frontier factors below both consume it.
  auto updated_cross =
      ShuffleUpdateCross(ctx, layout, a, diag, t, block_part, "ksp")
          ->Persist();
  updated_cross->EnsureMaterialized();
  auto rebuilt =
      ShuffleUpdateRest(ctx, layout, a, updated_cross, t, block_part, "ksp");

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
  auto round_b =
      GatherLists(ctx.Union("ksp-round-b-union",
                            {TagOriginals(f_a, "ksp-fa-tag"), pivot_copies,
                             factor_copies}),
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
  Advance(f, f_b);
  f_a->Unpersist();
  Advance(a, rebuilt);
  updated_cross->Unpersist();
}

}  // namespace

RddPtr<BlockRecord> RunRoundsKsource(
    SolverKind kind, sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    RddPtr<PanelRecord>& f,
    sparklet::PartitionerPtr<std::int64_t> panel_partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  const std::int64_t first = opts.start_round;
  for (std::int64_t t = first; t < first + rounds_to_run; ++t) {
    RoundSpanScope round_span(ctx.cluster(), t);
    const bool skip = opts.early_exit_infinite &&
                      PivotCrossAllZero(a, layout, t, opts.semiring);
    if (kind == SolverKind::kBlockedInMemory) {
      RunShufflePivot(ctx, layout, t, partitioner, panel_partitioner, a, f,
                      skip);
    } else {
      RunStagedPivot(ctx, layout, t, partitioner, a, f, skip);
    }
    if (opts.checkpoint_every > 0 && (t + 1) % opts.checkpoint_every == 0) {
      SaveCheckpoint(ctx, layout, a->Collect(), t + 1, f->Collect());
    }
  }
  return a;
}

}  // namespace apspark::apsp
