// Blocked Collect/Broadcast APSP (paper Algorithm 4).
//
// A redesign of Blocked In-Memory that bypasses the CopyDiag/CopyCol data
// shuffling: the closed diagonal block and the updated column/row cross
// blocks are collected on the driver and redistributed to executors through
// shared persistent storage; Phase 2 and Phase 3 become narrow MinPlus maps
// whose second operand is read (and cached per task) from that storage.
//
// Impure — the storage side channel is not covered by lineage — but it is
// the paper's best-performing solver: per iteration, only the final
// union + partitionBy shuffles data, so local-storage spill stays within
// bounds where Blocked In-Memory overflows.
#include "apsp/solvers/rounds.h"

#include <memory>

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "apsp/solvers/staging.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadPhase3Factors;
using staging::ReadStagedBlock;
using staging::StagingKeys;

RddPtr<BlockRecord> RunRoundsBlockedCollectBroadcast(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  RddPtr<BlockRecord> current = std::move(a);
  const bool directed = layout.directed();
  const std::int64_t first = opts.start_round;
  const StagingKeys keys("cb");

  for (std::int64_t i = first; i < first + rounds_to_run; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    // --- Phase 1 (Alg. 4 lines 2-3): close the diagonal block, bring it to
    // the driver, and redistribute via shared persistent storage.
    auto diag = current
                    ->Filter("cb-diag",
                             [i](const BlockRecord& rec) {
                               return OnDiagonal(rec.first, i);
                             })
                    ->Map("cb-fw", [](const BlockRecord& rec, TaskContext& tc) {
                      return BlockRecord{rec.first,
                                         FloydWarshall(rec.second, tc)};
                    });
    for (const auto& [key, block] : diag->Collect()) {
      staging::StageBlock(ctx, keys.Diag(i), block);
    }

    // --- Phase 2 (line 5): update the cross blocks against the staged
    // diagonal (MinPlus with the second argument from Spark storage).
    auto rowcol = current
                      ->Filter("cb-rowcol",
                               [&layout, i](const BlockRecord& rec) {
                                 return layout.InCross(rec.first, i) &&
                                        !OnDiagonal(rec.first, i);
                               })
                      ->MapPartitions<BlockRecord>(
                          "cb-phase2",
                          [i, keys](std::vector<BlockRecord>&& part,
                                    TaskContext& tc) {
                            // One task's independent cross updates become one
                            // stealable batch; the fused form charges exactly
                            // the MatProd + MatMin pair it replaces.
                            BlockCache cache;
                            std::vector<FusedTriple> updates;
                            updates.reserve(part.size());
                            for (const auto& [key, block] : part) {
                              BlockRef d =
                                  ReadStagedBlock(cache, keys.Diag(i), tc);
                              updates.push_back(
                                  key.J == i ? FusedTriple{block, block, d}
                                             : FusedTriple{block, d, block});
                            }
                            auto blocks =
                                MinPlusIntoBatch(std::move(updates), tc);
                            std::vector<BlockRecord> out;
                            out.reserve(part.size());
                            for (std::size_t r = 0; r < part.size(); ++r) {
                              out.push_back(
                                  {part[r].first, std::move(blocks[r])});
                            }
                            return out;
                          });

    // Lines 6-7: collect the updated cross and stage the oriented factors.
    // The round owns one transpose memo: its phase-3 tasks re-derive the
    // same few right factors, and the host work is done once per payload.
    auto transposes = std::make_shared<TransposeMemo>();
    staging::StageCrossFactors(ctx, keys, i, rowcol->Collect(), directed,
                               *transposes);

    // --- Phase 3 (line 9): update every remaining block against the staged
    // factors: A_UV = min(A_UV, A_Ui (min,+) A_iV).
    auto offcol =
        current
            ->Filter("cb-offcol",
                     [&layout, i](const BlockRecord& rec) {
                       return !layout.InCross(rec.first, i);
                     })
            ->MapPartitions<BlockRecord>(
                "cb-phase3",
                [i, directed, keys, transposes](
                    std::vector<BlockRecord>&& part, TaskContext& tc) {
                  BlockCache cache;
                  std::vector<FusedTriple> updates;
                  updates.reserve(part.size());
                  for (const auto& [key, block] : part) {
                    auto [left, right] = ReadPhase3Factors(
                        keys, cache, *transposes, i, key, directed, tc);
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

    // Lines 11-12: rebuild A and repartition to the intended layout.
    auto prev = current;
    current = sparklet::PartitionBy(
                  ctx.Union("cb-union", {diag, rowcol, offcol}), partitioner,
                  "cb-repartition")
                  ->Persist();
    current->EnsureMaterialized();
    prev->Unpersist();
    // The lineage keeps the phase-3 closure (and with it the memo) alive;
    // a later recomputation simply transposes again.
    transposes->Clear();

    // Optional durability extension (see apsp/checkpoint.h): stage A so a
    // restarted job resumes here instead of from scratch.
    if (opts.checkpoint_every > 0 && (i + 1) % opts.checkpoint_every == 0) {
      SaveCheckpoint(ctx, layout, current->Collect(), i + 1);
    }
  }
  return current;
}

}  // namespace apspark::apsp
