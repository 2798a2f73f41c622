// Blocked Collect/Broadcast APSP (paper Algorithm 4), and the staged pivot
// functions StageDiagonal / StageCrossAndRebuild that its round loop and the
// staged k-source sweep both call.
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
#include <memory>
#include <utility>

#include "apsp/checkpoint.h"
#include "apsp/solvers/rounds.h"
#include "apsp/solvers/staging.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;
using staging::BlockCache;
using staging::ReadStagedBlock;
using staging::StagingKeys;

namespace {

/// Stages the oriented phase-3 factors of pivot t from the collected,
/// phase-2-updated cross blocks (diagonal excluded): stored (x, t) provides
/// the left factor A_xt, stored (t, x) the right factor A_tx. Undirected
/// storage keeps only the canonical block, so the missing left side is
/// derived by transposition (driver-side, like the paper's on-demand A_JI).
/// Phase 3 needs the transpose of every undirected cross block (of a left
/// factor, or the left factor itself), so the round's `transposes` memo
/// computes them all here as one host batch; phase-3 tasks only read it.
void StageCrossFactors(sparklet::SparkletContext& ctx, const StagingKeys& keys,
                       std::int64_t t, const std::vector<BlockRecord>& cross,
                       bool directed, TransposeMemo& transposes) {
  if (!directed) {
    std::vector<BlockRef> blocks;
    blocks.reserve(cross.size());
    for (const auto& record : cross) blocks.push_back(record.second);
    transposes.Prefill(blocks);
  }
  for (const auto& [key, block] : cross) {
    const std::int64_t x = key.I == t ? key.J : key.I;
    if (key.J == t) {
      ctx.DriverWriteSharedBlock(keys.Left(t, x), block);
      if (!directed) continue;
    } else {
      ctx.DriverWriteSharedBlock(keys.Right(t, x), block);
      if (!directed) {
        ctx.DriverWriteSharedBlock(keys.Left(t, x), transposes.Get(block));
      }
    }
  }
}

/// Reads the (left, right) = (A_Ut, A_tV) factor pair a phase-3 update of
/// target `key` needs. Undirected layouts stage only left factors beyond
/// the canonical cross, so the right side is reconstructed by transposing
/// the left factor of key.J (cached under the right key, charged like any
/// transpose). The host transpose itself comes from the round's
/// `transposes` memo, which StageCrossFactors filled.
std::pair<BlockRef, BlockRef> ReadPhase3Factors(
    const StagingKeys& keys, BlockCache& cache, TransposeMemo& transposes,
    std::int64_t t, const BlockKey& key, bool directed, TaskContext& tc) {
  BlockRef left = ReadStagedBlock(cache, keys.Left(t, key.I), tc);
  if (directed) {
    return {left, ReadStagedBlock(cache, keys.Right(t, key.J), tc)};
  }
  const std::string tkey = keys.Right(t, key.J);
  auto it = cache.find(tkey);
  if (it != cache.end()) return {left, it->second};
  BlockRef right = Transpose(ReadStagedBlock(cache, keys.Left(t, key.J), tc),
                             tc, transposes);
  cache.emplace(tkey, right);
  return {left, right};
}

/// One task's block updates: `plan(key, block)` gives each record's fused
/// update, then the independent updates run as one stealable batch and keep
/// their records' keys.
template <typename Plan>
std::vector<BlockRecord> UpdateEach(std::vector<BlockRecord>&& part,
                                    TaskContext& tc, Plan plan) {
  std::vector<FusedTriple> updates;
  updates.reserve(part.size());
  for (const auto& [key, block] : part) updates.push_back(plan(key, block));
  auto blocks = MinPlusIntoBatch(std::move(updates), tc);
  for (std::size_t r = 0; r < part.size(); ++r) {
    part[r].second = std::move(blocks[r]);
  }
  return std::move(part);
}

}  // namespace

RddPtr<BlockRecord> StageDiagonal(sparklet::SparkletContext& ctx,
                                  const RddPtr<BlockRecord>& a, std::int64_t t,
                                  const std::string& prefix) {
  auto diag = CloseDiagonal(a, t, prefix)->Persist();
  for (const auto& [key, block] : diag->Collect()) {
    ctx.DriverWriteSharedBlock(StagingKeys(prefix).Diag(t), block);
  }
  return diag;
}

StagedRebuild StageCrossAndRebuild(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const RddPtr<BlockRecord>& a, const RddPtr<BlockRecord>& diag,
    std::int64_t t, const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix) {
  const StagingKeys keys(prefix);
  const bool directed = layout.directed();
  // Phase 2 (line 5): update the cross blocks against the staged diagonal
  // (MinPlus with the second argument from Spark storage).
  auto rowcol =
      a->Filter(prefix + "-rowcol",
                [&layout, t](const BlockRecord& rec) {
                  return layout.InCross(rec.first, t) &&
                         !OnDiagonal(rec.first, t);
                })
          ->MapPartitions<BlockRecord>(
              prefix + "-phase2",
              [t, keys](std::vector<BlockRecord>&& part, TaskContext& tc) {
                BlockCache cache;
                return UpdateEach(
                    std::move(part), tc,
                    [&](const BlockKey& key, const BlockRef& block) {
                      BlockRef d = ReadStagedBlock(cache, keys.Diag(t), tc);
                      return key.J == t ? FusedTriple{block, block, d}
                                        : FusedTriple{block, d, block};
                    });
              })
          ->Persist();

  // Lines 6-7: collect the updated cross and stage the oriented factors.
  // The pivot owns one transpose memo: its phase-3 tasks re-derive the
  // same few right factors, and the host work is done once per payload.
  auto transposes = std::make_shared<TransposeMemo>();
  StageCrossFactors(ctx, keys, t, rowcol->Collect(), directed, *transposes);

  // Phase 3 (line 9): update every remaining block against the staged
  // factors: A_UV = min(A_UV, A_Ut (min,+) A_tV).
  auto offcol =
      a->Filter(prefix + "-offcol",
                [&layout, t](const BlockRecord& rec) {
                  return !layout.InCross(rec.first, t);
                })
          ->MapPartitions<BlockRecord>(
              prefix + "-phase3",
              [t, directed, keys, transposes](std::vector<BlockRecord>&& part,
                                              TaskContext& tc) {
                BlockCache cache;
                return UpdateEach(
                    std::move(part), tc,
                    [&](const BlockKey& key, const BlockRef& block) {
                      auto [left, right] = ReadPhase3Factors(
                          keys, cache, *transposes, t, key, directed, tc);
                      return FusedTriple{block, left, right};
                    });
              });

  // Lines 11-12: rebuild A and repartition to the intended layout.
  return {sparklet::PartitionBy(
              ctx.Union(prefix + "-union", {diag, rowcol, offcol}),
              partitioner, prefix + "-repartition")
              ->Persist(),
          std::move(rowcol), std::move(transposes)};
}

RddPtr<BlockRecord> RunRoundsBlockedCollectBroadcast(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  const std::int64_t first = opts.start_round;
  for (std::int64_t i = first; i < first + rounds_to_run; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    auto diag = StageDiagonal(ctx, a, i, "cb");
    StagedRebuild rebuilt =
        StageCrossAndRebuild(ctx, layout, a, diag, i, partitioner, "cb");
    Advance(a, rebuilt.a);
    diag->Unpersist();
    rebuilt.cross->Unpersist();
    // The lineage keeps the phase-3 closure (and with it the memo) alive;
    // a later recomputation simply transposes again.
    rebuilt.transposes->Clear();

    // Optional durability extension (see apsp/checkpoint.h): stage A so a
    // restarted job resumes here instead of from scratch.
    if (opts.checkpoint_every > 0 && (i + 1) % opts.checkpoint_every == 0) {
      SaveCheckpoint(ctx, layout, a->Collect(), i + 1);
    }
  }
  return a;
}

}  // namespace apspark::apsp
