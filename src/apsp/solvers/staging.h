// Shared staging machinery of the impure solvers.
//
// Blocked Collect/Broadcast (Alg. 4) and the batched k-source solver move
// pivot data between stages through shared persistent storage rather than
// the shuffle: the driver collects and stages the closed diagonal block and
// the updated cross factors of each pivot, and executors read them back
// inside map tasks (with per-task caching, the way the paper's executors
// cache deserialized column blocks). This header is the single home of that
// protocol — key scheme, driver-side writes, executor-side cached reads, and
// the oriented factor staging with its undirected-transpose derivation — so
// the two solvers cannot drift apart.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/building_blocks.h"
#include "common/serial.h"
#include "sparklet/rdd.h"

namespace apspark::apsp::staging {

/// Shared-storage key scheme of one solver's pivot staging. The per-solver
/// prefix ("cb", "ks", ...) keeps two staged solves in one context apart.
class StagingKeys {
 public:
  explicit StagingKeys(std::string prefix) : prefix_(std::move(prefix)) {}

  std::string Diag(std::int64_t t) const {
    return prefix_ + "/" + std::to_string(t) + "/diag";
  }
  /// Left factor A_xt of pivot t (the row side of a phase-3 update).
  std::string Left(std::int64_t t, std::int64_t x) const {
    return prefix_ + "/" + std::to_string(t) + "/L/" + std::to_string(x);
  }
  /// Right factor A_tx of pivot t (the column side).
  std::string Right(std::int64_t t, std::int64_t x) const {
    return prefix_ + "/" + std::to_string(t) + "/R/" + std::to_string(x);
  }
  /// K-source pivot frontier panel P_t.
  std::string Panel(std::int64_t t) const {
    return prefix_ + "/" + std::to_string(t) + "/panel";
  }

 private:
  std::string prefix_;
};

/// Driver-side write of a block ref to shared persistent storage: charges
/// shared-FS time for the full logical bytes, but stores the immutable ref
/// itself — the zero-copy path (no host-side serialization; phantom blocks
/// carry no payload yet still account full size).
inline void StageBlock(sparklet::SparkletContext& ctx, const std::string& key,
                       linalg::BlockRef block) {
  ctx.DriverWriteSharedBlock(key, std::move(block));
}

/// Per-task cache of staged block refs (models the paper's executors
/// caching deserialized column blocks; here the cache saves the modelled
/// re-read charge, not a host-side copy).
using BlockCache = std::unordered_map<std::string, linalg::BlockRef>;

/// Executor-side read with caching; aborts the task when the key is missing
/// (a lost side channel — the impurity the paper flags). Returns the shared
/// immutable ref; no deserialization copy is made.
inline linalg::BlockRef ReadStagedBlock(BlockCache& cache,
                                        const std::string& key,
                                        sparklet::TaskContext& tc) {
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto block = tc.ReadSharedBlock(key);
  if (!block.ok()) throw sparklet::SparkletAbort(block.status());
  cache.emplace(key, *block);
  return *block;
}

/// Stages the oriented phase-3 factors of pivot t from the collected,
/// phase-2-updated cross blocks (diagonal excluded): stored (x, t) provides
/// the left factor A_xt, stored (t, x) the right factor A_tx. Undirected
/// storage keeps only the canonical block, so the missing left side is
/// derived by transposition (driver-side, like the paper's on-demand A_JI)
/// through the round's `transposes` memo, which thereby already knows the
/// transpose of that left factor: the canonical block itself.
inline void StageCrossFactors(sparklet::SparkletContext& ctx,
                              const StagingKeys& keys, std::int64_t t,
                              const std::vector<BlockRecord>& cross,
                              bool directed, TransposeMemo& transposes) {
  for (const auto& [key, block] : cross) {
    const std::int64_t x = key.I == t ? key.J : key.I;
    if (key.J == t) {
      StageBlock(ctx, keys.Left(t, x), block);
      if (!directed) continue;
    } else {
      StageBlock(ctx, keys.Right(t, x), block);
      if (!directed) {
        StageBlock(ctx, keys.Left(t, x), transposes.Get(block));
      }
    }
  }
}

/// Reads the (left, right) = (A_Ut, A_tV) factor pair a phase-3 update of
/// target `key` needs. Undirected layouts stage only left factors beyond
/// the canonical cross, so the right side is reconstructed by transposing
/// the left factor of key.J (cached under the right key, charged like any
/// transpose). The host transpose itself is shared by every task of the
/// round through `transposes`.
inline std::pair<linalg::BlockRef, linalg::BlockRef> ReadPhase3Factors(
    const StagingKeys& keys, BlockCache& cache, TransposeMemo& transposes,
    std::int64_t t, const BlockKey& key, bool directed,
    sparklet::TaskContext& tc) {
  linalg::BlockRef left = ReadStagedBlock(cache, keys.Left(t, key.I), tc);
  if (directed) {
    return {left, ReadStagedBlock(cache, keys.Right(t, key.J), tc)};
  }
  const std::string tkey = keys.Right(t, key.J);
  auto it = cache.find(tkey);
  if (it != cache.end()) return {left, it->second};
  linalg::BlockRef right = Transpose(
      ReadStagedBlock(cache, keys.Left(t, key.J), tc), tc, transposes);
  cache.emplace(tkey, right);
  return {left, right};
}

}  // namespace apspark::apsp::staging
