// The shared-storage protocol of the impure solvers.
//
// Blocked Collect/Broadcast (Alg. 4) moves pivot data between stages through
// shared persistent storage rather than the shuffle: the driver collects and
// stages the closed diagonal block and the updated cross factors of each
// pivot, and executors read them back inside map tasks (with per-task
// caching, the way the paper's executors cache deserialized column blocks).
// The staged pivot functions StageDiagonal and StageCrossAndRebuild
// (solvers/blocked_collect_broadcast.cc, which also holds the oriented
// factor staging) write and read the matrix data for both the APSP round
// loop and the staged k-source sweep; the sweep stages its pivot panel and
// reads the left factors back through the same keys. Repeated Squaring
// (Alg. 1) stages its column segments under its own keys and reads them
// back the same way. Every driver-side write is one
// SparkletContext::DriverWriteSharedBlock: it charges shared-FS time for
// the full logical bytes but stores the immutable ref itself (zero-copy;
// phantom blocks carry no payload yet still account full size). This
// header holds what the solvers share: the pivot key scheme and the
// executor-side cached reads.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>

#include "apsp/block_key.h"
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

}  // namespace apspark::apsp::staging
