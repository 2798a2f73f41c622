// Internal: the round loops of the four APSP solvers and of the k-source
// sweep, and the per-pivot matrix phases the blocked ones share.
//
// SolveBlocks (apsp/api.h) owns everything the solvers share — partitioning,
// the failure schedule, checkpoint restarts, assembly — and dispatches on
// SolverKind (and, for k-source requests, to RunRoundsKsource) to one of
// these. Each runs `rounds_to_run` rounds of its algorithm starting at
// opts.start_round from block RDD `a`, returns the final block RDD, and
// throws SparkletAbort on modelled failures.
//
// Each blocked data plane has one per-pivot matrix function, split in two
// steps so the k-source sweep can run its frontier work in between; the
// APSP round loop and the sweep both call it:
//   staged (Alg. 4, solvers/blocked_collect_broadcast.cc) —
//     StageDiagonal, then StageCrossAndRebuild;
//   shuffle (Alg. 3, solvers/blocked_inmemory.cc) —
//     CloseDiagonal, ShuffleUpdateCross, then ShuffleUpdateRest.
// A `prefix` ("cb"/"ks", "im"/"ksp") names every stage they create and, on
// the staged plane, the shared-storage keys.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "apsp/api.h"
#include "apsp/building_blocks.h"
#include "obs/trace.h"
#include "sparklet/rdd.h"

namespace apspark::apsp {

/// RAII sim-clock span around one solver round: records a "round" span on
/// the virtual driver lane covering every stage and transfer the round's
/// body charges to the cluster. A no-op (two relaxed loads) without an
/// active trace capture; purely observational either way.
class RoundSpanScope {
 public:
  RoundSpanScope(sparklet::VirtualCluster& cluster, std::int64_t round)
      : cluster_(cluster),
        round_(round),
        start_(cluster.now_seconds()),
        active_(obs::TraceEnabled()) {}
  ~RoundSpanScope() {
    if (active_ && obs::TraceEnabled()) {
      obs::Tracer::Get().VirtualSpan("round", obs::kDriverLane, start_,
                                     cluster_.now_seconds(),
                                     "\"round\":" + std::to_string(round_));
    }
  }
  RoundSpanScope(const RoundSpanScope&) = delete;
  RoundSpanScope& operator=(const RoundSpanScope&) = delete;

 private:
  sparklet::VirtualCluster& cluster_;
  std::int64_t round_;
  double start_;
  bool active_;
};

/// Materializes the persisted `next` and releases the RDD it replaces.
template <typename T>
void Advance(sparklet::RddPtr<T>& current, sparklet::RddPtr<T> next) {
  next->EnsureMaterialized();
  current->Unpersist();
  current = std::move(next);
}

/// Phase 1 of both blocked planes: pivot t's diagonal block, closed by a
/// narrow map (lazy).
inline sparklet::RddPtr<BlockRecord> CloseDiagonal(
    const sparklet::RddPtr<BlockRecord>& a, std::int64_t t,
    const std::string& prefix) {
  return a
      ->Filter(prefix + "-diag",
               [t](const BlockRecord& rec) { return OnDiagonal(rec.first, t); })
      ->Map(prefix + "-fw",
            [](const BlockRecord& rec, sparklet::TaskContext& tc) {
              return BlockRecord{rec.first, FloydWarshall(rec.second, tc)};
            });
}

/// Staged plane, step 1 (Alg. 4 lines 2-3): closes pivot t's diagonal
/// block, brings it to the driver and stages it in shared storage. Returns
/// the closed diagonal, persisted and cached by that collect, so the
/// rebuild union reads it back instead of closing it again; unpersist it
/// once the rebuilt A is materialized.
sparklet::RddPtr<BlockRecord> StageDiagonal(
    sparklet::SparkletContext& ctx, const sparklet::RddPtr<BlockRecord>& a,
    std::int64_t t, const std::string& prefix);

/// The rebuilt A of one staged pivot, persisted but not yet materialized;
/// the phase-2-updated cross, persisted and cached by its collect; and the
/// transpose memo the phase-3 tasks share. Once the caller has materialized
/// A, it unpersists the cross (and the diagonal) and clears the memo.
struct StagedRebuild {
  sparklet::RddPtr<BlockRecord> a;
  sparklet::RddPtr<BlockRecord> cross;
  std::shared_ptr<TransposeMemo> transposes;
};

/// Staged plane, step 2 (Alg. 4 lines 5-12): phase 2 updates the cross
/// against the staged diagonal, the driver collects it and stages the
/// oriented factors (the k-source frontier reads the left ones too), phase 3
/// updates every other block through them, and `diag`, the cross and the
/// rest are unioned and repartitioned. The union reads `diag` and the cross
/// from their caches, so each pivot closes its diagonal and updates its
/// cross once.
StagedRebuild StageCrossAndRebuild(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const sparklet::RddPtr<BlockRecord>& a,
    const sparklet::RddPtr<BlockRecord>& diag, std::int64_t t,
    const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix);

/// Shuffle plane, step 1 (Alg. 3 lines 2-10): CopyDiag replicas of the
/// closed diagonal `diag` meet pivot t's cross through the shuffle. Returns
/// the updated cross, diagonal included (lazy).
sparklet::RddPtr<BlockRecord> ShuffleUpdateCross(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const sparklet::RddPtr<BlockRecord>& a,
    const sparklet::RddPtr<BlockRecord>& diag, std::int64_t t,
    const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix);

/// Shuffle plane, step 2 (lines 12-15): CopyCol replicas of the updated
/// `cross` meet every other block of `a`. Returns the rebuilt A,
/// repartitioned and persisted but not yet materialized.
sparklet::RddPtr<BlockRecord> ShuffleUpdateRest(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const sparklet::RddPtr<BlockRecord>& a,
    const sparklet::RddPtr<BlockRecord>& cross, std::int64_t t,
    const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix);

sparklet::RddPtr<BlockRecord> RunRoundsRepeatedSquaring(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    sparklet::RddPtr<BlockRecord> a,
    sparklet::PartitionerPtr<BlockKey> partitioner, const ApspOptions& opts,
    std::int64_t rounds_to_run);

sparklet::RddPtr<BlockRecord> RunRoundsFloydWarshall2d(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    sparklet::RddPtr<BlockRecord> a,
    sparklet::PartitionerPtr<BlockKey> partitioner, const ApspOptions& opts,
    std::int64_t rounds_to_run);

sparklet::RddPtr<BlockRecord> RunRoundsBlockedInMemory(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    sparklet::RddPtr<BlockRecord> a,
    sparklet::PartitionerPtr<BlockKey> partitioner, const ApspOptions& opts,
    std::int64_t rounds_to_run);

sparklet::RddPtr<BlockRecord> RunRoundsBlockedCollectBroadcast(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    sparklet::RddPtr<BlockRecord> a,
    sparklet::PartitionerPtr<BlockKey> partitioner, const ApspOptions& opts,
    std::int64_t rounds_to_run);

/// The batched k-source sweep (see solvers/ksource.cc): one round is one
/// blocked Floyd-Warshall pivot of `a` folded into the frontier panels `f`,
/// which it replaces with the updated panels. `kind` picks the data plane,
/// whose pivot functions above run the matrix phases:
/// kBlockedCollectBroadcast stages pivot data through shared storage like
/// Alg. 4, kBlockedInMemory shuffles it like Alg. 3.
sparklet::RddPtr<BlockRecord> RunRoundsKsource(
    SolverKind kind, sparklet::SparkletContext& ctx, const BlockLayout& layout,
    sparklet::RddPtr<BlockRecord> a,
    sparklet::PartitionerPtr<BlockKey> partitioner,
    sparklet::RddPtr<PanelRecord>& f,
    sparklet::PartitionerPtr<std::int64_t> panel_partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run);

}  // namespace apspark::apsp
