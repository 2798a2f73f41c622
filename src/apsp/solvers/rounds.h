// Internal: the round loops of the four APSP solvers.
//
// SolveBlocks (apsp/api.h) owns everything the solvers share — partitioning,
// the run plan, checkpoint restarts, assembly — and dispatches on SolverKind
// to one of these. Each runs `rounds_to_run` rounds of its algorithm starting
// at opts.start_round from block RDD `a`, returns the final block RDD, and
// throws SparkletAbort on modelled failures.
#pragma once

#include <cstdint>
#include <string>

#include "apsp/api.h"
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

}  // namespace apspark::apsp
