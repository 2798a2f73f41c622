// Blocked In-Memory APSP (paper Algorithm 3).
//
// The 3-phase blocked Floyd-Warshall of Venkataraman et al., expressed in
// pure Spark operations: the closed diagonal block and the updated
// column/row cross blocks are *replicated through the shuffle* (CopyDiag /
// CopyCol + partitionBy with a custom partitioner), then paired with their
// targets via combineByKey(ListAppend) + ListUnpack + MatMin.
//
// Pure and fault-tolerant, but data-intensive: every iteration shuffles
// O(q^2) block copies plus the repartitioned matrix, and since Spark
// preserves shuffle spill for fault tolerance, per-node local storage grows
// linearly with the iteration count — the failure the paper hits for small
// b (Figure 3) and at p = 1024 (Table 3).
#include "apsp/solvers/rounds.h"

#include "apsp/building_blocks.h"
#include "apsp/combine_steps.h"

namespace apspark::apsp {

using sparklet::RddPtr;
using sparklet::TaskContext;

RddPtr<BlockRecord> RunRoundsBlockedInMemory(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  RddPtr<BlockRecord> current = std::move(a);
  const std::int64_t first = opts.start_round;

  for (std::int64_t i = first; i < first + rounds_to_run; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    // --- Phase 1 (Alg. 3 lines 2-4): close the diagonal block and scatter
    // copies of it to the column/row cross via a custom-partitioned shuffle.
    auto diag = current
                    ->Filter("im-diag",
                             [i](const BlockRecord& rec) {
                               return OnDiagonal(rec.first, i);
                             })
                    ->Map("im-fw", [](const BlockRecord& rec, TaskContext& tc) {
                      return BlockRecord{rec.first,
                                         FloydWarshall(rec.second, tc)};
                    });
    auto diag_copies = diag->FlatMap<TaggedRecord>(
        "im-copydiag",
        [&layout, i](const BlockRecord& rec, TaskContext&,
                     std::vector<TaggedRecord>& out) {
          CopyDiag(layout, i, rec.second, out);
        });
    auto d0 = sparklet::PartitionBy(diag_copies, partitioner, "im-copydiag-by");

    // --- Phase 2 (lines 6-10): pair cross blocks with the diagonal copy,
    // update them, then scatter the CopyCol replicas for Phase 3.
    auto rowcol = TagOriginals(
        current->Filter("im-rowcol",
                        [&layout, i](const BlockRecord& rec) {
                          return layout.InCross(rec.first, i);
                        }),
        "im-rowcol-tag");
    auto paired = GatherLists(
        ctx.Union("im-phase2-union", {d0, rowcol}), partitioner,
        "im-phase2-combine");
    // Partition-at-a-time unpack: the fused per-block updates fan out on the
    // host thread pool (modelled task time is charged identically).
    auto updated_cross = paired->MapPartitions<BlockRecord>(
        "im-phase2-unpack",
        [&layout, i](std::vector<ListRecord>&& part, TaskContext& tc) {
          return Phase2UnpackBatch(layout, i, std::move(part), tc);
        });
    auto cross_copies = updated_cross->FlatMap<TaggedRecord>(
        "im-copycol",
        [&layout, i](const BlockRecord& rec, TaskContext& tc,
                     std::vector<TaggedRecord>& out) {
          CopyCol(layout, i, rec, out, tc);
        });
    auto d = sparklet::PartitionBy(cross_copies, partitioner, "im-copycol-by");

    // --- Phase 3 (lines 12-15): update all remaining blocks and rebuild A.
    auto rest = TagOriginals(
        current->Filter("im-offcol",
                        [&layout, i](const BlockRecord& rec) {
                          return !layout.InCross(rec.first, i);
                        }),
        "im-offcol-tag");
    auto phase3 = GatherLists(ctx.Union("im-phase3-union", {rest, d}),
                              partitioner, "im-phase3-combine");
    auto updated = phase3->MapPartitions<BlockRecord>(
        "im-phase3-unpack",
        [&layout, i](std::vector<ListRecord>&& part, TaskContext& tc) {
          return Phase3UnpackBatch(layout, i, std::move(part), tc);
        });
    // Line 15's explicit partitionBy: pySpark cannot recognise the fresh
    // partitioner object as equal to the previous one, so this repartition
    // always shuffles — the cost the paper attributes the storage blow-up
    // to (§5.2).
    auto prev = current;
    current = sparklet::PartitionBy(updated, partitioner, "im-repartition")
                  ->Persist();
    current->EnsureMaterialized();
    prev->Unpersist();
  }
  return current;
}

}  // namespace apspark::apsp
