// Blocked In-Memory APSP (paper Algorithm 3), and the shuffle pivot
// functions ShuffleUpdateCross / ShuffleUpdateRest that its round loop and
// the shuffle k-source sweep both call.
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
#include "apsp/combine_steps.h"
#include "apsp/solvers/rounds.h"

namespace apspark::apsp {

using sparklet::RddPtr;
using sparklet::TaskContext;

RddPtr<BlockRecord> ShuffleUpdateCross(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const RddPtr<BlockRecord>& a, const RddPtr<BlockRecord>& diag,
    std::int64_t t, const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix) {
  // Lines 2-4: scatter copies of the closed diagonal to the column/row
  // cross via a custom-partitioned shuffle.
  auto diag_copies = diag->FlatMap<TaggedRecord>(
      prefix + "-copydiag",
      [&layout, t](const BlockRecord& rec, TaskContext&,
                   std::vector<TaggedRecord>& out) {
        CopyDiag(layout, t, rec.second, out);
      });
  auto d0 =
      sparklet::PartitionBy(diag_copies, partitioner, prefix + "-copydiag-by");
  // Lines 6-10: pair the cross blocks with their diagonal copy and update
  // them, a partition at a time: the fused per-block updates fan out on the
  // host thread pool (modelled task time is charged identically).
  auto rowcol = TagOriginals(a->Filter(prefix + "-rowcol",
                                       [&layout, t](const BlockRecord& rec) {
                                         return layout.InCross(rec.first, t);
                                       }),
                             prefix + "-rowcol-tag");
  auto paired = GatherLists(ctx.Union(prefix + "-phase2-union", {d0, rowcol}),
                            partitioner, prefix + "-phase2-combine");
  return paired->MapPartitions<BlockRecord>(
      prefix + "-phase2-unpack",
      [t](std::vector<ListRecord>&& part, TaskContext& tc) {
        return Phase2UnpackBatch(t, std::move(part), tc);
      });
}

RddPtr<BlockRecord> ShuffleUpdateRest(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const RddPtr<BlockRecord>& a, const RddPtr<BlockRecord>& cross,
    std::int64_t t, const sparklet::PartitionerPtr<BlockKey>& partitioner,
    const std::string& prefix) {
  // Lines 12-15: scatter the CopyCol replicas of the updated cross and
  // update all remaining blocks.
  auto cross_copies = cross->FlatMap<TaggedRecord>(
      prefix + "-copycol",
      [&layout, t](const BlockRecord& rec, TaskContext& tc,
                   std::vector<TaggedRecord>& out) {
        CopyCol(layout, t, rec, out, tc);
      });
  auto d =
      sparklet::PartitionBy(cross_copies, partitioner, prefix + "-copycol-by");
  auto rest = TagOriginals(a->Filter(prefix + "-offcol",
                                     [&layout, t](const BlockRecord& rec) {
                                       return !layout.InCross(rec.first, t);
                                     }),
                           prefix + "-offcol-tag");
  auto phase3 = GatherLists(ctx.Union(prefix + "-phase3-union", {rest, d}),
                            partitioner, prefix + "-phase3-combine");
  auto updated = phase3->MapPartitions<BlockRecord>(
      prefix + "-phase3-unpack",
      [](std::vector<ListRecord>&& part, TaskContext& tc) {
        return Phase3UnpackBatch(std::move(part), tc);
      });
  // Line 15's explicit partitionBy: pySpark cannot recognise the fresh
  // partitioner object as equal to the previous one, so this repartition
  // always shuffles — the cost the paper attributes the storage blow-up
  // to (§5.2).
  return sparklet::PartitionBy(updated, partitioner, prefix + "-repartition")
      ->Persist();
}

RddPtr<BlockRecord> RunRoundsBlockedInMemory(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  const std::int64_t first = opts.start_round;
  for (std::int64_t i = first; i < first + rounds_to_run; ++i) {
    RoundSpanScope round_span(ctx.cluster(), i);
    auto cross = ShuffleUpdateCross(ctx, layout, a, CloseDiagonal(a, i, "im"),
                                    i, partitioner, "im");
    Advance(a, ShuffleUpdateRest(ctx, layout, a, cross, i, partitioner, "im"));
  }
  return a;
}

}  // namespace apspark::apsp
