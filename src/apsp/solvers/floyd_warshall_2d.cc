// 2D Floyd-Warshall (paper Algorithm 2).
//
// The textbook parallel Floyd-Warshall on a 2-D block decomposition: in
// iteration k, global column k is extracted from the blocks of column-block
// K = k / b, aggregated on the driver via collect, broadcast to all
// executors, and every block applies the FloydWarshallUpdate outer-sum.
//
// Pure: only collect + broadcast + narrow maps — no shuffles, no side
// effects. But n iterations of per-iteration O(b^2) work give the poor
// computation-to-overhead balance the paper reports (Table 2: per-iteration
// time is nearly independent of b; projected totals are in days).
#include "apsp/solvers/rounds.h"

#include <memory>

#include "apsp/building_blocks.h"

namespace apspark::apsp {

using linalg::BlockRef;
using sparklet::RddPtr;
using sparklet::TaskContext;

RddPtr<BlockRecord> RunRoundsFloydWarshall2d(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  (void)partitioner;
  RddPtr<BlockRecord> current = std::move(a);
  const auto q = static_cast<std::size_t>(layout.q());
  const std::int64_t first = opts.start_round;

  for (std::int64_t k = first; k < first + rounds_to_run; ++k) {
    RoundSpanScope round_span(ctx.cluster(), k);
    const std::int64_t big_k = k / layout.block_size();

    // Lines 5-6: identify the blocks holding column k, extract the column
    // segments, and aggregate them on the driver.
    auto segments =
        current
            ->Filter("fw2d-col",
                     [&layout, big_k](const BlockRecord& rec) {
                       return InColumn(layout, rec.first, big_k);
                     })
            ->Map("fw2d-extract",
                  [&layout, k](const BlockRecord& rec, TaskContext& tc) {
                    return ExtractColSegment(layout, rec, k, tc);
                  })
            ->Collect();

    // Line 8: broadcast column k ("the memory footprint of a column is very
    // small, the operation can be performed without persistent storage").
    auto column = std::make_shared<std::vector<BlockRef>>(q);
    for (auto& [row_block, segment] : segments) {
      (*column)[static_cast<std::size_t>(row_block)] = segment;
    }
    ctx.Broadcast(static_cast<std::uint64_t>(layout.n()) * sizeof(double));

    // Directed graphs cannot exploit symmetry: extract and broadcast global
    // row k as well (the paper's §4 note on adapting to digraphs).
    auto row = column;
    if (layout.directed()) {
      auto row_segments =
          current
              ->Filter("fw2d-row",
                       [big_k](const BlockRecord& rec) {
                         return rec.first.I == big_k;
                       })
              ->Map("fw2d-extract-row",
                    [&layout, k](const BlockRecord& rec, TaskContext& tc) {
                      return ExtractRowSegment(layout, rec, k, tc);
                    })
              ->Collect();
      row = std::make_shared<std::vector<BlockRef>>(q);
      for (auto& [col_block, segment] : row_segments) {
        (*row)[static_cast<std::size_t>(col_block)] = segment;
      }
      ctx.Broadcast(static_cast<std::uint64_t>(layout.n()) * sizeof(double));
    }

    // Line 10: the Floyd-Warshall update phase — a pure narrow map, executed
    // partition-at-a-time so one task's independent outer-sum updates are
    // charged through the intra-task schedule and fanned out as stealable
    // tasks on the host pool.
    Advance(current,
            current
                ->MapPartitions<BlockRecord>(
                    "fw2d-update",
                    [column, row](std::vector<BlockRecord>&& part,
                                  TaskContext& tc) {
                      return FloydWarshallUpdateBatch(std::move(part),
                                                     *column, *row, tc);
                    })
                ->Persist());
  }
  return current;
}

}  // namespace apspark::apsp
