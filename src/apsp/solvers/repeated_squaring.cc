// Repeated Squaring APSP (paper Algorithm 1).
//
// Computes A^n over the (min,+) semiring by repeated squaring. The naive
// cartesian-based product shuffles all-to-all and "easily stalls even on
// small problems" (§4.2), so — like the paper — the matrix-matrix product is
// rewritten as a sequence of per-column-block matrix-vector products: for
// each column block J, the column is collected on the driver, staged in
// shared persistent storage, and executors multiply their resident blocks
// against the staged segments; reduceByKey(MatMin) finishes the product.
//
// Impure: column staging through the shared file system is a side effect
// outside the RDD lineage.
//
// One "round" (for projection purposes) is one column sweep; a full run is
// ceil(log2(n)) squarings x q sweeps, matching the iteration counts the
// paper reports in Table 2.
#include "apsp/solvers/rounds.h"

#include <unordered_map>

#include "apsp/building_blocks.h"
#include "apsp/checkpoint.h"
#include "common/math_utils.h"
#include "linalg/kernels.h"

namespace apspark::apsp {

using linalg::BlockRef;
using linalg::DenseBlock;
using sparklet::RddPtr;
using sparklet::SparkletAbort;
using sparklet::TaskContext;

namespace {

std::string ColumnKey(std::int64_t squaring, std::int64_t j,
                      std::int64_t k) {
  return "rs/" + std::to_string(squaring) + "/" + std::to_string(j) + "/" +
         std::to_string(k);
}

/// Reads a staged column segment B_KJ, caching per task (the paper's
/// executors deserialize each needed block once; here the ref is shared, so
/// the cache saves the modelled re-read charge only).
BlockRef FetchSegment(std::unordered_map<std::int64_t, BlockRef>& cache,
                      std::int64_t squaring, std::int64_t j, std::int64_t k,
                      TaskContext& tc) {
  auto it = cache.find(k);
  if (it != cache.end()) return it->second;
  auto block = tc.ReadSharedBlock(ColumnKey(squaring, j, k));
  if (!block.ok()) throw SparkletAbort(block.status());
  cache.emplace(k, *block);
  return *block;
}

}  // namespace

RddPtr<BlockRecord> RunRoundsRepeatedSquaring(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    RddPtr<BlockRecord> a, sparklet::PartitionerPtr<BlockKey> partitioner,
    const ApspOptions& opts, std::int64_t rounds_to_run) {
  const std::int64_t q = layout.q();
  const int squarings = CeilLog2(layout.n());
  std::int64_t executed = 0;
  RddPtr<BlockRecord> current = std::move(a);

  // Resume snaps to squaring boundaries: a round is one column sweep, but
  // the matrix is only consistent between squarings, which is where the
  // checkpoints below are written (start_round is always a multiple of q on
  // the engine's own restart path).
  const int start_squaring =
      q > 0 ? static_cast<int>(opts.start_round / q) : 0;

  for (int squaring = start_squaring;
       squaring < squarings && executed < rounds_to_run; ++squaring) {
    std::vector<RddPtr<BlockRecord>> products;
    bool complete = true;
    for (std::int64_t j = 0; j < q; ++j) {
      if (executed >= rounds_to_run) {
        complete = false;
        break;
      }
      ++executed;
      RoundSpanScope round_span(ctx.cluster(),
                                static_cast<std::int64_t>(squaring) * q + j);

      // Alg. 1 line 3: gather column block J on the driver...
      auto column =
          current
              ->Filter("rs-col-filter",
                       [&layout, j](const BlockRecord& rec) {
                         return InColumn(layout, rec.first, j);
                       })
              ->Collect();
      // ...line 4: and stage its (oriented) segments in shared storage —
      // zero-copy refs, full logical bytes charged (see staging.h).
      for (const auto& [key, block] : column) {
        const std::int64_t k = key.J == j ? key.I : key.J;
        ctx.DriverWriteSharedBlock(
            ColumnKey(squaring, j, k),
            BlockLayout::Orient(key, *block, k, j));
      }

      // Line 5: T[J] = A.map(MatProd).reduceByKey(MatMin) — a matrix-vector
      // product against the staged column. Contributions that share an
      // output row-block fold into one fused accumulator (c = min(c, A ⊗ B))
      // instead of materializing one product block each: this is the
      // map-side combine reduceByKey performs anyway, done without the
      // intermediate blocks. The first contribution per key charges MatProd
      // alone (a product into a fresh +inf accumulator *is* the product);
      // later ones add the MatMin the unfused combine charged, so modelled
      // time and shuffle bytes are unchanged.
      const bool directed = layout.directed();
      auto partial = current->MapPartitions<BlockRecord>(
          "rs-matprod",
          [squaring, j, directed](std::vector<BlockRecord>&& part,
                                  TaskContext& tc) {
            std::unordered_map<std::int64_t, BlockRef> cache;
            std::unordered_map<std::int64_t, DenseBlock> acc;
            std::vector<std::int64_t> order;  // deterministic output order
            auto contribute = [&](std::int64_t row, const BlockRef& lhs,
                                  const BlockRef& seg) {
              auto it = acc.find(row);
              if (it == acc.end()) {
                tc.ChargeCompute(tc.cost_model().MinPlusSeconds(
                    lhs->rows(), seg->cols(), lhs->cols()));
                acc.emplace(row, linalg::MinPlusProduct(*lhs, *seg));
                order.push_back(row);
                return;
              }
              tc.ChargeCompute(tc.cost_model().MinPlusSeconds(
                                   lhs->rows(), seg->cols(), lhs->cols()) +
                               tc.cost_model().ElementwiseSeconds(
                                   it->second.size()));
              linalg::MinPlusUpdate(*lhs, *seg, it->second);
            };
            for (const auto& [key, block] : part) {
              if (directed) {
                // A_XY (min,+) B_YJ contributes to (X, J).
                contribute(key.I,
                           block, FetchSegment(cache, squaring, j, key.J, tc));
                continue;
              }
              // Upper-triangular storage: the stored block serves both
              // A_XY and (for X != Y) its transpose A_YX.
              if (key.I <= j) {
                contribute(key.I,
                           block, FetchSegment(cache, squaring, j, key.J, tc));
              }
              if (key.I != key.J && key.J <= j) {
                contribute(key.J, Transpose(block, tc),
                           FetchSegment(cache, squaring, j, key.I, tc));
              }
            }
            std::vector<BlockRecord> out;
            out.reserve(order.size());
            for (const std::int64_t row : order) {
              out.push_back({BlockKey{row, j},
                             linalg::MakeBlock(std::move(acc.at(row)))});
            }
            return out;
          });
      auto tj = sparklet::ReduceByKey(
          partial, partitioner, "rs-matmin",
          [](const BlockRef& x, const BlockRef& y, TaskContext& tc) {
            return MatMin(x, y, tc);
          });
      // Drive the column product now: one "iteration" of the paper's
      // Table 2 is exactly this sweep's collect + staging + map + reduce.
      tj->EnsureMaterialized();
      products.push_back(std::move(tj));
    }
    if (!complete) break;  // projection run: stop mid-squaring
    // Line 6: A = sc.union(T) — faithfully *without* repartitioning, so the
    // partition count grows, as discussed in §5.2 / §6.1.
    current = ctx.Union("rs-union", std::move(products));
    current->Persist();
    current->EnsureMaterialized();
    // Durability extension: the matrix is consistent here (a completed
    // squaring), so this is where Repeated Squaring can checkpoint — the
    // shared-FS column staging makes it impure, and an executor loss sends
    // it through the restart path in SolveBlocks. checkpoint_every
    // counts rounds (column sweeps) but snaps to squaring boundaries: a
    // checkpoint is written when this squaring crossed a multiple of it.
    const std::int64_t completed =
        static_cast<std::int64_t>(squaring + 1) * q;
    if (opts.checkpoint_every > 0 && squaring + 1 < squarings &&
        completed % opts.checkpoint_every < q) {
      SaveCheckpoint(ctx, layout, current->Collect(), completed);
    }
  }
  return current;
}

}  // namespace apspark::apsp
