// The paper's functional building blocks (Table 1).
//
// Each function acts on matrix-block records and charges the calibrated cost
// model through the TaskContext — mirroring how the pySpark implementation
// dispatches the numeric work to bare metal (NumPy/SciPy/Numba) while Spark
// handles distribution. Kernels execute for materialized blocks and
// short-circuit for phantom ones; the charged time is identical.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/block_layout.h"
#include "sparklet/task_context.h"

namespace apspark::apsp {

// --- predicates --------------------------------------------------------

/// InColumn[((I,J), A_IJ), x] on symmetric storage: the stored block carries
/// data of column-block x (or row-block x, served by transposition).
bool InColumn(const BlockLayout& layout, const BlockKey& key, std::int64_t x);

/// OnDiagonal[((I,J), A_IJ), x].
bool OnDiagonal(const BlockKey& key, std::int64_t x);

// --- kernel wrappers (charge cost model, propagate phantoms) ------------

/// MatProd: min-plus product A (min,+) B.
linalg::BlockRef MatProd(const linalg::BlockRef& a, const linalg::BlockRef& b,
                         sparklet::TaskContext& tc);

/// MatMin: element-wise minimum.
linalg::BlockRef MatMin(const linalg::BlockRef& a, const linalg::BlockRef& b,
                        sparklet::TaskContext& tc);

/// MinPlus: min(A (min,+) B, A) — Table 1's fused form, computed in one
/// fused pass (no intermediate product block is materialized). Charges the
/// same modelled time as MatProd followed by MatMin.
linalg::BlockRef MinPlus(const linalg::BlockRef& a, const linalg::BlockRef& b,
                         sparklet::TaskContext& tc);

/// Fused three-operand form: min(base, A (min,+) B) in one pass. The hot
/// kernel of the blocked solvers' phase-2/phase-3 updates.
linalg::BlockRef MinPlusInto(const linalg::BlockRef& base,
                             const linalg::BlockRef& a,
                             const linalg::BlockRef& b,
                             sparklet::TaskContext& tc);

/// MinPlusRect: panel' = min(base, A (min,+) panel) in one fused pass via
/// the rectangular panel kernel (linalg::MinPlusUpdateRect) — the hot kernel
/// of the batched k-source frontier sweep. Charges the same modelled time as
/// MatProd followed by MatMin on the panel shape.
linalg::BlockRef MinPlusRect(const linalg::BlockRef& base,
                             const linalg::BlockRef& a,
                             const linalg::BlockRef& panel,
                             sparklet::TaskContext& tc);

/// One planned fused block update min(base, left ⊗ right) — the unit the
/// batch entry points below decompose a sparklet task into. Holds refs: the
/// only payload duplication is the copy-on-write base copy each kernel makes
/// before updating it in place.
struct FusedTriple {
  linalg::BlockRef base;
  linalg::BlockRef left;
  linalg::BlockRef right;
};

/// Batched fused updates: charges each update's modelled kernel time into
/// the task through the cost model's intra-task schedule
/// (CostModel::IntraTaskSpan — the ordered sum when intra_task_cores == 1),
/// then runs the independent numeric updates through
/// linalg::ForEachByHostWork: grouped by their host m·n·k into units of at
/// least KernelTuning::parallel_grain_ops and stolen from the kernel pool
/// under kTiledParallel (the default), inline under the naive/tiled
/// single-thread baselines. Host threads never touch the charge. Returns
/// the updated blocks in input order.
std::vector<linalg::BlockRef> MinPlusIntoBatch(
    std::vector<FusedTriple>&& updates, sparklet::TaskContext& tc);

/// Rect-kernel batch: min(base, left ⊗ right-panel) per item via
/// linalg::MinPlusUpdateRect, with the same charge/execute split as
/// MinPlusIntoBatch. The hot path of the k-source frontier sweep.
std::vector<linalg::BlockRef> MinPlusRectBatch(
    std::vector<FusedTriple>&& updates, sparklet::TaskContext& tc);

/// FloydWarshall: closes a diagonal block with the sequential solver.
linalg::BlockRef FloydWarshall(const linalg::BlockRef& a,
                               sparklet::TaskContext& tc);

/// Transposition of a stored payload (the on-demand A_JI from A_IJ).
linalg::BlockRef Transpose(const linalg::BlockRef& a,
                           sparklet::TaskContext& tc);

/// Host-side memo of transposed payloads, owned by one solver round: the
/// phase-3 tasks of a round all transpose the same few staged factors, so
/// the host work is done once per payload and shared. Keyed by payload
/// identity, and each entry holds its source, so a key cannot be reused by
/// another block while it is memoized. Pure host state — it never charges
/// the cost model. Used from the driver thread only, like TaskContext.
class TransposeMemo {
 public:
  /// The transpose of `source`, computed on the first request for this
  /// payload (or for its own transpose) and shared afterwards.
  linalg::BlockRef Get(const linalg::BlockRef& source);
  /// Drops every entry (the owning round ends).
  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    linalg::BlockRef source;
    linalg::BlockRef transposed;
  };
  std::unordered_map<const linalg::DenseBlock*, Entry> entries_;
};

/// Transpose whose host work is shared through `memo`; charges exactly what
/// the plain Transpose charges, on every call.
linalg::BlockRef Transpose(const linalg::BlockRef& a,
                           sparklet::TaskContext& tc, TransposeMemo& memo);

// --- 2D Floyd-Warshall helpers ------------------------------------------

/// ExtractCol: from a stored block in the column-cross of K = k / b, extract
/// the segment of global column k belonging to the block's *other* index.
/// Returns (row_block_index, b x 1 segment).
std::pair<std::int64_t, linalg::BlockRef> ExtractColSegment(
    const BlockLayout& layout, const BlockRecord& record, std::int64_t k,
    sparklet::TaskContext& tc);

/// ExtractRow (directed layouts): from a stored block with I == k / b,
/// extract the segment of global row k belonging to column-block J, stored
/// as a b x 1 vector. Returns (col_block_index, segment).
std::pair<std::int64_t, linalg::BlockRef> ExtractRowSegment(
    const BlockLayout& layout, const BlockRecord& record, std::int64_t k,
    sparklet::TaskContext& tc);

/// FloydWarshallUpdate: A_IJ = min(A_IJ, B_Ik 1^T + 1 B_kJ) where
/// `column_segments[X]` is the b x 1 slice of global column k for row-block
/// X and `row_segments[Y]` the slice of global row k for column-block Y
/// (equal to column_segments for undirected graphs — the symmetry the paper
/// exploits).
BlockRecord FloydWarshallUpdate(
    const BlockLayout& layout, const BlockRecord& record,
    const std::vector<linalg::BlockRef>& column_segments,
    const std::vector<linalg::BlockRef>& row_segments,
    sparklet::TaskContext& tc);

/// Undirected convenience overload (row == column by symmetry).
BlockRecord FloydWarshallUpdate(
    const BlockLayout& layout, const BlockRecord& record,
    const std::vector<linalg::BlockRef>& column_segments,
    sparklet::TaskContext& tc);

/// Partition-at-a-time FloydWarshallUpdate: identical records and identical
/// virtual-cluster charges (modulo the intra-task schedule) as mapping the
/// per-record form, with the independent outer-sum updates fanned out as
/// stealable tasks under kTiledParallel.
std::vector<BlockRecord> FloydWarshallUpdateBatch(
    std::vector<BlockRecord>&& records,
    const std::vector<linalg::BlockRef>& column_segments,
    const std::vector<linalg::BlockRef>& row_segments,
    sparklet::TaskContext& tc);

// --- Blocked In-Memory combine-step helpers ------------------------------

/// Finds the unique list entry with the given role, or nullptr; throws
/// std::logic_error on duplicates. Shared by the combine-step unpackers and
/// the shuffle-replicated KSSP frontier update.
const linalg::BlockRef* FindRole(const TaggedList& list, BlockRole role);

/// CopyDiag: replicates the closed diagonal block D_ii to every stored key
/// in the column/row cross of i (q-1 copies, tagged kDiag).
void CopyDiag(const BlockLayout& layout, std::int64_t i,
              const linalg::BlockRef& diag, std::vector<TaggedRecord>& out);

/// Phase-2 unpack: list = {original cross block, diagonal copy}; returns the
/// cross block updated through the diagonal (correctly oriented min-plus).
BlockRecord Phase2Unpack(const BlockLayout& layout, std::int64_t i,
                         const ListRecord& record, sparklet::TaskContext& tc);

/// CopyCol: from an updated cross block of iteration i, emit the block
/// itself (kOriginal) plus, for every stored target key, the row-side
/// (A_Xi, kRow) or column-side (A_iX, kCol) factor needed by Phase 3.
/// Diagonal targets receive both factors. (Table 1's CopyCol.)
void CopyCol(const BlockLayout& layout, std::int64_t i,
             const BlockRecord& record, std::vector<TaggedRecord>& out,
             sparklet::TaskContext& tc);

/// Phase-3 unpack: list = {original} for cross blocks (already updated), or
/// {original, kRow, kCol} for the rest: min(A_UV, A_Ui (min,+) A_iV).
BlockRecord Phase3Unpack(const BlockLayout& layout, std::int64_t i,
                         const ListRecord& record, sparklet::TaskContext& tc);

/// Partition-at-a-time unpackers: same records and identical virtual-cluster
/// charges as mapping Phase2Unpack / Phase3Unpack record by record, but the
/// numeric block updates fan out on the host ThreadPool (host threads speed
/// up real compute only; modelled time is untouched).
std::vector<BlockRecord> Phase2UnpackBatch(const BlockLayout& layout,
                                           std::int64_t i,
                                           std::vector<ListRecord>&& records,
                                           sparklet::TaskContext& tc);
std::vector<BlockRecord> Phase3UnpackBatch(const BlockLayout& layout,
                                           std::int64_t i,
                                           std::vector<ListRecord>&& records,
                                           sparklet::TaskContext& tc);

}  // namespace apspark::apsp
