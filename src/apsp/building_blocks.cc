#include "apsp/building_blocks.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "common/thread_pool.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"

namespace apspark::apsp {

using linalg::BlockRef;
using linalg::DenseBlock;

bool InColumn(const BlockLayout& layout, const BlockKey& key, std::int64_t x) {
  return layout.InColumnCross(key, x);
}

bool OnDiagonal(const BlockKey& key, std::int64_t x) {
  return key.I == x && key.J == x;
}

BlockRef MatProd(const BlockRef& a, const BlockRef& b,
                 sparklet::TaskContext& tc) {
  tc.ChargeCompute(
      tc.cost_model().MinPlusSeconds(a->rows(), b->cols(), a->cols()) *
      tc.cost_model().BitpackScale(a->is_packed()));
  return linalg::MakeBlock(linalg::MinPlusProduct(*a, *b));
}

BlockRef MatMin(const BlockRef& a, const BlockRef& b,
                sparklet::TaskContext& tc) {
  tc.ChargeCompute(tc.cost_model().ElementwiseSeconds(a->size()) *
                   tc.cost_model().BitpackScale(a->is_packed()));
  return linalg::MakeBlock(linalg::ElementMin(*a, *b));
}

namespace {

/// One fused min-plus update c = min(base, left ⊗ right): the planning /
/// charging / numeric-execution split lets the batch unpackers charge the
/// cost model sequentially while fanning the arithmetic out on the pool.
struct FusedUpdate {
  BlockKey key;
  BlockRef base;
  BlockRef left;
  BlockRef right;
};

/// Modelled seconds of one fused update: exactly what the unfused MatProd +
/// MatMin pair charged, so the modelled cluster time is unchanged by fusion.
double FusedChargeSeconds(const FusedUpdate& u, sparklet::TaskContext& tc) {
  return (tc.cost_model().MinPlusSeconds(u.left->rows(), u.right->cols(),
                                         u.left->cols()) +
          tc.cost_model().ElementwiseSeconds(u.base->size())) *
         tc.cost_model().BitpackScale(u.base->is_packed());
}

void ChargeFused(const FusedUpdate& u, sparklet::TaskContext& tc) {
  tc.ChargeCompute(FusedChargeSeconds(u, tc));
}

/// Charges one task's independent kernel pieces: the ordered sequential sum
/// when intra_task_cores == 1 (bitwise identical to the historical
/// per-update charging), the LPT intra-task makespan otherwise.
void ChargeIntraTask(std::vector<double>&& pieces, sparklet::TaskContext& tc) {
  if (tc.cost_model().intra_task_cores <= 1) {
    for (double piece : pieces) tc.ChargeCompute(piece);
    return;
  }
  tc.ChargeCompute(tc.cost_model().IntraTaskSpan(std::move(pieces)));
}

/// Pure numeric part (no TaskContext): safe to run on any host thread. The
/// base copy is the data plane's sanctioned copy-on-write mutation site.
BlockRef RunFused(const FusedUpdate& u) {
  DenseBlock out = u.base.MutableCopy();
  linalg::MinPlusUpdate(*u.left, *u.right, out);
  return linalg::MakeBlock(std::move(out));
}

/// Host work of one fused update on this machine, in multiply-adds (the
/// unit of KernelTuning::parallel_grain_ops): the m x n x k product, a 64th
/// of it on the bit-packed plane, whose word kernels fold 64 lanes at once.
std::int64_t HostOps(const BlockRef& left, const BlockRef& right) {
  const std::int64_t ops = left->rows() * right->cols() * left->cols();
  return left->is_packed() ? ops / 64 : ops;
}

}  // namespace

BlockRef MinPlusInto(const BlockRef& base, const BlockRef& a,
                     const BlockRef& b, sparklet::TaskContext& tc) {
  FusedUpdate update{BlockKey{}, base, a, b};
  ChargeFused(update, tc);
  return RunFused(update);
}

BlockRef MinPlus(const BlockRef& a, const BlockRef& b,
                 sparklet::TaskContext& tc) {
  return MinPlusInto(a, a, b, tc);
}

BlockRef MinPlusRect(const BlockRef& base, const BlockRef& a,
                     const BlockRef& panel, sparklet::TaskContext& tc) {
  tc.ChargeCompute(
      (tc.cost_model().MinPlusSeconds(a->rows(), panel->cols(), a->cols()) +
       tc.cost_model().ElementwiseSeconds(base->size())) *
      tc.cost_model().BitpackScale(base->is_packed()));
  DenseBlock out = base.MutableCopy();
  linalg::MinPlusUpdateRect(*a, *panel, out);
  return linalg::MakeBlock(std::move(out));
}

namespace {

/// Shared body of the fused-triple batches: charge every update through the
/// intra-task schedule (the same formula as FusedChargeSeconds), then run
/// `kernel(left, right, c)` per triple as stealable tasks.
std::vector<BlockRef> RunTripleBatch(
    std::vector<FusedTriple>&& updates, sparklet::TaskContext& tc,
    void (*kernel)(const DenseBlock&, const DenseBlock&, DenseBlock&)) {
  std::vector<double> pieces;
  pieces.reserve(updates.size());
  for (const FusedTriple& u : updates) {
    pieces.push_back(
        FusedChargeSeconds(FusedUpdate{BlockKey{}, u.base, u.left, u.right},
                           tc));
  }
  ChargeIntraTask(std::move(pieces), tc);
  std::vector<std::int64_t> work;
  work.reserve(updates.size());
  for (const FusedTriple& u : updates) work.push_back(HostOps(u.left, u.right));
  std::vector<BlockRef> out(updates.size());
  linalg::ForEachByHostWork(work, [&](std::size_t i) {
    DenseBlock c = updates[i].base.MutableCopy();
    kernel(*updates[i].left, *updates[i].right, c);
    out[i] = linalg::MakeBlock(std::move(c));
  });
  return out;
}

}  // namespace

std::vector<BlockRef> MinPlusIntoBatch(std::vector<FusedTriple>&& updates,
                                       sparklet::TaskContext& tc) {
  return RunTripleBatch(std::move(updates), tc, linalg::MinPlusUpdate);
}

std::vector<BlockRef> MinPlusRectBatch(std::vector<FusedTriple>&& updates,
                                       sparklet::TaskContext& tc) {
  return RunTripleBatch(std::move(updates), tc, linalg::MinPlusUpdateRect);
}

BlockRef FloydWarshall(const BlockRef& a, sparklet::TaskContext& tc) {
  tc.ChargeCompute(tc.cost_model().FloydWarshallSeconds(a->rows()) *
                   tc.cost_model().BitpackScale(a->is_packed()));
  DenseBlock closed = a.MutableCopy();
  linalg::FloydWarshallInPlace(closed);
  return linalg::MakeBlock(std::move(closed));
}

namespace {

void ChargeTranspose(const BlockRef& a, sparklet::TaskContext& tc) {
  tc.ChargeCompute(tc.cost_model().ElementwiseSeconds(a->size()) *
                   tc.cost_model().BitpackScale(a->is_packed()));
}

}  // namespace

BlockRef Transpose(const BlockRef& a, sparklet::TaskContext& tc) {
  ChargeTranspose(a, tc);
  return linalg::MakeBlock(a->Transposed());
}

BlockRef TransposeMemo::Get(const BlockRef& source) {
  auto it = entries_.find(source.get());
  if (it != entries_.end()) return it->second.transposed;
  BlockRef transposed = linalg::MakeBlock(source->Transposed());
  entries_.emplace(source.get(), Entry{source, transposed});
  // Transposition is an exact permutation, so the source is also the
  // transpose of the result: a later request for it costs nothing.
  entries_.emplace(transposed.get(), Entry{transposed, source});
  return transposed;
}

BlockRef Transpose(const BlockRef& a, sparklet::TaskContext& tc,
                   TransposeMemo& memo) {
  ChargeTranspose(a, tc);
  return memo.Get(a);
}

std::pair<std::int64_t, BlockRef> ExtractColSegment(
    const BlockLayout& layout, const BlockRecord& record, std::int64_t k,
    sparklet::TaskContext& tc) {
  const std::int64_t big_k = k / layout.block_size();
  const std::int64_t k_loc = k % layout.block_size();
  const auto& [key, block] = record;
  tc.ChargeCompute(
      tc.cost_model().ElementwiseSeconds(
          std::max(block->rows(), block->cols())) *
      tc.cost_model().BitpackScale(block->is_packed()));
  if (key.J == big_k) {
    // Stored block provides rows of column k for row-block I.
    return {key.I, linalg::MakeBlock(block->Column(k_loc))};
  }
  if (key.I != big_k) {
    throw std::invalid_argument("ExtractColSegment: block not in column " +
                                std::to_string(big_k));
  }
  // Transposed view: row k_loc of A_(K,J) is column k of row-block J.
  return {key.J,
          linalg::MakeBlock(block->RowBlock(k_loc).Transposed())};
}

std::pair<std::int64_t, BlockRef> ExtractRowSegment(
    const BlockLayout& layout, const BlockRecord& record, std::int64_t k,
    sparklet::TaskContext& tc) {
  const std::int64_t big_k = k / layout.block_size();
  const std::int64_t k_loc = k % layout.block_size();
  const auto& [key, block] = record;
  if (key.I != big_k) {
    throw std::invalid_argument("ExtractRowSegment: block not in row " +
                                std::to_string(big_k));
  }
  tc.ChargeCompute(tc.cost_model().ElementwiseSeconds(block->cols()) *
                   tc.cost_model().BitpackScale(block->is_packed()));
  return {key.J, linalg::MakeBlock(block->RowBlock(k_loc).Transposed())};
}

BlockRecord FloydWarshallUpdate(
    const BlockLayout& layout, const BlockRecord& record,
    const std::vector<linalg::BlockRef>& column_segments,
    const std::vector<linalg::BlockRef>& row_segments,
    sparklet::TaskContext& tc) {
  (void)layout;
  const auto& [key, block] = record;
  const BlockRef& u = column_segments[static_cast<std::size_t>(key.I)];
  const BlockRef& v = row_segments[static_cast<std::size_t>(key.J)];
  tc.ChargeCompute(tc.cost_model().ElementwiseSeconds(block->size()) *
                   tc.cost_model().BitpackScale(block->is_packed()));
  DenseBlock updated = block.MutableCopy();
  linalg::OuterSumMinUpdate(updated, *u, *v);
  return {key, linalg::MakeBlock(std::move(updated))};
}

BlockRecord FloydWarshallUpdate(
    const BlockLayout& layout, const BlockRecord& record,
    const std::vector<linalg::BlockRef>& column_segments,
    sparklet::TaskContext& tc) {
  return FloydWarshallUpdate(layout, record, column_segments, column_segments,
                             tc);
}

std::vector<BlockRecord> FloydWarshallUpdateBatch(
    std::vector<BlockRecord>&& records,
    const std::vector<linalg::BlockRef>& column_segments,
    const std::vector<linalg::BlockRef>& row_segments,
    sparklet::TaskContext& tc) {
  std::vector<double> pieces;
  pieces.reserve(records.size());
  std::vector<std::int64_t> work;
  work.reserve(records.size());
  for (const auto& [key, block] : records) {
    pieces.push_back(tc.cost_model().ElementwiseSeconds(block->size()) *
                     tc.cost_model().BitpackScale(block->is_packed()));
    // One add-and-select per element (the outer-sum update).
    work.push_back(block->size());
  }
  ChargeIntraTask(std::move(pieces), tc);
  std::vector<BlockRecord> out(records.size());
  linalg::ForEachByHostWork(work, [&](std::size_t r) {
    const auto& [key, block] = records[r];
    const BlockRef& u = column_segments[static_cast<std::size_t>(key.I)];
    const BlockRef& v = row_segments[static_cast<std::size_t>(key.J)];
    DenseBlock updated = block.MutableCopy();
    linalg::OuterSumMinUpdate(updated, *u, *v);
    out[r] = {key, linalg::MakeBlock(std::move(updated))};
  });
  return out;
}

void CopyDiag(const BlockLayout& layout, std::int64_t i,
              const linalg::BlockRef& diag, std::vector<TaggedRecord>& out) {
  // One copy per cross key, *including* (i, i) itself: the Phase-2 update
  // min(A_ii, A_ii (min,+) D) equals D exactly (the diagonal of A_ii is 0),
  // which is how the closed diagonal block re-enters A.
  for (std::int64_t k = 0; k < layout.q(); ++k) {
    out.push_back({layout.Canonical(k, i), {BlockRole::kDiag, diag}});
    if (layout.directed() && k != i) {
      out.push_back({BlockKey{i, k}, {BlockRole::kDiag, diag}});
    }
  }
}

const linalg::BlockRef* FindRole(const TaggedList& list, BlockRole role) {
  const linalg::BlockRef* found = nullptr;
  for (const TaggedBlock& t : list) {
    if (t.role == role) {
      if (found != nullptr) {
        throw std::logic_error("duplicate role in combine list");
      }
      found = &t.block;
    }
  }
  return found;
}

namespace {

/// Plans one Phase-2 record: either a passthrough result or a fused update.
/// Throws exactly like the original per-record unpack on malformed lists.
std::optional<FusedUpdate> PlanPhase2(std::int64_t i, const ListRecord& record,
                                      BlockRecord& passthrough) {
  const auto& [key, list] = record;
  const linalg::BlockRef* original = FindRole(list, BlockRole::kOriginal);
  const linalg::BlockRef* diag = FindRole(list, BlockRole::kDiag);
  if (original == nullptr || diag == nullptr) {
    throw std::logic_error("Phase2Unpack: expected original + diagonal copy");
  }
  if (OnDiagonal(key, i)) {
    // min(A_ii, A_ii (min,+) D) equals D exactly in the semiring (the
    // diagonal of A_ii is 0); returning D directly avoids floating-point
    // re-rounding of path sums that would break exact symmetry.
    passthrough = {key, *diag};
    return std::nullopt;
  }
  // Orientation matters in the (min,+) semiring: stored (X, i) holds the
  // column-side factor A_Xi and is updated as min(A_Xi, A_Xi (min,+) D);
  // stored (i, X) holds the row-side A_iX, updated as min(A_iX, D (min,+) A_iX).
  if (key.J == i) return FusedUpdate{key, *original, *original, *diag};
  return FusedUpdate{key, *original, *diag, *original};
}

/// Plans one Phase-3 record (same contract as PlanPhase2; `i` is unused but
/// keeps the planner signatures interchangeable for UnpackBatch).
std::optional<FusedUpdate> PlanPhase3(std::int64_t /*i*/,
                                      const ListRecord& record,
                                      BlockRecord& passthrough) {
  const auto& [key, list] = record;
  const linalg::BlockRef* original = FindRole(list, BlockRole::kOriginal);
  if (original == nullptr) {
    throw std::logic_error("Phase3Unpack: missing original block at " +
                           key.ToString());
  }
  const linalg::BlockRef* row = FindRole(list, BlockRole::kRow);
  const linalg::BlockRef* col = FindRole(list, BlockRole::kCol);
  if (row == nullptr && col == nullptr) {
    // Cross blocks were fully updated in Phase 2 and travel alone.
    passthrough = {key, *original};
    return std::nullopt;
  }
  if (row == nullptr || col == nullptr) {
    throw std::logic_error("Phase3Unpack: expected both factors at " +
                           key.ToString());
  }
  // A_UV = min(A_UV, A_Ui (min,+) A_iV).
  return FusedUpdate{key, *original, *row, *col};
}

using PlanFn = std::optional<FusedUpdate> (*)(std::int64_t, const ListRecord&,
                                              BlockRecord&);

/// Shared batch driver: plan sequentially, charge through the intra-task
/// schedule (TaskContext is not thread-safe, so all charging stays on the
/// calling thread), then run the fused numeric updates as stealable tasks.
std::vector<BlockRecord> UnpackBatch(std::vector<ListRecord>&& records,
                                     sparklet::TaskContext& tc,
                                     PlanFn plan, std::int64_t i) {
  std::vector<BlockRecord> out(records.size());
  std::vector<std::pair<std::size_t, FusedUpdate>> pending;
  pending.reserve(records.size());
  std::vector<double> pieces;
  pieces.reserve(records.size());
  std::vector<std::int64_t> work;
  work.reserve(records.size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (auto update = plan(i, records[r], out[r])) {
      pieces.push_back(FusedChargeSeconds(*update, tc));
      work.push_back(HostOps(update->left, update->right));
      pending.emplace_back(r, std::move(*update));
    }
  }
  ChargeIntraTask(std::move(pieces), tc);
  linalg::ForEachByHostWork(work, [&](std::size_t p) {
    out[pending[p].first] = {pending[p].second.key,
                             RunFused(pending[p].second)};
  });
  return out;
}

}  // namespace

BlockRecord Phase2Unpack(const BlockLayout& layout, std::int64_t i,
                         const ListRecord& record, sparklet::TaskContext& tc) {
  (void)layout;
  BlockRecord passthrough;
  if (auto update = PlanPhase2(i, record, passthrough)) {
    ChargeFused(*update, tc);
    return {update->key, RunFused(*update)};
  }
  return passthrough;
}

std::vector<BlockRecord> Phase2UnpackBatch(const BlockLayout& layout,
                                           std::int64_t i,
                                           std::vector<ListRecord>&& records,
                                           sparklet::TaskContext& tc) {
  (void)layout;
  return UnpackBatch(std::move(records), tc, PlanPhase2, i);
}

void CopyCol(const BlockLayout& layout, std::int64_t i,
             const BlockRecord& record, std::vector<TaggedRecord>& out,
             sparklet::TaskContext& tc) {
  const auto& [key, block] = record;
  // X = the non-i index of this cross block.
  const std::int64_t x = key.I == i ? key.J : key.I;
  if (x == i) {
    // The diagonal block: Phase 3 never multiplies through it, so it only
    // re-enters A as itself.
    out.push_back({key, {BlockRole::kOriginal, block}});
    return;
  }
  if (layout.directed()) {
    // Full storage: column block (X, i) provides the left factor A_Xi for
    // every target in row X; row block (i, X) provides the right factor
    // A_iX for every target in column X.
    out.push_back({key, {BlockRole::kOriginal, block}});
    for (std::int64_t v = 0; v < layout.q(); ++v) {
      if (v == i) continue;
      if (key.J == i) {
        out.push_back({BlockKey{x, v}, {BlockRole::kRow, block}});
      } else {
        out.push_back({BlockKey{v, x}, {BlockRole::kCol, block}});
      }
    }
    return;
  }
  // Oriented factors. Stored payload is A_key.I,key.J; derive A_Xi / A_iX.
  const BlockRef col_side =  // A_Xi
      key.J == i ? block : Transpose(block, tc);
  const BlockRef row_side =  // A_iX
      key.I == i ? block : Transpose(block, tc);

  // The updated cross block itself stays in A.
  out.push_back({key, {BlockRole::kOriginal, block}});

  for (std::int64_t v = 0; v < layout.q(); ++v) {
    if (v == i) continue;  // own key already emitted above
    const BlockKey target = layout.Canonical(x, v);
    if (OnDiagonal(target, x)) {
      // Diagonal target needs both factors, both provided by this block.
      out.push_back({target, {BlockRole::kRow, col_side}});
      out.push_back({target, {BlockRole::kCol, row_side}});
      continue;
    }
    if (target.I == x) {
      out.push_back({target, {BlockRole::kRow, col_side}});  // A_Xi
    } else {
      out.push_back({target, {BlockRole::kCol, row_side}});  // A_iX
    }
  }
}

BlockRecord Phase3Unpack(const BlockLayout& layout, std::int64_t i,
                         const ListRecord& record, sparklet::TaskContext& tc) {
  (void)layout;
  BlockRecord passthrough;
  if (auto update = PlanPhase3(i, record, passthrough)) {
    ChargeFused(*update, tc);
    return {update->key, RunFused(*update)};
  }
  return passthrough;
}

std::vector<BlockRecord> Phase3UnpackBatch(const BlockLayout& layout,
                                           std::int64_t i,
                                           std::vector<ListRecord>&& records,
                                           sparklet::TaskContext& tc) {
  (void)layout;
  return UnpackBatch(std::move(records), tc, PlanPhase3, i);
}

}  // namespace apspark::apsp
