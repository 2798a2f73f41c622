#include "apsp/block_layout.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/math_utils.h"
#include "linalg/kernel_registry.h"

namespace apspark::apsp {
namespace {

/// Host work of moving one element between the matrix and a block, in the
/// multiply-add units of KernelTuning::parallel_grain_ops. On the reference
/// host (4-core AVX-512 VM, n = 2048) cutting a block out of the matrix
/// costs about 0.85 ns per element and placing one back about 3 ns per
/// written element (its strided mirror half dominates), against about
/// 0.11 ns per tiled multiply-add; the lower ratio keeps small layouts
/// inline.
constexpr std::int64_t kOpsPerMovedElement = 8;

}  // namespace

BlockLayout::BlockLayout(std::int64_t n, std::int64_t block_size,
                         bool directed)
    : n_(n), b_(block_size), q_(CeilDiv(n, block_size)), directed_(directed) {
  if (n <= 0 || block_size <= 0) {
    throw std::invalid_argument("BlockLayout: n and block size must be > 0");
  }
}

std::int64_t BlockLayout::BlockDim(std::int64_t index) const noexcept {
  return std::min(b_, n_ - index * b_);
}

std::int64_t BlockLayout::StoredBlockCount() const noexcept {
  return directed_ ? q_ * q_ : q_ * (q_ + 1) / 2;
}

bool BlockLayout::Stores(const BlockKey& key) const noexcept {
  if (key.I < 0 || key.J < 0 || key.I >= q_ || key.J >= q_) return false;
  return directed_ || key.I <= key.J;
}

BlockKey BlockLayout::Canonical(std::int64_t i_block,
                                std::int64_t j_block) const noexcept {
  if (directed_ || i_block <= j_block) return {i_block, j_block};
  return {j_block, i_block};
}

std::vector<BlockKey> BlockLayout::StoredKeys() const {
  std::vector<BlockKey> keys;
  keys.reserve(static_cast<std::size_t>(StoredBlockCount()));
  for (std::int64_t i = 0; i < q_; ++i) {
    for (std::int64_t j = directed_ ? 0 : i; j < q_; ++j) {
      keys.push_back({i, j});
    }
  }
  return keys;
}

bool BlockLayout::InColumnCross(const BlockKey& key,
                                std::int64_t x) const noexcept {
  // Undirected storage: the upper-triangular block carries data of column x
  // whenever either index is x (the mirrored half is served by transpose).
  // Directed (full) storage: column x is exactly the keys with J == x.
  if (directed_) return key.J == x;
  return key.I == x || key.J == x;
}

bool BlockLayout::InCross(const BlockKey& key, std::int64_t x) const noexcept {
  return key.I == x || key.J == x;
}

std::vector<BlockRecord> BlockLayout::Decompose(
    const linalg::DenseBlock& matrix) const {
  if (matrix.rows() != n_ || matrix.cols() != n_) {
    throw std::invalid_argument("Decompose: matrix shape does not match layout");
  }
  if (matrix.is_phantom()) return DecomposePhantom(matrix.is_packed());
  // Every block is an independent copy out of the read-only matrix, so the
  // blocks fan out on the kernel pool.
  const std::vector<BlockKey> keys = StoredKeys();
  std::vector<std::int64_t> work;
  work.reserve(keys.size());
  for (const BlockKey& key : keys) {
    work.push_back(BlockDim(key.I) * BlockDim(key.J) * kOpsPerMovedElement);
  }
  std::vector<BlockRecord> records(keys.size());
  linalg::ForEachByHostWork(work, [&](std::size_t r) {
    const BlockKey& key = keys[r];
    records[r] = {key, linalg::MakeBlock(matrix.SubBlock(
                           key.I * b_, key.J * b_, BlockDim(key.I),
                           BlockDim(key.J)))};
  });
  return records;
}

std::vector<BlockRecord> BlockLayout::DecomposePhantom(bool packed) const {
  std::vector<BlockRecord> records;
  records.reserve(static_cast<std::size_t>(StoredBlockCount()));
  for (const BlockKey& key : StoredKeys()) {
    records.emplace_back(
        key, linalg::MakeBlock(
                 packed ? linalg::DenseBlock::PackedPhantom(BlockDim(key.I),
                                                            BlockDim(key.J))
                        : linalg::DenseBlock::Phantom(BlockDim(key.I),
                                                      BlockDim(key.J))));
  }
  return records;
}

std::vector<PanelRecord> BlockLayout::DecomposeFrontier(
    const linalg::DenseBlock& frontier) const {
  std::vector<PanelRecord> panels;
  panels.reserve(static_cast<std::size_t>(q_));
  for (std::int64_t i = 0; i < q_; ++i) {
    panels.push_back(
        {i, linalg::MakeBlock(frontier.RowPanel(i * b_, BlockDim(i)))});
  }
  return panels;
}

linalg::DenseBlock BlockLayout::AssembleFrontier(
    const std::vector<PanelRecord>& panels, double fill) const {
  const std::int64_t k = panels.empty() ? 0 : panels.front().second->cols();
  linalg::DenseBlock out(n_, k, fill);
  for (const auto& [index, panel] : panels) {
    out.PasteRowPanel(index * b_, *panel);
  }
  return out;
}

Result<linalg::DenseBlock> BlockLayout::Assemble(
    const std::vector<BlockRecord>& records) const {
  // Validate every record before writing anything: each stored key must
  // appear exactly once with exactly its layout shape, which is what makes
  // the destination regions below disjoint and in bounds.
  const bool packed = !records.empty() && records.front().second &&
                      records.front().second->is_packed();
  std::vector<char> seen(static_cast<std::size_t>(q_ * q_), 0);
  for (const auto& [key, block] : records) {
    if (!Stores(key)) {
      return InvalidArgumentError("Assemble: non-canonical key " +
                                  key.ToString());
    }
    if (!block || block->is_phantom()) {
      return FailedPreconditionError(
          "Assemble: phantom or missing payload at " + key.ToString());
    }
    if (block->rows() != BlockDim(key.I) || block->cols() != BlockDim(key.J)) {
      return FailedPreconditionError(
          "Assemble: block " + key.ToString() + " is " +
          std::to_string(block->rows()) + "x" + std::to_string(block->cols()) +
          ", layout expects " + std::to_string(BlockDim(key.I)) + "x" +
          std::to_string(BlockDim(key.J)));
    }
    if (block->is_packed() != packed) {
      return FailedPreconditionError(
          "Assemble: packed and dense payloads mixed at " + key.ToString());
    }
    char& placed = seen[static_cast<std::size_t>(key.I * q_ + key.J)];
    if (placed != 0) {
      return FailedPreconditionError("Assemble: duplicate block " +
                                     key.ToString());
    }
    placed = 1;
  }
  if (static_cast<std::int64_t>(records.size()) != StoredBlockCount()) {
    return FailedPreconditionError(
        "Assemble: expected " + std::to_string(StoredBlockCount()) +
        " blocks, got " + std::to_string(records.size()));
  }

  if (packed) {
    // A bit-packed solve assembles into a bit-packed matrix (n = 65536
    // packed reachability is 512 MiB; the dense-double image would be
    // 32 GiB). Neighbouring blocks can share a word, so this stays a
    // sequential bit-by-bit copy.
    linalg::DenseBlock out = linalg::DenseBlock::PackedBoolean(n_, n_);
    for (const auto& [key, block] : records) {
      const std::int64_t r0 = key.I * b_;
      const std::int64_t c0 = key.J * b_;
      for (std::int64_t r = 0; r < block->rows(); ++r) {
        for (std::int64_t c = 0; c < block->cols(); ++c) {
          out.Set(r0 + r, c0 + c, block->At(r, c));
          if (!directed_ && key.I != key.J) {
            out.Set(c0 + c, r0 + r, block->At(r, c));
          }
        }
      }
    }
    return out;
  }

  // Dense: row memcpy plus a tiled mirror per block. The records tile the
  // matrix exactly once, so every cell is written and no two blocks share
  // a destination element — blocks fan out on the kernel pool.
  linalg::DenseBlock out(n_, n_, linalg::kInf);
  double* dst = out.mutable_data();
  std::vector<std::int64_t> work;
  work.reserve(records.size());
  for (const auto& [key, block] : records) {
    const std::int64_t writes =
        block->size() * (!directed_ && key.I != key.J ? 2 : 1);
    work.push_back(writes * kOpsPerMovedElement);
  }
  linalg::ForEachByHostWork(work, [&](std::size_t r) {
    const auto& [key, block] = records[r];
    const std::int64_t rows = block->rows();
    const std::int64_t cols = block->cols();
    const std::int64_t r0 = key.I * b_;
    const std::int64_t c0 = key.J * b_;
    for (std::int64_t i = 0; i < rows; ++i) {
      std::memcpy(dst + (r0 + i) * n_ + c0, block->Row(i),
                  static_cast<std::size_t>(cols) * sizeof(double));
    }
    if (!directed_ && key.I != key.J) {
      linalg::TransposeRaw(rows, cols, block->data(), cols, dst + c0 * n_ + r0,
                           n_);
    }
  });
  return out;
}

linalg::DenseBlock BlockLayout::Orient(const BlockKey& canonical,
                                       const linalg::DenseBlock& payload,
                                       std::int64_t i_block,
                                       std::int64_t j_block) {
  if (canonical.I == i_block && canonical.J == j_block) return payload;
  return payload.Transposed();
}

}  // namespace apspark::apsp
