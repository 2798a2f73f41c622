// BlockLayout: geometry of the q x q decomposition of an n x n matrix
// (q = ceil(n/b)), plus decomposition/assembly between dense matrices and
// RDD block records.
//
// Undirected graphs store only the canonical upper triangle (I <= J); the
// block for any (I, J) is obtained from the canonical record by transposing
// when needed, "with no measurable overheads" (§4). Directed graphs store
// all q^2 blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "apsp/block_key.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"

namespace apspark::apsp {

class BlockLayout {
 public:
  BlockLayout(std::int64_t n, std::int64_t block_size, bool directed = false);

  std::int64_t n() const noexcept { return n_; }
  std::int64_t block_size() const noexcept { return b_; }
  std::int64_t q() const noexcept { return q_; }
  bool directed() const noexcept { return directed_; }

  /// Rows in block-row I (== b except possibly the last).
  std::int64_t BlockDim(std::int64_t index) const noexcept;

  /// Number of stored blocks: q(q+1)/2 upper-triangular, or q^2 directed.
  std::int64_t StoredBlockCount() const noexcept;

  /// True if (I, J) is a key this layout stores canonically.
  bool Stores(const BlockKey& key) const noexcept;

  /// Canonical key covering logical position (I, J).
  BlockKey Canonical(std::int64_t i_block, std::int64_t j_block) const noexcept;

  /// All stored keys, row-major.
  std::vector<BlockKey> StoredKeys() const;

  /// True if the stored block `key` carries data of logical column-block x
  /// or (for undirected storage) row-block x — the paper's InColumn
  /// predicate applied to symmetric storage.
  bool InColumnCross(const BlockKey& key, std::int64_t x) const noexcept;

  /// True if the stored block lies in the row-or-column cross of index x —
  /// what the blocked algorithms' Phase 2 updates (identical to
  /// InColumnCross for undirected storage).
  bool InCross(const BlockKey& key, std::int64_t x) const noexcept;

  /// Decomposes a dense n x n matrix into stored block records.
  std::vector<BlockRecord> Decompose(const linalg::DenseBlock& matrix) const;

  /// Shape-only records for paper-scale model runs. With `packed` the
  /// phantoms account as bit-packed boolean blocks (packed serialized
  /// bytes), so a boolean model run charges the packed plane's footprint.
  std::vector<BlockRecord> DecomposePhantom(bool packed = false) const;

  /// Reassembles a full n x n matrix from stored records (mirrors the upper
  /// triangle for undirected layouts). Missing blocks are an error.
  Result<linalg::DenseBlock> Assemble(
      const std::vector<BlockRecord>& records) const;

  /// Decomposes an n x k k-source frontier (real or phantom) into one panel
  /// record per block row.
  std::vector<PanelRecord> DecomposeFrontier(
      const linalg::DenseBlock& frontier) const;

  /// Pastes per-block-row panels back into the n x k frontier; rows no
  /// panel covers keep `fill`.
  linalg::DenseBlock AssembleFrontier(const std::vector<PanelRecord>& panels,
                                      double fill) const;

  /// Logical block at (I, J) given the canonical record's payload:
  /// transposes when (I, J) is the mirrored position.
  static linalg::DenseBlock Orient(const BlockKey& canonical,
                                   const linalg::DenseBlock& payload,
                                   std::int64_t i_block, std::int64_t j_block);

 private:
  std::int64_t n_;
  std::int64_t b_;
  std::int64_t q_;
  bool directed_;
};

}  // namespace apspark::apsp
