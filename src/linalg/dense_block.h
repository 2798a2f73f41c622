// DenseBlock: a dense, row-major matrix of path lengths.
//
// This is the unit of data the paper stores per RDD record ("we will store
// each block A_IJ as a dense matrix", §4). Missing edges are +infinity.
//
// Phantom blocks
// --------------
// A DenseBlock may be *phantom*: it knows its shape and exact serialized size
// but carries no numeric payload. Phantom blocks let paper-scale experiments
// (n = 262,144 would need ~512 GiB of block data) run the full engine control
// path — partitioning, shuffle and storage byte accounting, scheduling —
// while kernels charge the calibrated cost model instead of executing.
// Any kernel that touches a phantom operand yields a phantom result.
//
// Bit-packed blocks
// -----------------
// A DenseBlock may be *bit-packed*: a boolean-semiring block stored as one
// bit per entry (64 vertices per 64-bit word, row-major words, column c at
// bit c % 64 of word c / 64, LSB first) instead of one double. That is the
// 64x representation that makes n = 65536 reachability feasible where dense
// doubles never were: the word rows feed word-parallel or/and kernels, and
// SerializedBytes() / the MemoryAccountant charge the packed footprint.
// At()/Set() remain valid on packed blocks (reading 1.0/0.0, writing any
// nonzero as 1), so slicing, assembly and tests work transparently; the raw
// Row()/data() double pointers are dense-only. A phantom block can also be
// packed (PackedPhantom): model runs then charge packed bytes, keeping real
// and phantom accounting identical.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "common/status.h"

namespace apspark::linalg {

/// Path length of a missing edge / unreached pair.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

class DenseBlock;
using BlockPtr = std::shared_ptr<const DenseBlock>;

// ---------------------------------------------------------------------------
// Deep-copy accounting (the zero-copy data plane's debug instrument)
// ---------------------------------------------------------------------------
//
// Every duplication of a materialized block payload — copy construction,
// copy assignment, or a Deserialize() materialization — increments the
// registry counter `block_copies_total`; copies made under a CowScope also
// increment `block_copies_sanctioned_total`. Sanctioned copies are the
// explicit copy-on-write mutation sites (a kernel taking a private copy of
// its base block before updating it in place, a checkpoint re-materializing
// durable bytes). The data-plane regression tests assert that the
// unsanctioned count stays at zero across whole solves: shuffle buckets,
// cached partitions, staged reads, and driver collects move refs, never
// payloads. Counting is two sharded counter increments per O(b^2) copy, so
// it stays enabled in release builds too.

struct BlockCopyStats {
  /// Deep copies of materialized payloads since process start.
  static std::uint64_t TotalCopies() noexcept;
  /// Copies made under a CowScope (explicit copy-on-write mutation sites).
  static std::uint64_t SanctionedCopies() noexcept;
  /// TotalCopies() - SanctionedCopies(): must stay flat across a solve.
  static std::uint64_t UnsanctionedCopies() noexcept;
};

/// RAII marker: block copies on *this thread* inside the scope are explicit
/// copy-on-write mutation sites. Nests. Kernel workers open one around their
/// base-block copy, so pool-thread copies are attributed correctly.
class CowScope {
 public:
  CowScope() noexcept;
  ~CowScope();
  CowScope(const CowScope&) = delete;
  CowScope& operator=(const CowScope&) = delete;
};

class DenseBlock {
 public:
  /// An empty 0x0 block.
  DenseBlock() = default;

  /// Materialized block filled with `fill`.
  DenseBlock(std::int64_t rows, std::int64_t cols, double fill = kInf);

  /// Materialized block adopting `data` (size must be rows*cols).
  DenseBlock(std::int64_t rows, std::int64_t cols, std::vector<double> data);

  /// Shape-only phantom block (see file comment).
  static DenseBlock Phantom(std::int64_t rows, std::int64_t cols);

  /// Bit-packed boolean block, all bits = `fill` (must be 0.0 or 1.0).
  static DenseBlock PackedBoolean(std::int64_t rows, std::int64_t cols,
                                  double fill = 0.0);

  /// Shape-only phantom that *accounts* as bit-packed: SerializedBytes()
  /// reports the packed footprint, so model runs charge what the real
  /// packed plane would.
  static DenseBlock PackedPhantom(std::int64_t rows, std::int64_t cols);

  // Copies of materialized payloads are counted (see BlockCopyStats above);
  // moves stay free. Defined out of line so the accounting lives in one
  // place. Dense payloads come from and go back to the block buffer pool
  // (linalg/block_pool.h): the destructor and both assignments release the
  // payload they drop.
  DenseBlock(const DenseBlock& other);
  DenseBlock& operator=(const DenseBlock& other);
  DenseBlock(DenseBlock&&) noexcept = default;
  DenseBlock& operator=(DenseBlock&& other) noexcept;
  ~DenseBlock();

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  std::int64_t size() const noexcept { return rows_ * cols_; }
  bool is_phantom() const noexcept { return phantom_; }
  bool is_packed() const noexcept { return packed_; }

  /// Element access (materialized blocks only; transparently packed-aware).
  double At(std::int64_t r, std::int64_t c) const {
    if (packed_) return GetBit(r, c) ? 1.0 : 0.0;
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  void Set(std::int64_t r, std::int64_t c, double v) {
    if (packed_) {
      SetBit(r, c, v != 0.0);
      return;
    }
    data_[static_cast<std::size_t>(r * cols_ + c)] = v;
  }

  const double* data() const noexcept { return data_.data(); }
  double* mutable_data() noexcept { return data_.data(); }
  double* begin() noexcept { return data_.data(); }
  const double* begin() const noexcept { return data_.data(); }
  const double* end() const noexcept { return data_.data() + data_.size(); }

  /// Row pointer (materialized dense blocks only).
  const double* Row(std::int64_t r) const noexcept {
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }
  double* MutableRow(std::int64_t r) noexcept {
    return data_.data() + static_cast<std::size_t>(r * cols_);
  }

  // --- bit-packed plane (materialized packed blocks only) ---

  /// 64-bit words per packed row: ceil(cols / 64).
  std::int64_t words_per_row() const noexcept { return words_per_row_; }
  const std::uint64_t* WordRow(std::int64_t r) const noexcept {
    return words_.data() + static_cast<std::size_t>(r * words_per_row_);
  }
  std::uint64_t* MutableWordRow(std::int64_t r) noexcept {
    return words_.data() + static_cast<std::size_t>(r * words_per_row_);
  }
  bool GetBit(std::int64_t r, std::int64_t c) const noexcept {
    return (WordRow(r)[c >> 6] >> (c & 63)) & 1u;
  }
  void SetBit(std::int64_t r, std::int64_t c, bool v) noexcept {
    std::uint64_t& w = MutableWordRow(r)[c >> 6];
    const std::uint64_t mask = std::uint64_t{1} << (c & 63);
    w = v ? (w | mask) : (w & ~mask);
  }

  /// Dense 0/1 copy of a packed block (phantom packed -> plain phantom).
  DenseBlock Unpacked() const;
  /// Packed copy of a dense boolean block: entries must already be 0/1-valued
  /// under `nonzero is 1` (any nonzero packs as 1). Phantom -> PackedPhantom.
  DenseBlock BitPacked() const;

  /// Exact number of bytes Serialize() would produce. Identical for phantom
  /// and materialized blocks of the same shape *and representation*: the
  /// virtual cluster charges the bytes the real block would occupy on disk
  /// or on the wire — packed blocks charge their word payload (~1/64 of the
  /// dense doubles).
  std::uint64_t SerializedBytes() const noexcept;

  /// Flat binary encoding: header (rows, cols, flags byte: bit 0 = phantom,
  /// bit 1 = packed) + payload (doubles, or packed words). Phantom blocks
  /// encode the header only but report full SerializedBytes() for
  /// accounting.
  static constexpr std::uint64_t kSerializedHeaderBytes = 8 + 8 + 1;
  static constexpr std::uint8_t kSerializedPhantomFlag = 1;
  static constexpr std::uint8_t kSerializedPackedFlag = 2;
  void Serialize(BinaryWriter& writer) const;
  static Result<DenseBlock> Deserialize(BinaryReader& reader);

  /// Extracts column `c` as a rows x 1 block (paper's ExtractCol).
  DenseBlock Column(std::int64_t c) const;

  /// Extracts row `r` as a 1 x cols block.
  DenseBlock RowBlock(std::int64_t r) const;

  /// Transposed copy (paper generates A_JI from A_IJ on demand).
  DenseBlock Transposed() const;

  /// Square sub-matrix copy [r0, r0+h) x [c0, c0+w).
  DenseBlock SubBlock(std::int64_t r0, std::int64_t c0, std::int64_t h,
                      std::int64_t w) const;

  /// Horizontal panel copy: rows [r0, r0+h) at full width — the unit a
  /// blocked k-source frontier is decomposed into (one panel per block row).
  DenseBlock RowPanel(std::int64_t r0, std::int64_t h) const;

  /// Writes `panel` (h x cols()) back over rows [r0, r0+h): reassembles a
  /// full frontier from its per-block-row panels. Materialized blocks only;
  /// representations must match (both packed or both dense).
  void PasteRowPanel(std::int64_t r0, const DenseBlock& panel);

  /// True when every entry is +inf — the "this block carries no path at all"
  /// predicate behind the KSSP early-exit pivot sweep under min-plus (see
  /// linalg::BlockAllZero for the semiring-generic form). Phantom blocks
  /// return false: their structure is unknown, so callers must not skip
  /// work. Packed blocks hold booleans, never +inf, so they return false.
  bool AllInfinite() const noexcept;

  /// True if every finite entry matches `other` within `tol` and the
  /// infinity patterns agree. Phantom blocks compare by shape only; packed
  /// and dense blocks compare by value (a packed block equals its dense 0/1
  /// image).
  bool ApproxEquals(const DenseBlock& other, double tol = 1e-9) const;

  /// Maximum absolute difference over matching finite entries; kInf if the
  /// shapes or infinity patterns differ.
  double MaxAbsDiff(const DenseBlock& other) const;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  bool phantom_ = false;
  bool packed_ = false;
  std::vector<double> data_;
  std::vector<std::uint64_t> words_;
};

/// Convenience: shared-pointer wrapper used throughout the engine.
inline BlockPtr MakeBlock(DenseBlock block) {
  return std::make_shared<const DenseBlock>(std::move(block));
}

/// Cache-tiled out-of-place transpose of a rows x cols row-major matrix at
/// `src` (leading dimension lds) into the cols x rows matrix at `dst`
/// (leading dimension ldd). Dense doubles only; the regions must not
/// overlap.
void TransposeRaw(std::int64_t rows, std::int64_t cols, const double* src,
                  std::int64_t lds, double* dst, std::int64_t ldd);

/// n x k source frontier for batched k-source sweeps: column j carries the
/// semiring one (`one`, default min-plus 0) at row unit_rows[j] and the
/// semiring zero (`zero`, default +inf) everywhere else — the identity
/// columns selecting the sources. Duplicate rows are allowed (the same
/// source may be asked for more than once, e.g. when k > n).
DenseBlock FrontierPanel(std::int64_t rows,
                         const std::vector<std::int64_t>& unit_rows,
                         double zero = kInf, double one = 0.0);

}  // namespace apspark::linalg
