// Disk-backed, ref-counted block store: the persistence layer under the
// distance-serving subsystem.
//
// A solve ends at a collected matrix that must fit in RAM. The store turns
// that result into something a service can answer queries against: every
// block of the solved layout is appended to one sealed data file, a
// MANIFEST records the layout geometry and an offset index, and readers map
// the data file and serve lookups straight out of the mapping. (The shape
// follows aomdd's FunctionTableBlock pattern — fixed [start, end) windows
// of one table, reference-counted leases on them — adapted to this
// repository's DenseBlock serialization.)
//
// On-disk layout (two files):
//   <dir>/BLOCKS.bin     every block's window, back to back
//   <dir>/MANIFEST.bin   header + offset index + trailing checksum
// A window is exactly the DenseBlock::Serialize bytes of one block — rows,
// cols, flags, then the doubles or the bit-packed words, so a bit-packed
// boolean solve persists its 64-per-word footprint — at a 64-byte aligned
// offset; the gap up to the next window is zero padding. MANIFEST.bin v3 is
//   magic u64, version u32 (= 3), n i64, b i64, directed u8, semiring u8,
//   has_paths u8, count u64,
//   count x {plane u8, I i64, J i64, offset u64, payload_bytes u64,
//            checksum u64},
//   Checksum64(body, seed 0) u64
// all little-endian. Layouts are limited to 4096 blocks per side (a b = 64
// store of n = 262144) so the per-plane q x q slot index stays bounded.
// Version 2 (an 8-lane Checksum64) and older stores fail Open with
// "unsupported manifest version"; re-persist them.
//
// Checksum64(data, size, seed): 32 FNV-1a lanes over the little-endian
// 64-bit words (word k feeds lane k mod 32; lane l starts at the FNV offset
// basis xor seed, plus l), then one FNV-1a pass folding the 32 lanes, the
// size mod 8 tail bytes and the size. With AVX-512 the 32 lanes are four
// independent 512-bit multiply chains, so hashing is not bound by one
// multiply's latency; a build without AVX2 updates them 8 per pass, which
// gives the same hash. A window's seed is its key,
// (plane << 62) ^ (I << 31) ^ J, so a window that lands at another key's
// offset fails verification. Any change confined to one 64-bit word, so any
// single-byte change, is always detected: every step is a bijection of the
// lane it touches.
//
// Integrity contract: every served byte was checksum-verified since its
// window was last admitted. A window is admitted on its first touch after
// Open or after its eviction: admission verifies its checksum in place and
// checks its header shape against the layout geometry for (I, J). Open
// rejects a manifest whose index could point outside the data file, at
// overlapping or misaligned windows, at duplicate or out-of-layout keys.
// The sealed files must not change while a reader has them mapped.
//
// Caching and ref counting:
//   Fetch() returns a Pin — a lease on an admitted window and a BlockView
//   into the mapping; nothing is copied. While any Pin is live the window
//   cannot be evicted. Admitted bytes — windows verified since their last
//   admission — are kept under Options::cache_capacity_bytes by a CLOCK
//   sweep over unpinned windows (pinned bytes may transiently exceed the
//   cap; the store trims back under it as pins release). Eviction only
//   forgets the verification: the window stays mapped and is re-verified
//   on its next touch. Its clean pages belong to the kernel's page cache
//   (the mapping is read-only and shared), so dropping them would free
//   nothing and only cost the next admission a page fault. Admitted bytes
//   charge/release the driver ledger of an optional MemoryAccountant, so a
//   serving process's verified working set is measured the same way the
//   solvers' is.
//
// Error model: every failure routes through Status — kNotFound for a
// missing directory/manifest/data file or a key the index lacks,
// kStoreCorrupt for anything that fails validation (bad magic, unsupported
// version, checksum mismatch, hostile index, truncated data file, a window
// whose shape disagrees with the layout). The store never throws for
// I/O-shaped failures.
//
// Thread safety: all reader methods are safe to call concurrently. Each
// window has one atomic word packing its state (cold, admitting, admitted)
// and pin count; a hit pins it with a compare-and-swap and takes no lock,
// and Contains() reads the immutable index. A miss moves the word from cold
// to admitting, so concurrent misses on one window verify it once, and the
// verification runs without a lock. Admitting a verified window and the
// CLOCK sweep are serialized by one mutex the hit path never takes; a miss
// makes no system call.
//
// Writer protocol: Create, then Put / PutMatrix, then Seal, from one thread
// at a time. Window sizes follow from the layout, so a write knows every
// window's offset before it encodes one. PutMatrix cuts a whole plane's
// windows straight from the matrix rows: each window is serialized and
// checksummed into a staging buffer as a stealable unit on the kernel pool
// (linalg::ForEachByHostWork), and the windows are appended in file order,
// one sequential write per 4 MiB run. Two staging buffers alternate: run
// r's write is one more unit of run r + 1's encode batch, so the file
// write overlaps the next run's encoding. Both buffers come from the block
// buffer pool (8 MiB in all), so repeated persists reuse their pages. Put
// is the one-window case of the same encoder, so both write the same
// bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "sparklet/memory_accountant.h"

namespace apspark::store {

/// Which logical matrix a block belongs to.
enum class Plane : std::uint8_t {
  kDistance = 0,  // solved distances (canonical triangle when undirected)
  kNext = 1,      // successor matrix for path reconstruction (always q^2)
};

const char* PlaneName(Plane plane) noexcept;

/// Store-wide metadata persisted in the MANIFEST.
struct StoreManifest {
  std::int64_t n = 0;           // matrix dimension
  std::int64_t block_size = 0;  // decomposition parameter b
  bool directed = false;        // distance plane stores q^2 blocks if true
  linalg::SemiringId semiring = linalg::SemiringId::kMinPlus;
  bool has_paths = false;  // successor plane present

  std::int64_t q() const noexcept {
    return block_size > 0 ? n / block_size + (n % block_size != 0 ? 1 : 0)
                          : 0;
  }

  struct Entry {
    Plane plane = Plane::kDistance;
    std::int64_t I = 0;
    std::int64_t J = 0;
    std::uint64_t offset = 0;  // window start in BLOCKS.bin
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;
  };
  std::vector<Entry> entries;
};

/// Non-owning view of one serialized DenseBlock (dense or bit-packed): the
/// serve path's block type. Reads go through memcpy, so the payload needs no
/// alignment, and At() is bitwise equal to DenseBlock::At on the same block.
class BlockView {
 public:
  BlockView() = default;
  /// `bytes` points at a DenseBlock::Serialize encoding whose header the
  /// caller has validated.
  explicit BlockView(const std::uint8_t* bytes) noexcept : bytes_(bytes) {
    std::memcpy(&rows_, bytes, sizeof rows_);
    std::memcpy(&cols_, bytes + sizeof rows_, sizeof cols_);
    packed_ = (bytes[2 * sizeof(std::int64_t)] &
               linalg::DenseBlock::kSerializedPackedFlag) != 0;
    words_per_row_ = (cols_ + 63) / 64;
  }

  std::int64_t rows() const noexcept { return rows_; }
  std::int64_t cols() const noexcept { return cols_; }
  bool is_packed() const noexcept { return packed_; }

  double At(std::int64_t r, std::int64_t c) const noexcept {
    if (packed_) {
      std::uint64_t word;
      std::memcpy(&word, Element(r * words_per_row_ + (c >> 6)), sizeof word);
      return (word >> (c & 63)) & 1u ? 1.0 : 0.0;
    }
    double value;
    std::memcpy(&value, Element(r * cols_ + c), sizeof value);
    return value;
  }

  /// Materialized copy (tests and tools; the serve path never copies).
  linalg::DenseBlock ToDenseBlock() const;

 private:
  /// The i-th 8-byte payload element (a double, or a packed word).
  const std::uint8_t* Element(std::int64_t i) const noexcept {
    return bytes_ + linalg::DenseBlock::kSerializedHeaderBytes + 8 * i;
  }

  const std::uint8_t* bytes_ = nullptr;  // the serialized header
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t words_per_row_ = 0;
  bool packed_ = false;
};

class BlockStore {
 public:
  struct Options {
    /// Admitted-bytes cap the CLOCK eviction maintains. Pinned windows may
    /// transiently push residency above it.
    std::uint64_t cache_capacity_bytes = 256ULL << 20;
    /// Optional byte mirror: admitted windows charge the driver ledger.
    sparklet::MemoryAccountant* accountant = nullptr;
  };

  /// Cache behavior counters (cumulative since Open).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_loaded = 0;
    /// Bytes of the windows admitted (checksum-verified) and not evicted
    /// since: what the cap and the accountant count, exported as the
    /// store_resident_bytes gauge. Not the process's RSS: page residency of
    /// the mapping is the kernel's business.
    std::uint64_t resident_bytes = 0;
    /// High water of resident_bytes.
    std::uint64_t peak_resident_bytes = 0;

    /// Publishes the snapshot as `store_*` gauges in the global metrics
    /// registry; repeated calls overwrite the gauges.
    void Publish() const;
  };

  ~BlockStore();
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  // -- writer protocol ----------------------------------------------------

  /// Creates `dir` (and parents) and starts a fresh store described by
  /// `manifest` (its `entries` are ignored; Put fills them). Refuses a
  /// directory that already holds a manifest.
  static Result<std::unique_ptr<BlockStore>> Create(
      const std::string& dir, const StoreManifest& manifest,
      const Options& options);
  static Result<std::unique_ptr<BlockStore>> Create(
      const std::string& dir, const StoreManifest& manifest) {
    return Create(dir, manifest, Options{});
  }

  /// Appends one block's window to the data file and indexes it. Phantom
  /// blocks are rejected (kFailedPrecondition): a store persists payloads.
  Status Put(Plane plane, std::int64_t I, std::int64_t J,
             const linalg::DenseBlock& block);

  /// Appends every stored block of `plane`, cut from the manifest's n x n
  /// `matrix` (dense or bit-packed): the canonical upper triangle for an
  /// undirected distance plane, all q^2 blocks otherwise, in row-major key
  /// order. The bytes equal those of one Put per block in that order.
  Status PutMatrix(Plane plane, const linalg::DenseBlock& matrix);

  /// Closes the data file and writes the MANIFEST; the store is complete
  /// and ready to Open.
  Status Seal();

  // -- reader protocol ----------------------------------------------------

  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir,
                                                  const Options& options);
  static Result<std::unique_ptr<BlockStore>> Open(const std::string& dir) {
    return Open(dir, Options{});
  }

  /// Lease on an admitted window: while live, the window stays admitted
  /// and block() stays readable. Move-only; dropping it makes the window
  /// evictable again.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { Release(); }

    bool valid() const noexcept { return store_ != nullptr; }
    const BlockView& block() const noexcept { return view_; }

    void Release();

   private:
    friend class BlockStore;
    Pin(BlockStore* store, std::size_t window, BlockView view) noexcept
        : store_(store), window_(window), view_(view) {}

    BlockStore* store_ = nullptr;
    std::size_t window_ = 0;
    BlockView view_;
  };

  /// Pins block (I, J) of `plane`, admitting its window first if it is not
  /// admitted. kNotFound if the manifest has no such block; kStoreCorrupt
  /// if the window fails verification.
  Result<Pin> Fetch(Plane plane, std::int64_t I, std::int64_t J);

  /// True if the manifest indexes block (I, J) of `plane`.
  bool Contains(Plane plane, std::int64_t I, std::int64_t J) const noexcept {
    return Find(plane, I, J) >= 0;
  }

  const StoreManifest& manifest() const noexcept { return manifest_; }
  const std::string& directory() const noexcept { return dir_; }
  Stats stats() const noexcept;
  std::uint64_t resident_bytes() const noexcept {
    return resident_bytes_.load();
  }
  /// Total persisted payload bytes across all planes (from the manifest).
  std::uint64_t total_payload_bytes() const noexcept;

 private:
  BlockStore(std::string dir, StoreManifest manifest, Options options,
             bool writable);

  /// Position of an in-layout key in index_ (Slot(kNext, q, 0) = its size).
  std::size_t Slot(Plane plane, std::int64_t I,
                   std::int64_t J) const noexcept;
  /// Index of the window holding (plane, I, J), or -1.
  std::int64_t Find(Plane plane, std::int64_t I,
                    std::int64_t J) const noexcept;
  /// Block (I, J) of a Put or PutMatrix: rows x cols of the source matrix
  /// at (r0, c0).
  struct WindowSource {
    std::int64_t I = 0;
    std::int64_t J = 0;
    std::int64_t r0 = 0;
    std::int64_t c0 = 0;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
  };
  /// Encodes `windows` of `src` on the kernel pool into two alternating
  /// staging buffers, one run at a time, appends the runs to the data file
  /// in order (each write beside the next run's encoding) and indexes the
  /// windows.
  Status AppendWindows(Plane plane, const linalg::DenseBlock& src,
                       const std::vector<WindowSource>& windows);
  /// Indexes manifest_.entries[window]; false on a duplicate key.
  bool IndexEntry(std::size_t window);
  /// Pins `window` if it is admitted; the hit path's only synchronization.
  bool TryPin(std::size_t window) noexcept;
  /// Verifies an admitting window in place.
  Status Verify(std::size_t window) const;
  /// Evicts unpinned windows, CLOCK order, until residency fits (mu_ held).
  void EvictToFit();
  void Unpin(std::size_t window);

  const std::string dir_;
  StoreManifest manifest_;
  const Options options_;
  bool writable_ = false;
  bool sealed_ = false;

  /// Dense per-plane q x q slot array: window index + 1, 0 = absent.
  std::vector<std::uint32_t> index_;

  // Writer state.
  std::ofstream data_out_;
  std::uint64_t data_bytes_ = 0;

  // Reader state. The mapping and the entries are immutable after Open.
  const std::uint8_t* mapping_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  /// Per window: admitted/admitting bits | referenced bit | pin count.
  std::unique_ptr<std::atomic<std::uint32_t>[]> words_;

  /// Serializes admission and eviction; the hit path never takes it.
  std::mutex mu_;
  std::size_t clock_hand_ = 0;  // guarded by mu_

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bytes_loaded_{0};
  /// Written under mu_; Unpin reads it to decide whether to trim.
  std::atomic<std::uint64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> peak_resident_bytes_{0};
};

/// The store's checksum (see the file comment): 32-lane FNV-1a over
/// little-endian 64-bit words plus a byte tail, keyed by `seed`.
std::uint64_t Checksum64(const std::uint8_t* data, std::size_t size,
                         std::uint64_t seed) noexcept;

}  // namespace apspark::store
