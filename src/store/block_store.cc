#include "store/block_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/serial.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace apspark::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kManifestMagic = 0x415053504d414e31ULL;  // "APSPMAN1"
constexpr std::uint32_t kManifestVersion = 3;
constexpr char kManifestFile[] = "MANIFEST.bin";
constexpr char kDataFile[] = "BLOCKS.bin";
constexpr std::uint64_t kManifestSeed = 0;
constexpr std::uint64_t kWindowAlign = 64;
constexpr std::int64_t kMaxBlocksPerSide = 4096;
// Bounds b so a block's element count cannot overflow.
constexpr std::int64_t kMaxBlockSize = std::int64_t{1} << 24;
// plane u8 + I i64 + J i64 + offset u64 + payload_bytes u64 + checksum u64.
constexpr std::size_t kEntryBytes = 1 + 5 * 8;

// Window word: admitted and admitting state bits, the CLOCK reference bit,
// and the pin count in the rest. A cold window's word is exactly 0.
constexpr std::uint32_t kAdmitted = 1u << 31;
constexpr std::uint32_t kAdmitting = 1u << 30;
constexpr std::uint32_t kReferenced = 1u << 29;
constexpr std::uint32_t kPinMask = kReferenced - 1;

Result<std::vector<std::uint8_t>> ReadFileBytes(const fs::path& path) {
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    return NotFoundError("no such file: " + path.string());
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return StoreCorruptError("cannot open " + path.string());
  }
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(size);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(size))) {
    return StoreCorruptError("short read of " + path.string());
  }
  return bytes;
}

Status WriteFileBytes(const fs::path& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return InternalError("cannot create " + path.string());
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return InternalError("short write to " + path.string());
  }
  return Status::Ok();
}

std::string EntryDescription(Plane plane, std::int64_t I, std::int64_t J) {
  return std::string(PlaneName(plane)) + " block (" + std::to_string(I) +
         "," + std::to_string(J) + ")";
}

std::string EntryDescription(const StoreManifest::Entry& meta) {
  return EntryDescription(meta.plane, meta.I, meta.J);
}

/// The checksum seed of a window: its (plane, I, J) key.
std::uint64_t KeySeed(const StoreManifest::Entry& meta) noexcept {
  return (static_cast<std::uint64_t>(meta.plane) << 62) ^
         (static_cast<std::uint64_t>(meta.I) << 31) ^
         static_cast<std::uint64_t>(meta.J);
}

/// Rows or columns of block index `index` in the manifest's layout.
std::int64_t BlockDim(const StoreManifest& m, std::int64_t index) noexcept {
  return std::min(m.block_size, m.n - index * m.block_size);
}

/// Serialized size of the layout's (I, J) block, dense or bit-packed.
std::uint64_t WindowBytes(const StoreManifest& m, std::int64_t I,
                          std::int64_t J, bool packed) {
  const std::int64_t rows = BlockDim(m, I);
  const std::int64_t cols = BlockDim(m, J);
  return (packed ? linalg::DenseBlock::PackedPhantom(rows, cols)
                 : linalg::DenseBlock::Phantom(rows, cols))
      .SerializedBytes();
}

/// Decodes MANIFEST.bin v3, checking every field as if hostile; window
/// placement against the data file is checked once that is open.
Result<StoreManifest> ParseManifest(const std::vector<std::uint8_t>& bytes,
                                    const std::string& dir) {
  // Trailing checksum covers the whole body: any byte flip or truncation of
  // the manifest is caught before a single field is trusted.
  if (bytes.size() < sizeof(std::uint64_t)) {
    return StoreCorruptError("manifest truncated in " + dir);
  }
  const std::size_t body_size = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + body_size,
              sizeof(std::uint64_t));
  if (Checksum64(bytes.data(), body_size, kManifestSeed) !=
      stored_checksum) {
    return StoreCorruptError("manifest checksum mismatch in " + dir);
  }

  // The checksum only proves the bytes are the ones a writer sealed; every
  // field below is still checked as if hostile.
  BinaryReader reader(bytes.data(), body_size);
  auto magic = reader.Read<std::uint64_t>();
  if (!magic.ok() || *magic != kManifestMagic) {
    return StoreCorruptError("bad manifest magic in " + dir);
  }
  auto version = reader.Read<std::uint32_t>();
  if (!version.ok() || *version != kManifestVersion) {
    return StoreCorruptError("unsupported manifest version in " + dir);
  }
  StoreManifest manifest;
  auto n = reader.Read<std::int64_t>();
  auto b = reader.Read<std::int64_t>();
  auto directed = reader.Read<std::uint8_t>();
  auto semiring = reader.Read<std::uint8_t>();
  auto has_paths = reader.Read<std::uint8_t>();
  auto count = reader.Read<std::uint64_t>();
  if (!n.ok() || !b.ok() || !directed.ok() || !semiring.ok() ||
      !has_paths.ok() || !count.ok()) {
    return StoreCorruptError("manifest header truncated in " + dir);
  }
  manifest.n = *n;
  manifest.block_size = *b;
  manifest.directed = *directed != 0;
  manifest.has_paths = *has_paths != 0;
  if (manifest.n <= 0 || manifest.block_size <= 0 ||
      manifest.block_size > kMaxBlockSize ||
      manifest.q() > kMaxBlocksPerSide) {
    return StoreCorruptError("manifest geometry invalid in " + dir);
  }
  if (*semiring > static_cast<std::uint8_t>(linalg::SemiringId::kMaxTimes)) {
    return StoreCorruptError("manifest has unknown semiring id " +
                             std::to_string(*semiring) + " in " + dir);
  }
  manifest.semiring = static_cast<linalg::SemiringId>(*semiring);
  if (*count != reader.remaining() / kEntryBytes ||
      reader.remaining() % kEntryBytes != 0) {
    return StoreCorruptError("manifest declares " + std::to_string(*count) +
                             " entries but its index holds " +
                             std::to_string(reader.remaining()) +
                             " bytes in " + dir);
  }
  const std::int64_t q = manifest.q();
  manifest.entries.resize(static_cast<std::size_t>(*count));
  for (auto& e : manifest.entries) {
    const auto plane = *reader.Read<std::uint8_t>();
    e.I = *reader.Read<std::int64_t>();
    e.J = *reader.Read<std::int64_t>();
    e.offset = *reader.Read<std::uint64_t>();
    e.payload_bytes = *reader.Read<std::uint64_t>();
    e.checksum = *reader.Read<std::uint64_t>();
    if (plane > static_cast<std::uint8_t>(Plane::kNext)) {
      return StoreCorruptError("manifest entry has unknown plane in " + dir);
    }
    e.plane = static_cast<Plane>(plane);
    if (e.I < 0 || e.J < 0 || e.I >= q || e.J >= q) {
      return StoreCorruptError(EntryDescription(e) + " outside the " +
                               std::to_string(q) + "x" + std::to_string(q) +
                               " layout in " + dir);
    }
    if (e.offset % kWindowAlign != 0) {
      return StoreCorruptError(EntryDescription(e) +
                               ": window offset is not 64-byte aligned in " +
                               dir);
    }
    if (e.payload_bytes != WindowBytes(manifest, e.I, e.J, false) &&
        e.payload_bytes != WindowBytes(manifest, e.I, e.J, true)) {
      return StoreCorruptError(EntryDescription(e) +
                               ": window size disagrees with the layout in " +
                               dir);
    }
  }
  return manifest;
}

/// Windows must lie inside the data file and must not overlap.
Status CheckWindows(const std::vector<StoreManifest::Entry>& entries,
                    std::uint64_t data_size, const std::string& data_path) {
  std::vector<std::size_t> by_offset(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) by_offset[k] = k;
  std::sort(by_offset.begin(), by_offset.end(),
            [&](std::size_t a, std::size_t c) {
              return entries[a].offset < entries[c].offset;
            });
  std::uint64_t covered = 0;
  for (const std::size_t k : by_offset) {
    const auto& e = entries[k];
    if (e.offset < covered) {
      return StoreCorruptError(EntryDescription(e) +
                               ": window overlaps another in " + data_path);
    }
    if (e.offset > data_size || e.payload_bytes > data_size - e.offset) {
      return StoreCorruptError(EntryDescription(e) + ": window ends past the " +
                               std::to_string(data_size) + "-byte " +
                               data_path);
    }
    covered = e.offset + e.payload_bytes;
  }
  return Status::Ok();
}

}  // namespace

const char* PlaneName(Plane plane) noexcept {
  switch (plane) {
    case Plane::kDistance:
      return "distance";
    case Plane::kNext:
      return "next";
  }
  return "unknown";
}

std::uint64_t Checksum64(const std::uint8_t* data, std::size_t size,
                         std::uint64_t seed) noexcept {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  constexpr std::size_t kLanes = 32;
  std::uint64_t lane[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) lane[l] = (kBasis ^ seed) + l;
  const std::size_t words = size / sizeof(std::uint64_t);
  const std::size_t strided = words / kLanes * kLanes;
  // Lanes are independent, so any grouping of their updates gives the same
  // hash. With 256- or 512-bit vectors all 32 advance together, as
  // independent multiply chains; without, 8 per pass keeps the accumulators
  // in the 16 general registers instead of spilling them.
#if defined(__AVX2__)
  constexpr std::size_t kGroup = kLanes;
#else
  constexpr std::size_t kGroup = 8;
#endif
  for (std::size_t g = 0; g < kLanes; g += kGroup) {
    std::uint64_t acc[kGroup];
    std::memcpy(acc, lane + g, sizeof acc);
    for (std::size_t k = g; k < strided; k += kLanes) {
      for (std::size_t l = 0; l < kGroup; ++l) {
        std::uint64_t word;
        std::memcpy(&word, data + 8 * (k + l), sizeof word);
        acc[l] = (acc[l] ^ word) * kPrime;
      }
    }
    std::memcpy(lane + g, acc, sizeof acc);
  }
  for (std::size_t k = strided; k < words; ++k) {
    std::uint64_t word;
    std::memcpy(&word, data + 8 * k, sizeof word);
    lane[k % kLanes] = (lane[k % kLanes] ^ word) * kPrime;
  }
  std::uint64_t hash = kBasis;
  for (const std::uint64_t l : lane) hash = (hash ^ l) * kPrime;
  for (std::size_t i = 8 * words; i < size; ++i) {
    hash = (hash ^ data[i]) * kPrime;
  }
  return (hash ^ size) * kPrime;
}

linalg::DenseBlock BlockView::ToDenseBlock() const {
  BinaryReader reader(bytes_, static_cast<std::size_t>(
                                  Element(rows_ * (packed_ ? words_per_row_
                                                           : cols_)) -
                                  bytes_));
  linalg::CowScope copy;
  return std::move(*linalg::DenseBlock::Deserialize(reader));
}

BlockStore::BlockStore(std::string dir, StoreManifest manifest,
                       Options options, bool writable)
    : dir_(std::move(dir)),
      manifest_(std::move(manifest)),
      options_(options),
      writable_(writable),
      index_(Slot(Plane::kNext, manifest_.q(), 0), 0) {}

BlockStore::~BlockStore() {
  // Release every still-admitted window from the accountant ledger so a
  // serving process's live-byte accounting balances at shutdown.
  if (options_.accountant != nullptr && words_ != nullptr) {
    for (std::size_t k = 0; k < manifest_.entries.size(); ++k) {
      if ((words_[k].load() & kAdmitted) != 0) {
        options_.accountant->ReleaseDriver(manifest_.entries[k].payload_bytes);
      }
    }
  }
  if (mapping_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(mapping_), mapping_bytes_);
  }
}

std::size_t BlockStore::Slot(Plane plane, std::int64_t I,
                             std::int64_t J) const noexcept {
  const std::int64_t q = manifest_.q();
  return static_cast<std::size_t>(
      (static_cast<std::int64_t>(plane) * q + I) * q + J);
}

std::int64_t BlockStore::Find(Plane plane, std::int64_t I,
                              std::int64_t J) const noexcept {
  const std::int64_t q = manifest_.q();
  if (I < 0 || J < 0 || I >= q || J >= q || plane > Plane::kNext) return -1;
  return static_cast<std::int64_t>(index_[Slot(plane, I, J)]) - 1;
}

bool BlockStore::IndexEntry(std::size_t window) {
  const auto& e = manifest_.entries[window];
  std::uint32_t& slot = index_[Slot(e.plane, e.I, e.J)];
  if (slot != 0) return false;
  slot = static_cast<std::uint32_t>(window + 1);
  return true;
}

// ---------------------------------------------------------------- writer

Result<std::unique_ptr<BlockStore>> BlockStore::Create(
    const std::string& dir, const StoreManifest& manifest,
    const Options& options) {
  if (manifest.n <= 0 || manifest.block_size <= 0) {
    return InvalidArgumentError("store manifest needs n > 0 and b > 0");
  }
  if (manifest.block_size > kMaxBlockSize ||
      manifest.q() > kMaxBlocksPerSide) {
    return InvalidArgumentError(
        "store layouts are limited to b <= " + std::to_string(kMaxBlockSize) +
        " and " + std::to_string(kMaxBlocksPerSide) + " blocks per side");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create store directory " + dir + ": " +
                         ec.message());
  }
  if (fs::exists(fs::path(dir) / kManifestFile)) {
    return FailedPreconditionError("store directory " + dir +
                                   " already holds a sealed store");
  }
  StoreManifest fresh = manifest;
  fresh.entries.clear();
  std::unique_ptr<BlockStore> store(
      new BlockStore(dir, std::move(fresh), options, /*writable=*/true));
  const fs::path data_path = fs::path(dir) / kDataFile;
  store->data_out_.open(data_path, std::ios::binary | std::ios::trunc);
  if (!store->data_out_) {
    return InternalError("cannot create " + data_path.string());
  }
  return store;
}

Status BlockStore::Put(Plane plane, std::int64_t I, std::int64_t J,
                       const linalg::DenseBlock& block) {
  if (!writable_ || sealed_) {
    return FailedPreconditionError("Put on a sealed or read-only store");
  }
  if (block.is_phantom()) {
    return FailedPreconditionError(
        "phantom blocks carry no payload to persist");
  }
  const std::int64_t q = manifest_.q();
  if (I < 0 || J < 0 || I >= q || J >= q) {
    return OutOfRangeError("block (" + std::to_string(I) + "," +
                           std::to_string(J) + ") outside a " +
                           std::to_string(q) + "x" + std::to_string(q) +
                           " layout");
  }
  if (Contains(plane, I, J)) {
    return FailedPreconditionError(EntryDescription(plane, I, J) +
                                   " already persisted");
  }

  BinaryWriter window;
  block.Serialize(window);
  StoreManifest::Entry meta;
  meta.plane = plane;
  meta.I = I;
  meta.J = J;
  meta.offset = data_bytes_;
  meta.payload_bytes = window.size();
  meta.checksum =
      Checksum64(window.buffer().data(), window.size(), KeySeed(meta));
  // Zero padding keeps the next window 64-byte aligned.
  static constexpr std::uint8_t kZeros[kWindowAlign] = {};
  window.WriteRaw(kZeros, (kWindowAlign - window.size() % kWindowAlign) %
                              kWindowAlign);

  data_out_.write(reinterpret_cast<const char*>(window.buffer().data()),
                  static_cast<std::streamsize>(window.size()));
  if (!data_out_) {
    return InternalError("short write to " +
                         (fs::path(dir_) / kDataFile).string());
  }
  data_bytes_ += window.size();
  manifest_.entries.push_back(meta);
  IndexEntry(manifest_.entries.size() - 1);
  return Status::Ok();
}

Status BlockStore::Seal() {
  if (!writable_ || sealed_) {
    return FailedPreconditionError("Seal on a sealed or read-only store");
  }
  data_out_.close();
  if (!data_out_) {
    return InternalError("cannot close " +
                         (fs::path(dir_) / kDataFile).string());
  }
  BinaryWriter body;
  body.Write(kManifestMagic);
  body.Write(kManifestVersion);
  body.Write(manifest_.n);
  body.Write(manifest_.block_size);
  body.Write(static_cast<std::uint8_t>(manifest_.directed ? 1 : 0));
  body.Write(static_cast<std::uint8_t>(manifest_.semiring));
  body.Write(static_cast<std::uint8_t>(manifest_.has_paths ? 1 : 0));
  body.Write(static_cast<std::uint64_t>(manifest_.entries.size()));
  for (const auto& e : manifest_.entries) {
    body.Write(static_cast<std::uint8_t>(e.plane));
    body.Write(e.I);
    body.Write(e.J);
    body.Write(e.offset);
    body.Write(e.payload_bytes);
    body.Write(e.checksum);
  }
  body.Write(Checksum64(body.buffer().data(), body.size(), kManifestSeed));
  auto status =
      WriteFileBytes(fs::path(dir_) / kManifestFile, body.buffer());
  if (!status.ok()) return status;
  sealed_ = true;
  return Status::Ok();
}

// ---------------------------------------------------------------- reader

Result<std::unique_ptr<BlockStore>> BlockStore::Open(const std::string& dir,
                                                     const Options& options) {
  auto bytes = ReadFileBytes(fs::path(dir) / kManifestFile);
  if (!bytes.ok()) return bytes.status();
  auto manifest = ParseManifest(*bytes, dir);
  if (!manifest.ok()) return manifest.status();

  std::unique_ptr<BlockStore> store(new BlockStore(
      dir, std::move(*manifest), options, /*writable=*/false));
  const auto& entries = store->manifest_.entries;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (!store->IndexEntry(k)) {
      return StoreCorruptError(EntryDescription(entries[k]) +
                               " indexed twice in " + dir);
    }
  }

  const std::string data_path = (fs::path(dir) / kDataFile).string();
  const int fd = ::open(data_path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return NotFoundError("no such file: " + data_path);
  struct stat st {};
  void* mapped = MAP_FAILED;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    mapped = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                    MAP_SHARED, fd, 0);
  }
  ::close(fd);
  if (mapped != MAP_FAILED) {
    store->mapping_ = static_cast<const std::uint8_t*>(mapped);
    store->mapping_bytes_ = static_cast<std::size_t>(st.st_size);
  }
  auto placed = CheckWindows(entries, store->mapping_bytes_, data_path);
  if (!placed.ok()) return placed;
  store->words_ =
      std::make_unique<std::atomic<std::uint32_t>[]>(entries.size());
  return store;
}

Status BlockStore::Verify(std::size_t window) const {
  const auto& meta = manifest_.entries[window];
  const std::uint8_t* bytes = mapping_ + meta.offset;
  if (Checksum64(bytes, static_cast<std::size_t>(meta.payload_bytes),
                 KeySeed(meta)) != meta.checksum) {
    return StoreCorruptError(EntryDescription(meta) + ": checksum mismatch");
  }
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::memcpy(&rows, bytes, sizeof rows);
  std::memcpy(&cols, bytes + sizeof rows, sizeof cols);
  const std::uint8_t flags = bytes[2 * sizeof(std::int64_t)];
  const bool packed = flags == linalg::DenseBlock::kSerializedPackedFlag;
  if (rows != BlockDim(manifest_, meta.I) ||
      cols != BlockDim(manifest_, meta.J) || (flags != 0 && !packed) ||
      meta.payload_bytes != WindowBytes(manifest_, meta.I, meta.J, packed)) {
    return StoreCorruptError(EntryDescription(meta) +
                             ": block shape disagrees with the layout");
  }
  return Status::Ok();
}

bool BlockStore::TryPin(std::size_t window) noexcept {
  std::atomic<std::uint32_t>& word = words_[window];
  std::uint32_t w = word.load(std::memory_order_acquire);
  while ((w & kAdmitted) != 0) {
    if (word.compare_exchange_weak(w, (w + 1) | kReferenced,
                                   std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

Result<BlockStore::Pin> BlockStore::Fetch(Plane plane, std::int64_t I,
                                          std::int64_t J) {
  if (writable_) {
    return FailedPreconditionError(
        "Fetch on a writer store: Seal it and Open for reading");
  }
  const std::int64_t found = Find(plane, I, J);
  if (found < 0) {
    return NotFoundError(EntryDescription(plane, I, J) +
                         " not in store manifest");
  }
  const auto window = static_cast<std::size_t>(found);
  const auto& meta = manifest_.entries[window];
  auto pin = [&] {
    return Pin(this, window, BlockView(mapping_ + meta.offset));
  };
  if (TryPin(window)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return pin();
  }

  // A miss. Exactly one fetch moves the cold window to admitting and
  // verifies it outside the mutex; concurrent fetches of it wait for the
  // outcome, so a window is never verified twice at once.
  std::atomic<std::uint32_t>& word = words_[window];
  for (std::uint32_t w = 0; !word.compare_exchange_weak(w, kAdmitting);
       w = 0) {
    if (TryPin(window)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return pin();
    }
    if ((w & kAdmitting) != 0) std::this_thread::yield();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  {
    obs::RealSpanScope span(
        "store-load",
        obs::TraceEnabled()
            ? "\"plane\":" + std::to_string(static_cast<int>(meta.plane)) +
                  ",\"I\":" + std::to_string(meta.I) +
                  ",\"J\":" + std::to_string(meta.J) +
                  ",\"bytes\":" + std::to_string(meta.payload_bytes)
            : std::string());
    auto verified = Verify(window);
    if (!verified.ok()) {
      word.store(0);  // cold again: the next fetch re-verifies
      return verified;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only this fetch writes an admitting word, so a plain store admits it
    // with this fetch's pin already held.
    word.store(kAdmitted | kReferenced | 1);
    bytes_loaded_.fetch_add(meta.payload_bytes, std::memory_order_relaxed);
    const std::uint64_t resident =
        resident_bytes_.fetch_add(meta.payload_bytes) + meta.payload_bytes;
    if (resident > peak_resident_bytes_.load(std::memory_order_relaxed)) {
      peak_resident_bytes_.store(resident, std::memory_order_relaxed);
    }
    if (options_.accountant != nullptr) {
      options_.accountant->ChargeDriver(meta.payload_bytes);
    }
    EvictToFit();
  }
  return pin();
}

void BlockStore::EvictToFit() {
  const std::size_t count = manifest_.entries.size();
  // Two sweeps without an eviction visit every window twice: the first may
  // only clear reference bits, the second then finds any unpinned window.
  std::size_t idle = 0;
  while (resident_bytes_.load() > options_.cache_capacity_bytes &&
         idle < 2 * count) {
    const std::size_t k = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % count;
    ++idle;
    std::atomic<std::uint32_t>& word = words_[k];
    std::uint32_t w = word.load();
    if ((w & kAdmitted) == 0 || (w & kPinMask) != 0) continue;
    if ((w & kReferenced) != 0) {
      // Second chance. A failed CAS means a hit just pinned the window.
      word.compare_exchange_strong(w, w & ~kReferenced);
      continue;
    }
    if (!word.compare_exchange_strong(w, 0)) continue;
    const std::uint64_t bytes = manifest_.entries[k].payload_bytes;
    resident_bytes_.fetch_sub(bytes);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (options_.accountant != nullptr) {
      options_.accountant->ReleaseDriver(bytes);
    }
    idle = 0;
  }
}

void BlockStore::Unpin(std::size_t window) {
  // Sequentially consistent with EvictToFit's word loads and residency
  // updates: either a concurrent sweep sees this pin gone, or this release
  // sees the residency that sweep left over the cap and trims it.
  const std::uint32_t before = words_[window].fetch_sub(1);
  if ((before & kPinMask) == 1 &&
      resident_bytes_.load() > options_.cache_capacity_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    EvictToFit();
  }
}

BlockStore::Pin& BlockStore::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    Release();
    store_ = other.store_;
    window_ = other.window_;
    view_ = other.view_;
    other.store_ = nullptr;
  }
  return *this;
}

void BlockStore::Pin::Release() {
  if (store_ != nullptr) store_->Unpin(window_);
  store_ = nullptr;
}

BlockStore::Stats BlockStore::stats() const noexcept {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_loaded = bytes_loaded_.load(std::memory_order_relaxed);
  s.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  s.peak_resident_bytes = peak_resident_bytes_.load(std::memory_order_relaxed);
  return s;
}

void BlockStore::Stats::Publish() const {
  auto gauge = [](const char* name, std::uint64_t value) {
    obs::Registry::Global().GetGauge(name).Set(static_cast<double>(value));
  };
  gauge("store_cache_hits", hits);
  gauge("store_cache_misses", misses);
  gauge("store_cache_evictions", evictions);
  gauge("store_bytes_loaded", bytes_loaded);
  gauge("store_resident_bytes", resident_bytes);
  gauge("store_peak_resident_bytes", peak_resident_bytes);
}

std::uint64_t BlockStore::total_payload_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& e : manifest_.entries) total += e.payload_bytes;
  return total;
}

}  // namespace apspark::store
