// Disk-backed block store + distance service.
//
// Round-trips (dense and bit-packed planes), ref-count/eviction invariants
// under a byte cap, corruption and truncation rejection, concurrent reader
// stress, and the end-to-end contract: a solve persisted through
// apsp::PersistSolve must answer every distance query bitwise-equal to the
// in-memory reference solve, and every reconstructed path must be a real
// path of that exact length.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/path_reconstruction.h"
#include "graph/shortest_paths.h"
#include "linalg/kernel_registry.h"
#include "linalg/semiring.h"
#include "sparklet/memory_accountant.h"
#include "store/block_store.h"
#include "store/distance_service.h"
#include "test_support.h"

namespace apspark {
namespace {

namespace fs = std::filesystem;

/// Fresh store directory under the test temp dir, removed on destruction.
class TempStoreDir {
 public:
  explicit TempStoreDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("apspark_store_" + tag + "_" +
                std::to_string(static_cast<unsigned long long>(::getpid()))))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempStoreDir() { fs::remove_all(path_); }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

linalg::DenseBlock RandomDense(Xoshiro256& rng, std::int64_t rows,
                               std::int64_t cols) {
  linalg::DenseBlock block(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      block.Set(r, c, rng.NextDouble(0.0, 100.0));
    }
  }
  return block;
}

store::StoreManifest TinyManifest(std::int64_t n = 8, std::int64_t b = 4) {
  store::StoreManifest manifest;
  manifest.n = n;
  manifest.block_size = b;
  return manifest;
}

/// Every element of the mapped view reads bitwise-equal to the block's At().
void ExpectViewMatches(const store::BlockView& view,
                       const linalg::DenseBlock& block) {
  ASSERT_EQ(view.rows(), block.rows());
  ASSERT_EQ(view.cols(), block.cols());
  ASSERT_EQ(view.is_packed(), block.is_packed());
  for (std::int64_t r = 0; r < block.rows(); ++r) {
    for (std::int64_t c = 0; c < block.cols(); ++c) {
      const double got = view.At(r, c);
      const double want = block.At(r, c);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "view element (" << r << "," << c << ")";
    }
  }
}

std::vector<char> ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  std::vector<char> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void WriteAll(const fs::path& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// XORs one byte of a file in place.
void FlipByte(const fs::path& path, std::uint64_t offset,
              char mask = 0x5a) {
  std::vector<char> bytes = ReadAll(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ mask);
  WriteAll(path, bytes);
}

/// A sealed n=8, b=4 store holding `blocks` in the distance plane.
void WriteTinyStore(
    const std::string& dir,
    const std::vector<std::pair<std::pair<std::int64_t, std::int64_t>,
                                linalg::DenseBlock>>& blocks) {
  auto writer = store::BlockStore::Create(dir, TinyManifest());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const auto& [key, block] : blocks) {
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, key.first, key.second, block)
            .ok());
  }
  ASSERT_TRUE((*writer)->Seal().ok());
}

/// Rewrites MANIFEST.bin from `m` in the v3 layout with a valid trailing
/// checksum, so Open must reject the content itself, not its bytes.
void WriteManifest(const std::string& dir, const store::StoreManifest& m,
                   std::uint64_t declared_count, std::uint8_t semiring,
                   std::uint32_t version = 3) {
  BinaryWriter body;
  body.Write(std::uint64_t{0x415053504d414e31ULL});
  body.Write(version);
  body.Write(m.n);
  body.Write(m.block_size);
  body.Write(static_cast<std::uint8_t>(m.directed));
  body.Write(semiring);
  body.Write(static_cast<std::uint8_t>(m.has_paths));
  body.Write(declared_count);
  for (const auto& e : m.entries) {
    body.Write(static_cast<std::uint8_t>(e.plane));
    body.Write(e.I);
    body.Write(e.J);
    body.Write(e.offset);
    body.Write(e.payload_bytes);
    body.Write(e.checksum);
  }
  body.Write(store::Checksum64(body.buffer().data(), body.size(), 0));
  const auto& bytes = body.buffer();
  WriteAll(fs::path(dir) / "MANIFEST.bin",
           std::vector<char>(bytes.begin(), bytes.end()));
}

TEST(BlockStore, RoundTripsDenseAndPackedBlocks) {
  const std::uint64_t seed = 0xb10cULL;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("roundtrip");

  const auto dense = RandomDense(rng, 4, 4);
  auto packed = linalg::DenseBlock::PackedBoolean(4, 4, 0.0);
  packed.Set(0, 1, 1.0);
  packed.Set(3, 3, 1.0);
  ASSERT_TRUE(packed.is_packed());

  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, 0, 0, dense).ok());
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, 0, 1, packed).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  auto reader = store::BlockStore::Open(dir.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->manifest().n, 8);
  EXPECT_EQ((*reader)->manifest().entries.size(), 2u);

  auto got_dense = (*reader)->Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(got_dense.ok()) << got_dense.status().ToString();
  test::ExpectBitwiseEqual(got_dense->block().ToDenseBlock(), dense,
                           "dense round-trip");
  ExpectViewMatches(got_dense->block(), dense);

  auto got_packed = (*reader)->Fetch(store::Plane::kDistance, 0, 1);
  ASSERT_TRUE(got_packed.ok()) << got_packed.status().ToString();
  EXPECT_TRUE(got_packed->block().is_packed())
      << "bit-packed plane must persist packed, not densified";
  test::ExpectBitwiseEqual(got_packed->block().ToDenseBlock(), packed,
                           "packed round-trip");
  ExpectViewMatches(got_packed->block(), packed);
}

TEST(BlockStore, WriterProtocolRejectsMisuse) {
  TempStoreDir dir("misuse");
  auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
  ASSERT_TRUE(writer.ok());
  store::BlockStore& bs = **writer;

  const auto phantom = linalg::DenseBlock::Phantom(4, 4);
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 0, 0, phantom).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bs.PutMatrix(store::Plane::kDistance,
                         linalg::DenseBlock::Phantom(8, 8))
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(bs.PutMatrix(store::Plane::kDistance, linalg::DenseBlock(4, 4))
                .code(),
            StatusCode::kInvalidArgument)
      << "a matrix that is not the manifest's n x n";

  linalg::DenseBlock block(4, 4, 1.0);
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 7, 0, block).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE(bs.Put(store::Plane::kDistance, 0, 0, block).ok());
  EXPECT_EQ(bs.Put(store::Plane::kDistance, 0, 0, block).code(),
            StatusCode::kFailedPrecondition)
      << "double Put of one block key";

  // Fetch is the reader protocol; a writer store refuses it.
  EXPECT_EQ(bs.Fetch(store::Plane::kDistance, 0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(bs.Seal().ok());
  EXPECT_EQ(bs.Seal().code(), StatusCode::kFailedPrecondition);

  // A sealed directory refuses a second Create.
  EXPECT_EQ(store::BlockStore::Create(dir.path(), TinyManifest())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(BlockStore, PutMatrixEqualsOnePutPerBlock) {
  // A directed n = 1100, b = 64 plane (324 windows, ragged last row and
  // column) is about 10 MB, more than one 8 MiB staging run; PutMatrix must
  // write the bytes and the index of one Put per block in row-major order.
  const std::uint64_t seed = 0x9e7;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  const std::int64_t n = 1100;
  const std::int64_t b = 64;
  const linalg::DenseBlock matrix = RandomDense(rng, n, n);
  store::StoreManifest manifest = TinyManifest(n, b);
  manifest.directed = true;
  TempStoreDir whole("put_matrix");
  TempStoreDir by_block("put_blocks");
  {
    auto writer = store::BlockStore::Create(whole.path(), manifest);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->PutMatrix(store::Plane::kDistance, matrix).ok());
    EXPECT_EQ((*writer)->PutMatrix(store::Plane::kDistance, matrix).code(),
              StatusCode::kFailedPrecondition)
        << "second write of one plane";
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  {
    auto writer = store::BlockStore::Create(by_block.path(), manifest);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& [key, block] :
         apsp::BlockLayout(n, b, true).Decompose(matrix)) {
      ASSERT_TRUE(
          (*writer)->Put(store::Plane::kDistance, key.I, key.J, *block).ok());
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  for (const char* file : {"BLOCKS.bin", "MANIFEST.bin"}) {
    EXPECT_EQ(ReadAll(fs::path(whole.path()) / file),
              ReadAll(fs::path(by_block.path()) / file))
        << file;
  }
}

TEST(BlockStore, MissingBlockIsNotFound) {
  TempStoreDir dir("notfound");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    linalg::DenseBlock block(4, 4, 1.0);
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, block).ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  auto reader = store::BlockStore::Open(dir.path());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE((*reader)->Contains(store::Plane::kDistance, 1, 1));
  EXPECT_EQ((*reader)->Fetch(store::Plane::kDistance, 1, 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*reader)->Fetch(store::Plane::kNext, 0, 0).status().code(),
            StatusCode::kNotFound)
      << "store persisted without a successor plane";
}

TEST(BlockStore, CorruptAndTruncatedFilesAreRejected) {
  const std::uint64_t seed = 0xc0de;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("corrupt");
  {
    auto writer = store::BlockStore::Create(dir.path(), TinyManifest());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)
                    ->Put(store::Plane::kDistance, 0, 0,
                          RandomDense(rng, 4, 4))
                    .ok());
    ASSERT_TRUE((*writer)
                    ->Put(store::Plane::kDistance, 1, 1,
                          RandomDense(rng, 4, 4))
                    .ok());
    ASSERT_TRUE((*writer)->Seal().ok());
  }
  const auto data_path = fs::path(dir.path()) / "BLOCKS.bin";

  // Flip one payload byte of window (0, 0): its checksum must catch it.
  FlipByte(data_path, 40, 0x40);
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(
        (*reader)->Fetch(store::Plane::kDistance, 0, 0).status().code(),
        StatusCode::kStoreCorrupt);
    // A failed admission leaves the window retryable and the healthy block
    // fine.
    EXPECT_EQ(
        (*reader)->Fetch(store::Plane::kDistance, 0, 0).status().code(),
        StatusCode::kStoreCorrupt);
    EXPECT_TRUE((*reader)->Fetch(store::Plane::kDistance, 1, 1).ok());
  }

  // Truncate the data file: the index points past its end.
  fs::resize_file(data_path, 16);
  EXPECT_EQ(store::BlockStore::Open(dir.path()).status().code(),
            StatusCode::kStoreCorrupt);

  // Corrupt the manifest itself: Open must fail, not limp along.
  {
    std::fstream f(fs::path(dir.path()) / "MANIFEST.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const char garbage = 0x5a;
    f.write(&garbage, 1);
  }
  EXPECT_EQ(store::BlockStore::Open(dir.path()).status().code(),
            StatusCode::kStoreCorrupt);
}

TEST(BlockStore, EvictionKeepsResidencyUnderCapAndBalancesAccountant) {
  const std::uint64_t seed = 0xe71c;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("evict");

  constexpr std::int64_t kB = 16;
  constexpr std::int64_t kQ = 4;
  const std::uint64_t block_bytes =
      linalg::DenseBlock(kB, kB).SerializedBytes();
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * kQ, kB));
    ASSERT_TRUE(writer.ok());
    for (std::int64_t I = 0; I < kQ; ++I) {
      for (std::int64_t J = I; J < kQ; ++J) {
        ASSERT_TRUE((*writer)
                        ->Put(store::Plane::kDistance, I, J,
                              RandomDense(rng, kB, kB))
                        .ok());
      }
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  sparklet::MemoryAccountant accountant;
  store::BlockStore::Options options;
  options.cache_capacity_bytes = 3 * block_bytes;  // 3 of 10 blocks fit
  options.accountant = &accountant;
  {
    auto reader = store::BlockStore::Open(dir.path(), options);
    ASSERT_TRUE(reader.ok());
    store::BlockStore& bs = **reader;

    // Touch every block twice; residency must never exceed the cap once the
    // pins are released (single-threaded: at most one pin live at a time).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::int64_t I = 0; I < kQ; ++I) {
        for (std::int64_t J = I; J < kQ; ++J) {
          auto pin = bs.Fetch(store::Plane::kDistance, I, J);
          ASSERT_TRUE(pin.ok()) << pin.status().ToString();
          EXPECT_EQ(pin->block().rows(), kB);
        }
        EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
      }
    }
    const auto stats = bs.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.misses, 10u) << "second pass must re-load evicted blocks";
    EXPECT_LE(stats.resident_bytes, options.cache_capacity_bytes);
    // The accountant's driver ledger mirrors residency exactly.
    EXPECT_EQ(accountant.driver_live_bytes(), stats.resident_bytes);
  }
  // Store destruction releases everything it still held.
  EXPECT_EQ(accountant.driver_live_bytes(), 0u);
}

TEST(BlockStore, PinnedBlocksSurviveEvictionPressure) {
  const std::uint64_t seed = 0x911;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("pinned");

  constexpr std::int64_t kB = 16;
  const std::uint64_t block_bytes =
      linalg::DenseBlock(kB, kB).SerializedBytes();
  linalg::DenseBlock first = RandomDense(rng, kB, kB);
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * 4, kB));
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Put(store::Plane::kDistance, 0, 0, first).ok());
    for (std::int64_t J = 1; J < 4; ++J) {
      ASSERT_TRUE((*writer)
                      ->Put(store::Plane::kDistance, 0, J,
                            RandomDense(rng, kB, kB))
                      .ok());
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  store::BlockStore::Options options;
  options.cache_capacity_bytes = block_bytes;  // room for exactly one block
  auto reader = store::BlockStore::Open(dir.path(), options);
  ASSERT_TRUE(reader.ok());
  store::BlockStore& bs = **reader;

  auto pinned = bs.Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(pinned.ok());
  // Stream the other blocks through a cache that only fits one: the pinned
  // block must never be evicted even though residency exceeds the cap.
  for (std::int64_t J = 1; J < 4; ++J) {
    auto pin = bs.Fetch(store::Plane::kDistance, 0, J);
    ASSERT_TRUE(pin.ok());
  }
  test::ExpectBitwiseEqual(pinned->block().ToDenseBlock(), first,
                           "pinned block intact");
  const auto hit_again = bs.Fetch(store::Plane::kDistance, 0, 0);
  ASSERT_TRUE(hit_again.ok());
  const auto stats = bs.stats();
  EXPECT_EQ(stats.misses, 4u) << "the pinned block never reloads";

  pinned->Release();
  // With the pin gone, pressure trims residency back under the cap.
  auto churn = bs.Fetch(store::Plane::kDistance, 0, 3);
  ASSERT_TRUE(churn.ok());
  churn->Release();
  EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
}

TEST(BlockStore, ConcurrentReadersAgreeAndNeverDoubleLoad) {
  const std::uint64_t seed = 0xc0c0;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("concurrent");

  constexpr std::int64_t kB = 8;
  constexpr std::int64_t kQ = 3;
  std::vector<linalg::DenseBlock> originals;
  {
    auto writer =
        store::BlockStore::Create(dir.path(), TinyManifest(kB * kQ, kB));
    ASSERT_TRUE(writer.ok());
    for (std::int64_t I = 0; I < kQ; ++I) {
      for (std::int64_t J = I; J < kQ; ++J) {
        originals.push_back(RandomDense(rng, kB, kB));
        ASSERT_TRUE((*writer)
                        ->Put(store::Plane::kDistance, I, J,
                              originals.back())
                        .ok());
      }
    }
    ASSERT_TRUE((*writer)->Seal().ok());
  }

  store::BlockStore::Options options;
  options.cache_capacity_bytes =
      2 * linalg::DenseBlock(kB, kB).SerializedBytes();  // heavy churn
  auto reader = store::BlockStore::Open(dir.path(), options);
  ASSERT_TRUE(reader.ok());
  store::BlockStore& bs = **reader;

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  constexpr int kHoldIters = 50;  // a held pin spans this many fetches
  const std::uint64_t kWindows = kQ * (kQ + 1) / 2;
  auto key_of = [&](std::uint64_t pick) {
    std::uint64_t index = 0;
    for (std::int64_t a = 0; a < kQ; ++a) {
      for (std::int64_t b = a; b < kQ; ++b) {
        if (index++ == pick) return std::make_pair(a, b);
      }
    }
    return std::make_pair(std::int64_t{-1}, std::int64_t{-1});
  };
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> fetches{0};
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Xoshiro256 trng(seed + static_cast<std::uint64_t>(tid) + 1);
      auto check = [&](const store::BlockStore::Pin& pin,
                       std::uint64_t pick) {
        const auto& expected = originals[pick];
        for (int probe = 0; probe < 4; ++probe) {
          const auto r = static_cast<std::int64_t>(trng.NextBounded(kB));
          const auto c = static_cast<std::int64_t>(trng.NextBounded(kB));
          if (pin.block().At(r, c) != expected.At(r, c)) ++mismatches;
        }
      };
      // Each thread holds one pin across the churn its own and the other
      // threads' fetches cause, so evictions race live pins.
      store::BlockStore::Pin held;
      std::uint64_t held_pick = 0;
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        if (iter % kHoldIters == 0) {
          held_pick = trng.NextBounded(kWindows);
          const auto [I, J] = key_of(held_pick);
          auto pin = bs.Fetch(store::Plane::kDistance, I, J);
          ++fetches;
          if (!pin.ok()) {
            ++mismatches;
            held.Release();
            continue;
          }
          held = std::move(*pin);
        }
        const auto pick = trng.NextBounded(kWindows);
        const auto [I, J] = key_of(pick);
        auto pin = bs.Fetch(store::Plane::kDistance, I, J);
        ++fetches;
        if (!pin.ok()) {
          ++mismatches;
          continue;
        }
        check(*pin, pick);
        if (held.valid()) check(held, held_pick);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto stats = bs.stats();
  EXPECT_EQ(stats.hits + stats.misses, fetches.load())
      << "every fetch is exactly one hit or one admission";
  EXPECT_GT(stats.evictions, 0u) << "the cap was meant to force churn";
  EXPECT_LE(bs.resident_bytes(), options.cache_capacity_bytes);
}

// -- hostile manifests: checksum-valid, content-invalid ----------------------

/// A sealed two-window store whose manifest each case rewrites (with a valid
/// checksum) before expecting Open to fail with kStoreCorrupt.
class HostileManifest : public ::testing::Test {
 protected:
  void SetUp() override {
    Xoshiro256 rng(0x40571e);
    WriteTinyStore(dir_.path(), {{{0, 0}, RandomDense(rng, 4, 4)},
                                 {{0, 1}, RandomDense(rng, 4, 4)}});
    auto reader = store::BlockStore::Open(dir_.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    manifest_ = (*reader)->manifest();
    ASSERT_EQ(manifest_.entries.size(), 2u);
  }

  void ExpectRejected(const store::StoreManifest& m,
                      std::uint64_t declared_count, std::uint8_t semiring,
                      std::uint32_t version = 3) {
    WriteManifest(dir_.path(), m, declared_count, semiring, version);
    const auto opened = store::BlockStore::Open(dir_.path());
    EXPECT_EQ(opened.status().code(), StatusCode::kStoreCorrupt)
        << opened.status().ToString();
  }
  void ExpectRejected(const store::StoreManifest& m) {
    ExpectRejected(m, m.entries.size(), 0);
  }

  TempStoreDir dir_{"hostile"};
  store::StoreManifest manifest_;
};

TEST_F(HostileManifest, RewrittenValidManifestStillOpens) {
  // The rewriting helper itself produces an acceptable manifest.
  WriteManifest(dir_.path(), manifest_, manifest_.entries.size(), 0);
  EXPECT_TRUE(store::BlockStore::Open(dir_.path()).ok());
}

TEST_F(HostileManifest, HugeEntryCountIsCorruptNotBadAlloc) {
  ExpectRejected(manifest_, std::uint64_t{1} << 60, 0);
}

TEST_F(HostileManifest, UnknownSemiringIsCorrupt) {
  ExpectRejected(manifest_, manifest_.entries.size(), 9);
}

TEST_F(HostileManifest, OutOfLayoutKeyIsCorrupt) {
  auto m = manifest_;
  m.entries[1].I = 2;  // q = 2
  ExpectRejected(m);
  m.entries[1].I = 0;
  m.entries[1].J = -1;
  ExpectRejected(m);
}

TEST_F(HostileManifest, DuplicateKeyIsCorrupt) {
  auto m = manifest_;
  m.entries[1].J = m.entries[0].J;
  ExpectRejected(m);
}

TEST_F(HostileManifest, MisalignedWindowIsCorrupt) {
  auto m = manifest_;
  m.entries[1].offset += 8;
  ExpectRejected(m);
}

TEST_F(HostileManifest, OverlappingWindowsAreCorrupt) {
  auto m = manifest_;
  m.entries[1].offset = 64;  // aligned, inside window 0's [0, 145)
  ExpectRejected(m);
}

TEST_F(HostileManifest, WindowPastDataFileEndIsCorrupt) {
  auto m = manifest_;
  m.entries[1].offset =
      fs::file_size(fs::path(dir_.path()) / "BLOCKS.bin");
  ExpectRejected(m);
}

TEST_F(HostileManifest, VersionOneManifestIsUnsupported) {
  WriteManifest(dir_.path(), manifest_, manifest_.entries.size(), 0, 1);
  const auto opened = store::BlockStore::Open(dir_.path());
  EXPECT_EQ(opened.status().code(), StatusCode::kStoreCorrupt);
  EXPECT_NE(opened.status().ToString().find("unsupported manifest version"),
            std::string::npos);
}

TEST_F(HostileManifest, VersionTwoManifestIsUnsupported) {
  // v2 windows carry 8-lane checksums; no v2 reader is kept.
  WriteManifest(dir_.path(), manifest_, manifest_.entries.size(), 0, 2);
  const auto opened = store::BlockStore::Open(dir_.path());
  EXPECT_EQ(opened.status().code(), StatusCode::kStoreCorrupt);
  EXPECT_NE(opened.status().ToString().find("unsupported manifest version"),
            std::string::npos);
}

// -- data-file integrity ------------------------------------------------------

/// Dense (0,0), packed (0,1) and dense (1,1) 4x4 blocks: both encodings and
/// two same-shape windows.
std::vector<std::pair<std::pair<std::int64_t, std::int64_t>,
                      linalg::DenseBlock>>
MixedTinyBlocks(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  auto packed = linalg::DenseBlock::PackedBoolean(4, 4, 0.0);
  packed.Set(0, 1, 1.0);
  packed.Set(2, 3, 1.0);
  packed.Set(3, 0, 1.0);
  return {{{0, 0}, RandomDense(rng, 4, 4)},
          {{0, 1}, packed},
          {{1, 1}, RandomDense(rng, 4, 4)}};
}

TEST(BlockStore, EveryFlippedDataByteFailsExactlyItsWindow) {
  const std::uint64_t seed = 0xf11b;
  APSPARK_SEEDED_CASE(seed);
  const auto blocks = MixedTinyBlocks(seed);
  TempStoreDir pristine("flip_pristine");
  WriteTinyStore(pristine.path(), blocks);
  std::vector<store::StoreManifest::Entry> entries;
  {
    auto reader = store::BlockStore::Open(pristine.path());
    ASSERT_TRUE(reader.ok());
    entries = (*reader)->manifest().entries;
  }
  const auto data_size =
      fs::file_size(fs::path(pristine.path()) / "BLOCKS.bin");

  TempStoreDir scratch("flip_copy");
  for (std::uint64_t at = 0; at < data_size; ++at) {
    SCOPED_TRACE("flipped byte " + std::to_string(at));
    fs::remove_all(scratch.path());
    fs::copy(pristine.path(), scratch.path());
    FlipByte(fs::path(scratch.path()) / "BLOCKS.bin", at);
    auto reader = store::BlockStore::Open(scratch.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (std::size_t k = 0; k < entries.size(); ++k) {
      const auto& e = entries[k];
      auto pin = (*reader)->Fetch(e.plane, e.I, e.J);
      if (at >= e.offset && at < e.offset + e.payload_bytes) {
        EXPECT_EQ(pin.status().code(), StatusCode::kStoreCorrupt);
      } else {
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        test::ExpectBitwiseEqual(pin->block().ToDenseBlock(),
                                 blocks[k].second, "untouched window");
        ExpectViewMatches(pin->block(), blocks[k].second);
      }
    }
  }
}

TEST(BlockStore, SwappedSameShapeWindowsFailTheirKeySeed) {
  const std::uint64_t seed = 0x5a9;
  APSPARK_SEEDED_CASE(seed);
  TempStoreDir dir("swap");
  WriteTinyStore(dir.path(), MixedTinyBlocks(seed));
  std::vector<store::StoreManifest::Entry> entries;
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok());
    entries = (*reader)->manifest().entries;
  }
  const auto& a = entries[0];  // dense (0, 0)
  const auto& b = entries[2];  // dense (1, 1), same shape and size
  ASSERT_EQ(a.payload_bytes, b.payload_bytes);
  const auto data_path = fs::path(dir.path()) / "BLOCKS.bin";
  std::vector<char> bytes = ReadAll(data_path);
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(a.offset),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(a.offset + a.payload_bytes),
                   bytes.begin() + static_cast<std::ptrdiff_t>(b.offset));
  WriteAll(data_path, bytes);

  auto expect_both_corrupt = [&] {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ((*reader)->Fetch(a.plane, a.I, a.J).status().code(),
              StatusCode::kStoreCorrupt);
    EXPECT_EQ((*reader)->Fetch(b.plane, b.I, b.J).status().code(),
              StatusCode::kStoreCorrupt);
    EXPECT_TRUE(
        (*reader)->Fetch(entries[1].plane, entries[1].I, entries[1].J).ok());
  };
  expect_both_corrupt();

  // Swap the bytes back and swap the index instead: each key now points at
  // the other window together with that window's own checksum, so only the
  // key seed tells them apart.
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(a.offset),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(a.offset + a.payload_bytes),
                   bytes.begin() + static_cast<std::ptrdiff_t>(b.offset));
  WriteAll(data_path, bytes);
  store::StoreManifest swapped = TinyManifest();
  swapped.entries = entries;
  std::swap(swapped.entries[0].offset, swapped.entries[2].offset);
  std::swap(swapped.entries[0].checksum, swapped.entries[2].checksum);
  WriteManifest(dir.path(), swapped, swapped.entries.size(), 0);
  expect_both_corrupt();
}

TEST(BlockStore, DataFileTruncatedBelowAWindowEndFailsOpen) {
  TempStoreDir dir("truncate");
  WriteTinyStore(dir.path(), MixedTinyBlocks(0x7c));
  std::uint64_t last_end = 0;
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok());
    for (const auto& e : (*reader)->manifest().entries) {
      last_end = std::max(last_end, e.offset + e.payload_bytes);
    }
  }
  const auto data_path = fs::path(dir.path()) / "BLOCKS.bin";
  // Only the padding after the last window may go.
  fs::resize_file(data_path, last_end);
  EXPECT_TRUE(store::BlockStore::Open(dir.path()).ok());
  fs::resize_file(data_path, last_end - 1);
  EXPECT_EQ(store::BlockStore::Open(dir.path()).status().code(),
            StatusCode::kStoreCorrupt);
}

TEST(BlockStore, EvictedWindowIsReverifiedOnItsNextTouch) {
  const std::uint64_t seed = 0x2e7;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("reverify");
  WriteTinyStore(dir.path(), {{{0, 0}, RandomDense(rng, 4, 4)},
                              {{0, 1}, RandomDense(rng, 4, 4)}});
  const std::uint64_t window_bytes =
      linalg::DenseBlock(4, 4).SerializedBytes();

  store::BlockStore::Options options;
  options.cache_capacity_bytes = window_bytes;  // one window
  auto reader = store::BlockStore::Open(dir.path(), options);
  ASSERT_TRUE(reader.ok());
  store::BlockStore& bs = **reader;
  const auto victim = bs.manifest().entries[0];
  ASSERT_TRUE(bs.Fetch(store::Plane::kDistance, 0, 0).ok());
  ASSERT_TRUE(bs.Fetch(store::Plane::kDistance, 0, 1).ok());
  ASSERT_EQ(bs.stats().evictions, 1u) << "(0,0) must be evicted";

  // Corrupt the evicted window behind the open store's back.
  const auto data_path = fs::path(dir.path()) / "BLOCKS.bin";
  const int fd = ::open(data_path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  const auto at = static_cast<off_t>(victim.offset + 20);
  char original = 0;
  ASSERT_EQ(::pread(fd, &original, 1, at), 1);
  const char flipped = static_cast<char>(original ^ 0x01);
  ASSERT_EQ(::pwrite(fd, &flipped, 1, at), 1);
  EXPECT_EQ(bs.Fetch(store::Plane::kDistance, 0, 0).status().code(),
            StatusCode::kStoreCorrupt);

  // Restored bytes verify again: a failed admission leaves it retryable.
  ASSERT_EQ(::pwrite(fd, &original, 1, at), 1);
  ::close(fd);
  EXPECT_TRUE(bs.Fetch(store::Plane::kDistance, 0, 0).ok());
}

/// Deterministic bytes with no short period: byte i is the top byte of
/// i * 0x9E3779B1 (mod 2^32). (i * 37 + 11 repeats every 256 bytes, one
/// 32-lane stride, so each lane would only ever see one word.)
std::vector<std::uint8_t> HashPattern(std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(
        (static_cast<std::uint32_t>(i) * 0x9E3779B1u) >> 24);
  }
  return bytes;
}

TEST(Checksum64, EverySingleByteChangeAndEverySeedChangeIsDetected) {
  // 25 words + a 3-byte tail never reaches a full 32-lane stride; a 32 KiB
  // window + a 3-byte tail runs 128 full strides, then the tail.
  for (const std::size_t size :
       {std::size_t{203}, std::size_t{32 * 1024 + 3}}) {
    std::vector<std::uint8_t> bytes = HashPattern(size);
    const std::uint64_t base = store::Checksum64(bytes.data(), size, 7);
    EXPECT_NE(store::Checksum64(bytes.data(), size, 8), base);
    EXPECT_NE(store::Checksum64(bytes.data(), size - 1, 7), base);
    for (std::size_t i = 0; i < size; ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        bytes[i] ^= mask;
        const std::uint64_t flipped =
            store::Checksum64(bytes.data(), size, 7);
        bytes[i] ^= mask;
        ASSERT_NE(flipped, base)
            << "size " << size << " byte " << i << " mask " << int{mask};
      }
    }
  }
}

TEST(Checksum64, KnownAnswersPinTheDefinition) {
  // Computed by an independent implementation of the definition in
  // block_store.h (32 lanes). A change here changes every persisted
  // checksum, so it must come with a MANIFEST version bump.
  EXPECT_EQ(store::Checksum64(nullptr, 0, 0), 0x4b330376487e963fULL);
  const auto short_bytes = HashPattern(203);
  EXPECT_EQ(store::Checksum64(short_bytes.data(), short_bytes.size(), 7),
            0x17ab5253bf7a3943ULL);
  const auto window = HashPattern(32 * 1024 + 3);
  const std::uint64_t seed = (std::uint64_t{1} << 62) ^
                             (std::uint64_t{3} << 31) ^ std::uint64_t{5};
  EXPECT_EQ(store::Checksum64(window.data(), window.size(), seed),
            0x0c25c87eb7221ae7ULL);
}

/// A graph on n vertices with three random arcs per vertex and integer
/// weights in [1, 9], or in [0, 2] when `zero_weights` is set, so every
/// path sum is exact.
graph::Graph GoldenGraph(std::int64_t n, bool directed, bool zero_weights,
                         std::uint64_t seed) {
  graph::Graph g(n, directed);
  Xoshiro256 rng(seed);
  for (std::int64_t u = 0; u < n; ++u) {
    for (int e = 0; e < 3; ++e) {
      const auto v = static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      if (v == u) continue;
      const double w = zero_weights
                           ? static_cast<double>(rng.NextBounded(3))
                           : 1.0 + static_cast<double>(rng.NextBounded(9));
      g.AddEdge(u, v, w).CheckOk();
    }
  }
  return g;
}

/// Writes the store PersistSolve should write, one window at a time through
/// Put(Decompose(...)): the distance plane, then (when `paths` is given) the
/// successor plane derived from it.
void PutWindowByWindow(const std::string& dir,
                       const linalg::DenseBlock& distances, std::int64_t b,
                       bool directed, linalg::SemiringId semiring,
                       const graph::Graph* paths) {
  const std::int64_t n = distances.rows();
  store::StoreManifest manifest;
  manifest.n = n;
  manifest.block_size = b;
  manifest.directed = directed;
  manifest.semiring = semiring;
  manifest.has_paths = paths != nullptr;
  auto writer = store::BlockStore::Create(dir, manifest);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const auto& [key, block] :
       apsp::BlockLayout(n, b, directed).Decompose(distances)) {
    ASSERT_TRUE(
        (*writer)->Put(store::Plane::kDistance, key.I, key.J, *block).ok());
  }
  if (paths != nullptr) {
    const linalg::DenseBlock next =
        graph::SuccessorsFromDistances(*paths, distances);
    for (const auto& [key, block] :
         apsp::BlockLayout(n, b, true).Decompose(next)) {
      ASSERT_TRUE(
          (*writer)->Put(store::Plane::kNext, key.I, key.J, *block).ok());
    }
  }
  ASSERT_TRUE((*writer)->Seal().ok());
}

TEST(PersistSolve, GoldenStoreBytesMatchBlockByBlockPuts) {
  // Locks the on-disk bytes of PersistSolve: each store must equal one
  // written window by window through Put(Decompose(...)), and the checksums
  // of both files are pinned. A change of window order, offsets, padding,
  // window checksums or manifest layout fails here.
  struct Case {
    const char* name;
    std::int64_t n;
    std::int64_t b;
    bool directed;
    linalg::SemiringId semiring;
    bool paths;
    bool zero_weights;
    std::uint64_t blocks_checksum;
    std::uint64_t manifest_checksum;
  };
  using linalg::SemiringId;
  const Case cases[] = {
      {"undirected_paths", 45, 8, false, SemiringId::kMinPlus, true, false,
       0x082c23c88094b1fdULL, 0xca788f24dc256930ULL},
      {"directed_paths", 45, 8, true, SemiringId::kMinPlus, true, false,
       0x03a9f27198fa4272ULL, 0xe74dd6481d3cf41aULL},
      {"boolean_packed", 150, 40, false, SemiringId::kBoolean, false, false,
       0x1dbbea2771709cb1ULL, 0xc80b26c619ef905eULL},
      {"no_paths", 45, 8, false, SemiringId::kMinPlus, false, false,
       0x827a0561182719f1ULL, 0x7c9b8e1f23c62bb6ULL},
      {"zero_weights", 45, 8, false, SemiringId::kMinPlus, true, true,
       0x6498eef722daef8aULL, 0x0e397a02775c072aULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const graph::Graph g =
        GoldenGraph(c.n, c.directed, c.zero_weights, 0x901d + c.n);
    linalg::DenseBlock distances = g.ToDenseAdjacency();
    if (c.semiring == SemiringId::kBoolean) {
      for (std::int64_t i = 0; i < c.n; ++i) {
        for (std::int64_t j = 0; j < c.n; ++j) {
          distances.Set(i, j, std::isinf(distances.At(i, j)) ? 0.0 : 1.0);
        }
      }
      linalg::SemiringClosure<linalg::BooleanSemiring>(distances);
      distances = distances.BitPacked();
    } else {
      linalg::SemiringClosure<linalg::MinPlusSemiring>(distances);
    }

    TempStoreDir persisted(std::string("golden_") + c.name);
    apsp::PersistOptions popts;
    popts.block_size = c.b;
    ASSERT_TRUE(apsp::PersistSolve(persisted.path(), distances,
                                   c.paths ? &g : nullptr, c.directed,
                                   c.semiring, popts)
                    .ok());

    TempStoreDir by_put(std::string("golden_put_") + c.name);
    PutWindowByWindow(by_put.path(), distances, c.b, c.directed, c.semiring,
                      c.paths ? &g : nullptr);
    ASSERT_FALSE(HasFatalFailure());

    auto checksum = [](const std::vector<char>& bytes) {
      return store::Checksum64(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size(),
          0);
    };
    for (const char* file : {"BLOCKS.bin", "MANIFEST.bin"}) {
      EXPECT_EQ(ReadAll(fs::path(persisted.path()) / file),
                ReadAll(fs::path(by_put.path()) / file))
          << file;
    }
    EXPECT_EQ(checksum(ReadAll(fs::path(persisted.path()) / "BLOCKS.bin")),
              c.blocks_checksum);
    EXPECT_EQ(checksum(ReadAll(fs::path(persisted.path()) / "MANIFEST.bin")),
              c.manifest_checksum);
  }
}

TEST(PersistSolve, FannedOutWriteEqualsInlineWrite) {
  // At the finest grain every window encodes as its own stealable task, the
  // successor plane runs beside the distance plane's write, and each staging
  // run's write runs beside the next run's encoding. The files of an inline
  // (kTiled) and of a fanned-out persist must both equal a window-by-window
  // Put store byte for byte. At n = 1200, b = 64 the successor plane
  // (11.5 MB) spans three 4 MiB staging runs and the distance plane two.
  // That case persists a random matrix with positive-weight successors: the
  // writer's bytes do not depend on the matrix holding distances, and an
  // all-pairs solve or the zero-weight pass at n = 1200 would dominate the
  // test under ThreadSanitizer. The small case covers both.
  for (const auto& [n, b] : {std::pair<std::int64_t, std::int64_t>{90, 16},
                             std::pair<std::int64_t, std::int64_t>{1200, 64}}) {
    SCOPED_TRACE(n);
    const bool small = n < 100;
    const graph::Graph g = GoldenGraph(n, false, small, 0xfa17);
    Xoshiro256 rng(0xfa17);
    const linalg::DenseBlock distances =
        small ? graph::DijkstraAllPairs(g) : RandomDense(rng, n, n);
    TempStoreDir by_put("fanout_put");
    PutWindowByWindow(by_put.path(), distances, b, false,
                      linalg::SemiringId::kMinPlus, &g);
    ASSERT_FALSE(HasFatalFailure());
    apsp::PersistOptions popts;
    popts.block_size = b;
    for (const linalg::KernelVariant variant :
         {linalg::KernelVariant::kTiled,
          linalg::KernelVariant::kTiledParallel}) {
      SCOPED_TRACE(linalg::KernelVariantName(variant));
      TempStoreDir persisted("fanout_persist");
      {
        linalg::ScopedKernelVariant scope(variant);
        linalg::KernelTuning tuning = linalg::GetKernelTuning();
        tuning.parallel_grain_ops = 1;
        linalg::SetKernelTuning(tuning);
        ASSERT_TRUE(apsp::PersistSolve(persisted.path(), distances, &g,
                                       false, linalg::SemiringId::kMinPlus,
                                       popts)
                        .ok());
      }
      for (const char* file : {"BLOCKS.bin", "MANIFEST.bin"}) {
        EXPECT_EQ(ReadAll(fs::path(persisted.path()) / file),
                  ReadAll(fs::path(by_put.path()) / file))
            << file;
      }
    }
  }
}

TEST(PersistSolve, PackedDistancesWithPathsAreRejectedBeforeAnyFileIsMade) {
  // Successors need the dense matrix; a bit-packed one is refused before the
  // store directory exists, so nothing half-written is left behind.
  TempStoreDir dir("packed_paths");
  const graph::Graph g = graph::PathGraph(70);
  const Status status = apsp::PersistSolve(
      dir.path(), linalg::DenseBlock(70, 70, 1.0).BitPacked(), &g, false,
      linalg::SemiringId::kMinPlus);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(DistanceService, EndToEndSolvePersistQueryMatchesOracle) {
  // Integer weights: every path sum is exact, so the persisted answers must
  // equal the reference Floyd-Warshall *bitwise* for every pair — both
  // orientations, both geometries (directed / undirected triangle).
  for (const bool directed : {false, true}) {
    const std::uint64_t seed = directed ? 0xd1f2ULL : 0xd1f1ULL;
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    test::RandomGraphOptions gopts;
    gopts.min_vertices = 20;
    gopts.max_vertices = 60;
    gopts.allow_directed = false;
    gopts.integer_weights = true;
    graph::Graph g = test::RandomTestGraph(rng, gopts);
    if (directed) {
      graph::Graph gd(g.num_vertices(), /*directed=*/true);
      for (const auto& e : g.edges()) {
        gd.AddEdge(e.u, e.v, e.weight).CheckOk();
        if (rng.NextDouble() < 0.5) gd.AddEdge(e.v, e.u, e.weight).CheckOk();
      }
      g = gd;
    }
    const std::int64_t n = g.num_vertices();

    linalg::DenseBlock oracle = g.ToDenseAdjacency();
    linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);

    // Solve through the public API, persist, serve.
    apsp::SolveRequest request;
    request.options.block_size = std::max<std::int64_t>(1, n / 3);
    request.options.directed = directed;
    request.cluster = test::TestCluster();
    auto report = apsp::Solve(g, request);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    TempStoreDir dir(directed ? "e2e_dir" : "e2e_undir");
    apsp::PersistOptions popts;
    popts.block_size = 16;  // re-block on persist: different geometry
    auto persisted =
        apsp::PersistSolve(dir.path(), *report.distances(), &g, directed,
                           linalg::SemiringId::kMinPlus, popts);
    ASSERT_TRUE(persisted.ok()) << persisted.ToString();

    store::DistanceService::Options sopts;
    sopts.num_threads = 4;
    auto service = store::DistanceService::Open(dir.path(), sopts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    store::DistanceService& svc = **service;

    // Every pair, batched: answers must be bitwise-identical to the oracle.
    std::vector<store::DistanceService::Query> queries;
    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t t = 0; t < n; ++t) queries.push_back({s, t});
    }
    auto answers = svc.DistanceBatch(queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double expected = oracle.At(queries[i].s, queries[i].t);
      const double actual = (*answers)[i];
      ASSERT_EQ(std::memcmp(&actual, &expected, sizeof(double)), 0)
          << "dist(" << queries[i].s << ", " << queries[i].t
          << "): served " << actual << " vs oracle " << expected
          << (directed ? " (directed)" : " (undirected)");
    }

    // Paths: for a sample of pairs, the reconstructed sequence must be a
    // genuine walk over graph edges whose total weight equals the distance.
    linalg::DenseBlock adjacency = g.ToDenseAdjacency();
    for (int probe = 0; probe < 64; ++probe) {
      const auto s = static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      const auto t = static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      auto path = svc.Path(s, t);
      if (std::isinf(oracle.At(s, t))) {
        EXPECT_EQ(path.status().code(), StatusCode::kNotFound);
        continue;
      }
      ASSERT_TRUE(path.ok()) << path.status().ToString();
      ASSERT_EQ(path->front(), s);
      ASSERT_EQ(path->back(), t);
      double total = 0;
      for (std::size_t hop = 0; hop + 1 < path->size(); ++hop) {
        const double w = adjacency.At((*path)[hop], (*path)[hop + 1]);
        ASSERT_FALSE(std::isinf(w))
            << "path uses a non-edge " << (*path)[hop] << "->"
            << (*path)[hop + 1];
        total += w;
      }
      EXPECT_EQ(total, oracle.At(s, t))
          << "path " << s << "->" << t << " has wrong length";
    }

    // Point queries agree with the batch, and bad queries are rejected.
    auto single = svc.Distance(0, n - 1);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*single, oracle.At(0, n - 1));
    EXPECT_EQ(svc.Distance(-1, 0).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(svc.Distance(0, n).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DistanceService, ServesUnderTightCacheCap) {
  // Queries must stay correct when the cache only fits a sliver of the
  // store — the acceptance criterion for bounded-memory serving.
  const std::uint64_t seed = 0xcab;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  graph::Graph g = graph::ErdosRenyi(64, 0.2, {1.0, 10.0}, seed);
  apsp::SolveRequest request;
  request.options.block_size = 16;
  request.cluster = test::TestCluster();
  auto report = apsp::Solve(g, request);
  ASSERT_TRUE(report.ok());

  TempStoreDir dir("tightcap");
  apsp::PersistOptions popts;
  popts.block_size = 8;
  popts.with_paths = false;
  ASSERT_TRUE(apsp::PersistSolve(dir.path(), *report.distances(), nullptr,
                                 false, linalg::SemiringId::kMinPlus, popts)
                  .ok());

  store::DistanceService::Options sopts;
  sopts.num_threads = 4;
  sopts.store_options.cache_capacity_bytes =
      2 * linalg::DenseBlock(8, 8).SerializedBytes();
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok());
  store::DistanceService& svc = **service;
  EXPECT_FALSE(svc.has_paths());
  EXPECT_EQ(svc.Path(0, 1).status().code(), StatusCode::kFailedPrecondition);

  std::vector<store::DistanceService::Query> queries;
  for (int i = 0; i < 4000; ++i) {
    queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(64)),
                       static_cast<graph::VertexId>(rng.NextBounded(64))});
  }
  auto answers = svc.DistanceBatch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected =
        report.distances()->At(queries[i].s, queries[i].t);
    ASSERT_EQ((*answers)[i], expected)
        << "query " << i << " under cache pressure";
  }
  const auto stats = svc.store().stats();
  EXPECT_GT(stats.evictions, 0u) << "cap was meant to force churn";
  EXPECT_LE(svc.store().resident_bytes(),
            sopts.store_options.cache_capacity_bytes);
}

/// An ER graph on n vertices with integer weights (exact path sums), made
/// directed by dropping each reverse arc with probability 1/2.
graph::Graph IntegerGraph(std::int64_t n, bool directed, std::uint64_t seed) {
  const graph::Graph real = graph::ErdosRenyi(n, 0.15, {1.0, 10.0}, seed);
  graph::Graph g(n, directed);
  Xoshiro256 rng(seed ^ 0x1d);
  for (const auto& e : real.edges()) {
    const double w = std::floor(e.weight);
    g.AddEdge(e.u, e.v, w).CheckOk();
    if (directed && rng.NextDouble() < 0.5) g.AddEdge(e.v, e.u, w).CheckOk();
  }
  return g;
}

/// Solves `g`, persists its distance plane at store block `store_b` into
/// `dir` and returns the scalar Floyd-Warshall oracle.
linalg::DenseBlock PersistDistances(const graph::Graph& g,
                                    std::int64_t store_b,
                                    const std::string& dir) {
  linalg::DenseBlock oracle = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
  apsp::SolveRequest request;
  request.options.block_size = 16;
  request.options.directed = g.directed();
  request.cluster = test::TestCluster();
  auto report = apsp::Solve(g, request);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return oracle;
  apsp::PersistOptions popts;
  popts.block_size = store_b;
  popts.with_paths = false;
  const Status persisted =
      apsp::PersistSolve(dir, *report.distances(), nullptr, g.directed(),
                         linalg::SemiringId::kMinPlus, popts);
  EXPECT_TRUE(persisted.ok()) << persisted.ToString();
  return oracle;
}

std::vector<store::DistanceService::Query> UniformQueries(Xoshiro256& rng,
                                                          std::int64_t n,
                                                          int count) {
  std::vector<store::DistanceService::Query> queries;
  for (int i = 0; i < count; ++i) {
    const auto bound = static_cast<std::uint64_t>(n);
    queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(bound)),
                       static_cast<graph::VertexId>(rng.NextBounded(bound))});
  }
  return queries;
}

TEST(DistanceService, GroupedBatchIsBitwiseOracleInInputOrder) {
  // n % b != 0 leaves a ragged last block row and column. The batch mixes
  // mirrored pairs (s/b > t/b), duplicates and s == t, shuffled, so the
  // block-major grouping must scatter every answer back to its position.
  for (const bool directed : {false, true}) {
    const std::uint64_t seed = directed ? 0xb471 : 0xb470;
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const std::int64_t n = 45;
    const graph::Graph g = IntegerGraph(n, directed, seed);
    TempStoreDir dir(directed ? "group_dir" : "group_undir");
    const linalg::DenseBlock oracle = PersistDistances(g, 8, dir.path());

    store::DistanceService::Options sopts;
    sopts.num_threads = 4;
    sopts.store_options.cache_capacity_bytes =
        3 * linalg::DenseBlock(8, 8).SerializedBytes();
    auto service = store::DistanceService::Open(dir.path(), sopts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    store::DistanceService& svc = **service;

    auto queries = UniformQueries(rng, n, 600);
    for (const auto& [s, t] : std::vector<std::pair<std::int64_t,
                                                    std::int64_t>>{
             {40, 3}, {3, 40}, {44, 0}, {0, 44}, {44, 44}, {0, 0}, {17, 17}}) {
      queries.push_back({s, t});
    }
    for (int dup = 0; dup < 50; ++dup) queries.push_back(queries[dup % 7]);
    for (std::size_t i = queries.size(); i > 1; --i) {
      std::swap(queries[i - 1], queries[rng.NextBounded(i)]);
    }

    auto answers = svc.DistanceBatch(queries);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    ASSERT_EQ(answers->size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const double expected = oracle.At(queries[i].s, queries[i].t);
      ASSERT_EQ(std::memcmp(&(*answers)[i], &expected, sizeof expected), 0)
          << "answer " << i << " for (" << queries[i].s << ", "
          << queries[i].t << ")";
    }

    auto empty = svc.DistanceBatch({});
    ASSERT_TRUE(empty.ok());
    EXPECT_TRUE(empty->empty());
  }
}

TEST(DistanceService, BatchFetchesEachBlockOncePerChunk) {
  // A batch touching D distinct stored blocks makes at most one fetch per
  // block plus one per chunk boundary that splits a block's run.
  for (const bool directed : {false, true}) {
    const std::uint64_t seed = directed ? 0xfe71 : 0xfe70;
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const std::int64_t n = 45;
    const std::int64_t b = 8;
    TempStoreDir dir(directed ? "fetch_dir" : "fetch_undir");
    PersistDistances(IntegerGraph(n, directed, seed), b, dir.path());

    store::DistanceService::Options sopts;
    sopts.num_threads = 4;
    auto service = store::DistanceService::Open(dir.path(), sopts);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    store::DistanceService& svc = **service;

    const auto queries = UniformQueries(rng, n, 5000);
    std::set<std::pair<std::int64_t, std::int64_t>> blocks;
    for (const auto& query : queries) {
      std::int64_t I = query.s / b;
      std::int64_t J = query.t / b;
      if (!directed && I > J) std::swap(I, J);
      blocks.insert({I, J});
    }
    const std::uint64_t chunks = 4 * sopts.num_threads;

    const auto before = svc.store().stats();
    ASSERT_TRUE(svc.DistanceBatch(queries).ok());
    const auto after = svc.store().stats();
    const std::uint64_t fetches =
        (after.hits + after.misses) - (before.hits + before.misses);
    EXPECT_GE(fetches, blocks.size());
    EXPECT_LE(fetches, blocks.size() + chunks - 1);
  }
}

TEST(DistanceService, SkewedBatchLeavesItsHottestBlockResident) {
  // Runs are laid out coldest first, so the hottest block is admitted last
  // even when it comes first in (I, J) order: under a one-window cap it is
  // the window the batch leaves behind.
  const std::uint64_t seed = 0x407;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("skew");
  const linalg::DenseBlock oracle =
      PersistDistances(IntegerGraph(32, false, seed), 8, dir.path());

  store::DistanceService::Options sopts;
  sopts.num_threads = 2;
  sopts.store_options.cache_capacity_bytes =
      linalg::DenseBlock(8, 8).SerializedBytes();
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;

  // Block (0, 0) is the hottest and first in key order; (0, 1) and (1, 1)
  // are cold and, at 70 of 800 queries, fit in the first of 8 chunks.
  std::vector<store::DistanceService::Query> queries;
  auto add = [&](std::int64_t I, std::int64_t J, int count) {
    for (int i = 0; i < count; ++i) {
      queries.push_back(
          {static_cast<graph::VertexId>(8 * I + rng.NextBounded(8)),
           static_cast<graph::VertexId>(8 * J + rng.NextBounded(8))});
    }
  };
  add(0, 0, 730);
  add(0, 1, 30);
  add(1, 1, 40);
  for (std::size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.NextBounded(i)]);
  }
  auto answers = svc.DistanceBatch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ((*answers)[i], oracle.At(queries[i].s, queries[i].t));
  }

  const auto before = svc.store().stats();
  auto d = svc.Distance(5, 2);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(*d, oracle.At(5, 2));
  const auto after = svc.store().stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST(DistanceService, BatchRejectsLowestIndexBadQueryBeforeAnyFetch) {
  // Two bad queries in different chunks: the batch names the lower-index
  // one, whichever chunk would have run first, and leaves the cache as it
  // was.
  const std::uint64_t seed = 0xbad;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  const std::int64_t n = 45;
  TempStoreDir dir("badbatch");
  PersistDistances(IntegerGraph(n, false, seed), 8, dir.path());

  store::DistanceService::Options sopts;
  sopts.num_threads = 4;
  sopts.store_options.cache_capacity_bytes =
      2 * linalg::DenseBlock(8, 8).SerializedBytes();
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;
  ASSERT_TRUE(svc.DistanceBatch(UniformQueries(rng, n, 200)).ok());

  // 1000 queries in 16 chunks of 63: indices 120 and 900 fall in chunks 1
  // and 14.
  auto queries = UniformQueries(rng, n, 1000);
  queries[900] = {n, 0};
  queries[120] = {7, -3};
  const auto before = svc.store().stats();
  auto answers = svc.DistanceBatch(queries);
  ASSERT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = answers.status().message();
  EXPECT_NE(message.find("batch query 120"), std::string::npos) << message;
  EXPECT_NE(message.find("(7, -3)"), std::string::npos) << message;
  EXPECT_EQ(message.find("(45, 0)"), std::string::npos) << message;
  const auto after = svc.store().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.bytes_loaded, before.bytes_loaded);
  EXPECT_EQ(after.resident_bytes, before.resident_bytes);
}

TEST(DistanceService, BatchAnswersLikePointQueriesWithOneSampleEach) {
  // An undirected store whose n is not a multiple of b, and a batch of
  // 3000 queries over 16 chunks, about half of them mirrored (s/b > t/b).
  // Every answer is bitwise Distance()'s, the batch adds exactly one point
  // sample per query and one batch sample, and a batch with two bad queries
  // far apart names the lower one and moves no store counter.
  const std::uint64_t seed = 0x5a3;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  const std::int64_t n = 45;
  const std::int64_t b = 8;
  TempStoreDir dir("samples");
  PersistDistances(IntegerGraph(n, false, seed), b, dir.path());

  store::DistanceService::Options sopts;
  sopts.num_threads = 4;
  sopts.store_options.cache_capacity_bytes =
      4 * linalg::DenseBlock(b, b).SerializedBytes();
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;

  const auto queries = UniformQueries(rng, n, 3000);
  const auto mirrored = std::count_if(
      queries.begin(), queries.end(),
      [&](const auto& query) { return query.s / b > query.t / b; });
  EXPECT_GT(mirrored, 1000);

  const std::uint64_t points_before = svc.PointLatency().count;
  const std::uint64_t batches_before = svc.BatchLatency().count;
  auto answers = svc.DistanceBatch(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(svc.PointLatency().count - points_before, queries.size());
  EXPECT_EQ(svc.BatchLatency().count - batches_before, 1u);
  ASSERT_EQ(answers->size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto point = svc.Distance(queries[i].s, queries[i].t);
    ASSERT_TRUE(point.ok()) << point.status().ToString();
    ASSERT_EQ(std::memcmp(&(*answers)[i], &*point, sizeof(double)), 0)
        << "answer " << i << " for (" << queries[i].s << ", "
        << queries[i].t << ")";
  }

  // 3000 queries in 16 chunks of 188: indices 150 and 2900 fall in chunks 0
  // and 15.
  auto bad = queries;
  bad[2900] = {3, n};
  bad[150] = {-1, 4};
  const auto stats_before = svc.store().stats();
  const std::uint64_t points_at_reject = svc.PointLatency().count;
  auto rejected = svc.DistanceBatch(bad);
  ASSERT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = rejected.status().message();
  EXPECT_NE(message.find("batch query 150: query (-1, 4)"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("2900"), std::string::npos) << message;
  const auto stats_after = svc.store().stats();
  EXPECT_EQ(stats_after.hits, stats_before.hits);
  EXPECT_EQ(stats_after.misses, stats_before.misses);
  EXPECT_EQ(stats_after.evictions, stats_before.evictions);
  EXPECT_EQ(stats_after.bytes_loaded, stats_before.bytes_loaded);
  EXPECT_EQ(stats_after.resident_bytes, stats_before.resident_bytes);
  EXPECT_EQ(stats_after.peak_resident_bytes, stats_before.peak_resident_bytes);
  EXPECT_EQ(svc.PointLatency().count, points_at_reject);
}

TEST(DistanceService, OnlyAnsweredPointQueriesAddLatencySamples) {
  // PointLatency() holds every query answered: a rejected query and a failed
  // fetch add no sample.
  const std::uint64_t seed = 0x5a4;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  TempStoreDir dir("point_samples");
  WriteTinyStore(dir.path(), {{{0, 0}, RandomDense(rng, 4, 4)},
                              {{1, 1}, RandomDense(rng, 4, 4)}});
  // Flip one payload byte of window (0, 0): its fetch fails the checksum.
  FlipByte(fs::path(dir.path()) / "BLOCKS.bin", 40, 0x40);
  auto service = store::DistanceService::Open(dir.path());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;

  const std::uint64_t before = svc.PointLatency().count;
  EXPECT_EQ(svc.Distance(-1, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Distance(0, 8).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Distance(1, 2).status().code(), StatusCode::kStoreCorrupt);
  EXPECT_EQ(svc.PointLatency().count, before);
  EXPECT_TRUE(svc.Distance(5, 6).ok());
  EXPECT_EQ(svc.PointLatency().count, before + 1);
}

TEST(DistanceService, OnlyAnsweredPathsAddLatencySamples) {
  // PathLatency() holds every Path() answered, a path or kNotFound: rejected
  // endpoints and a walk whose fetch fails add no sample. Two components,
  // 0-1-2-3 and 4-5-6-7, one per block at b = 4.
  graph::Graph g(8);
  for (const graph::VertexId u : {0, 1, 2, 4, 5, 6}) {
    ASSERT_TRUE(g.AddEdge(u, u + 1, 1.0).ok());
  }
  linalg::DenseBlock distances = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(distances);
  TempStoreDir dir("path_samples");
  apsp::PersistOptions popts;
  popts.block_size = 4;
  ASSERT_TRUE(apsp::PersistSolve(dir.path(), distances, &g, false,
                                 linalg::SemiringId::kMinPlus, popts)
                  .ok());
  std::uint64_t next_11 = 0;
  {
    auto reader = store::BlockStore::Open(dir.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const auto& e : (*reader)->manifest().entries) {
      if (e.plane == store::Plane::kNext && e.I == 1 && e.J == 1) {
        next_11 = e.offset;
      }
    }
  }
  ASSERT_GT(next_11, 0u);
  // Flip one payload byte of next window (1, 1): its fetch fails.
  FlipByte(fs::path(dir.path()) / "BLOCKS.bin", next_11 + 40, 0x40);
  auto service = store::DistanceService::Open(dir.path());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;

  const std::uint64_t before = svc.PathLatency().count;
  EXPECT_EQ(svc.Path(-1, 0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Path(0, 8).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(svc.Path(4, 7).status().code(), StatusCode::kStoreCorrupt);
  EXPECT_EQ(svc.PathLatency().count, before);
  auto path = svc.Path(0, 3);
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(*path, (std::vector<graph::VertexId>{0, 1, 2, 3}));
  EXPECT_EQ(svc.PathLatency().count, before + 1);
  EXPECT_EQ(svc.Path(0, 5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(svc.PathLatency().count, before + 2);
}

TEST(DistanceService, ConcurrentPathsAndBatchUnderATwoWindowCap) {
  // Four Path() walkers and two DistanceBatch clients share a store whose
  // cap holds two windows, so nearly every hop admits a window and evicts
  // another while other threads hold pins on the same plane. With two batch
  // clients, a batch can find the service's scratch in use by the other.
  const std::uint64_t seed = 0x9a7f;
  APSPARK_SEEDED_CASE(seed);
  const std::int64_t n = 48;
  constexpr std::int64_t kStoreB = 8;
  const graph::Graph g = IntegerGraph(n, /*directed=*/true, seed);
  linalg::DenseBlock oracle = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
  const linalg::DenseBlock adjacency = g.ToDenseAdjacency();

  apsp::SolveRequest request;
  request.options.block_size = 16;
  request.options.directed = true;
  request.cluster = test::TestCluster();
  auto report = apsp::Solve(g, request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  TempStoreDir dir("pathrace");
  apsp::PersistOptions popts;
  popts.block_size = kStoreB;
  ASSERT_TRUE(apsp::PersistSolve(dir.path(), *report.distances(), &g, true,
                                 linalg::SemiringId::kMinPlus, popts)
                  .ok());

  sparklet::MemoryAccountant accountant;
  store::DistanceService::Options sopts;
  sopts.num_threads = 4;
  sopts.store_options.cache_capacity_bytes =
      2 * linalg::DenseBlock(kStoreB, kStoreB).SerializedBytes();
  sopts.store_options.accountant = &accountant;
  auto service = store::DistanceService::Open(dir.path(), sopts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  store::DistanceService& svc = **service;

  constexpr int kWalkers = 4;
  constexpr int kWalksPerThread = 150;
  std::atomic<int> bad_paths{0};
  std::atomic<int> bad_answers{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kWalkers; ++tid) {
    threads.emplace_back([&, tid] {
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(tid) + 1);
      for (int walk = 0; walk < kWalksPerThread; ++walk) {
        const auto s = static_cast<graph::VertexId>(rng.NextBounded(n));
        const auto t = static_cast<graph::VertexId>(rng.NextBounded(n));
        auto path = svc.Path(s, t);
        if (std::isinf(oracle.At(s, t))) {
          if (path.status().code() != StatusCode::kNotFound) ++bad_paths;
          continue;
        }
        if (!path.ok() || path->front() != s || path->back() != t) {
          ++bad_paths;
          continue;
        }
        double total = 0;
        for (std::size_t hop = 0; hop + 1 < path->size(); ++hop) {
          total += adjacency.At((*path)[hop], (*path)[hop + 1]);
        }
        if (total != oracle.At(s, t)) ++bad_paths;
      }
    });
  }
  for (int client = 0; client < 2; ++client) {
    threads.emplace_back([&, client] {
      Xoshiro256 rng(seed + 0x100 * static_cast<std::uint64_t>(client));
      for (int round = 0; round < 6; ++round) {
        const auto queries = UniformQueries(rng, n, 2000);
        auto answers = svc.DistanceBatch(queries);
        if (!answers.ok()) {
          ++bad_answers;
          continue;
        }
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const double want = oracle.At(queries[i].s, queries[i].t);
          if (std::memcmp(&(*answers)[i], &want, sizeof want) != 0) {
            ++bad_answers;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_paths.load(), 0) << "every path is an oracle-length walk";
  EXPECT_EQ(bad_answers.load(), 0) << "every answer is bitwise the oracle";

  const auto stats = svc.store().stats();
  EXPECT_GT(stats.evictions, 0u) << "the cap was meant to force churn";
  EXPECT_LE(stats.resident_bytes, sopts.store_options.cache_capacity_bytes);
  EXPECT_EQ(accountant.driver_live_bytes(), stats.resident_bytes);
}

TEST(SuccessorsFromDistances, AgreesWithTrackedFloydWarshall) {
  // The derived successor plane must yield paths exactly as short as the
  // O(n^3)-tracked reference on every reachable pair.
  const std::uint64_t seed = 0x5cc;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  for (int round = 0; round < 6; ++round) {
    test::RandomGraphOptions gopts;
    gopts.max_vertices = 40;
    gopts.integer_weights = true;
    graph::Graph g = test::RandomTestGraph(rng, gopts);
    const std::int64_t n = g.num_vertices();

    auto tracked = graph::FloydWarshallWithPaths(g);
    linalg::DenseBlock next =
        graph::SuccessorsFromDistances(g, tracked.distances);
    linalg::DenseBlock adjacency = g.ToDenseAdjacency();

    for (std::int64_t s = 0; s < n; ++s) {
      for (std::int64_t t = 0; t < n; ++t) {
        auto derived = graph::ExtractPathWithLookup(
            n, s, t, [&next](graph::VertexId i, graph::VertexId target) {
              return static_cast<std::int64_t>(next.At(i, target));
            });
        auto reference = graph::ExtractPath(tracked, s, t);
        ASSERT_EQ(derived.ok(), reference.ok())
            << s << "->" << t << " reachability disagrees";
        if (!derived.ok()) continue;
        double total = 0;
        for (std::size_t hop = 0; hop + 1 < derived->size(); ++hop) {
          total += adjacency.At((*derived)[hop], (*derived)[hop + 1]);
        }
        EXPECT_EQ(total, tracked.distances.At(s, t))
            << "derived path " << s << "->" << t << " not shortest";
      }
    }
  }

  // Row fan-out on the kernel pool: a graph with parallel edges and weights
  // in {1, 2} (many equal-length alternatives, so the smallest-k tie-break
  // decides most entries) must give the same plane bit for bit on a
  // 1-worker pool (rows inline) and on the default pool — at the default
  // grain and with one row per stealable task.
  const std::int64_t n = 320;
  graph::Graph g(n);
  for (std::int64_t u = 0; u < n; ++u) {
    for (int e = 0; e < 4; ++e) {
      const auto v = static_cast<graph::VertexId>(rng.NextBounded(n));
      if (v == u) continue;
      const double w = 1.0 + static_cast<double>(rng.NextBounded(2));
      ASSERT_TRUE(g.AddEdge(u, v, w).ok());
      if (e == 0) {
        ASSERT_TRUE(g.AddEdge(u, v, w).ok());        // equal parallel copy
        ASSERT_TRUE(g.AddEdge(u, v, w + 1.0).ok());  // heavier copy
      }
    }
  }
  const auto tracked = graph::FloydWarshallWithPaths(g);
  ThreadPool one_worker(1);
  linalg::ScopedKernelVariant parallel(linalg::KernelVariant::kTiledParallel);
  for (const std::int64_t grain :
       {linalg::GetKernelTuning().parallel_grain_ops, n}) {
    linalg::KernelTuning tuning = linalg::GetKernelTuning();
    tuning.parallel_grain_ops = grain;
    linalg::SetKernelTuning(tuning);
    linalg::SetKernelThreadPool(&one_worker);
    const linalg::DenseBlock inline_rows =
        graph::SuccessorsFromDistances(g, tracked.distances);
    linalg::SetKernelThreadPool(nullptr);
    const linalg::DenseBlock fanned_out =
        graph::SuccessorsFromDistances(g, tracked.distances);
    test::ExpectBitwiseEqual(fanned_out, inline_rows,
                             "successor rows, grain " + std::to_string(grain));
    for (std::int64_t s = 0; s < n; s += 7) {
      for (std::int64_t t = 0; t < n; t += 5) {
        auto path = graph::ExtractPathWithLookup(
            n, s, t, [&](graph::VertexId i, graph::VertexId target) {
              return static_cast<std::int64_t>(fanned_out.At(i, target));
            });
        ASSERT_EQ(path.ok(), !std::isinf(tracked.distances.At(s, t)))
            << s << "->" << t;
      }
    }
  }
}

TEST(SuccessorsFromDistances, ShuffledEdgeListsGiveTheSamePlane) {
  // The plane is a function of the graph, not of its edge order: among the
  // neighbors k of i that reach j at the least w(i, k) + dist(k, j) the
  // smallest k wins, with parallel edges and zero-weight edges (the
  // hop-count tie pass) in play.
  const std::uint64_t seed = 0x71eb;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  for (const bool directed : {false, true}) {
    const std::int64_t n = 60;
    std::vector<graph::Edge> edges;
    for (std::int64_t u = 0; u < n; ++u) {
      for (int e = 0; e < 3; ++e) {
        const auto v = static_cast<graph::VertexId>(rng.NextBounded(n));
        if (v == u) continue;
        const double w = static_cast<double>(rng.NextBounded(3));
        edges.push_back({u, v, w});
        if (e == 0) edges.push_back({u, v, w + 1.0});  // heavier copy
        if (e == 1) edges.push_back({u, v, w});        // equal copy
      }
    }
    auto build = [&](const std::vector<graph::Edge>& list) {
      graph::Graph g(n, directed);
      for (const auto& e : list) g.AddEdge(e.u, e.v, e.weight).CheckOk();
      return g;
    };
    const graph::Graph g = build(edges);
    linalg::DenseBlock distances = g.ToDenseAdjacency();
    linalg::SemiringClosure<linalg::MinPlusSemiring>(distances);
    const linalg::DenseBlock next =
        graph::SuccessorsFromDistances(g, distances);
    for (int round = 0; round < 4; ++round) {
      std::vector<graph::Edge> shuffled = edges;
      for (std::size_t k = shuffled.size(); k > 1; --k) {
        std::swap(shuffled[k - 1], shuffled[rng.NextBounded(k)]);
      }
      if (!directed) {
        for (auto& e : shuffled) {
          if (rng.NextBounded(2) == 1) std::swap(e.u, e.v);
        }
      }
      test::ExpectBitwiseEqual(
          graph::SuccessorsFromDistances(build(shuffled), distances), next,
          std::string(directed ? "directed" : "undirected") + " shuffle " +
              std::to_string(round));
    }
  }

  // Hand-checked: 0 reaches 4 through 3 and through 1 at equal length, and
  // the edge to 3 comes first; the smaller hop, 1, wins.
  graph::Graph diamond(5, true);
  const std::pair<graph::VertexId, graph::VertexId> arcs[] = {
      {0, 3}, {0, 1}, {3, 4}, {1, 4}};
  for (const auto& [u, v] : arcs) {
    ASSERT_TRUE(diamond.AddEdge(u, v, 1.0).ok());
  }
  linalg::DenseBlock diamond_dist = diamond.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(diamond_dist);
  EXPECT_EQ(graph::SuccessorsFromDistances(diamond, diamond_dist).At(0, 4),
            1.0);
}

TEST(ZipfSampler, IsSkewedAndInRange) {
  Xoshiro256 rng(7);
  ZipfSampler zipf(1000, 1.1);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = zipf.Sample(rng);
    ASSERT_LT(v, 1000u);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Rank 0 must dominate, and the head must carry far more than its uniform
  // share (100 of 100k draws per rank if uniform).
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 5000);
  int head = 0;
  for (int i = 0; i < 10; ++i) head += counts[i];
  EXPECT_GT(head, 25000) << "top-1% of ranks should absorb >25% of draws";
}

}  // namespace
}  // namespace apspark
