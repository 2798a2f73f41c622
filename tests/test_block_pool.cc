// Block buffer pool: dense payloads are recycled, never observed.
//
// A recycled buffer must be indistinguishable from a fresh one: a filled
// block holds its fill everywhere, a copy is bitwise equal to its source,
// and a solve that runs entirely on recycled buffers returns bitwise-equal
// distances. Packed and phantom blocks carry no pooled payload, idle bytes
// stay under the cap, and concurrent take/release from pool threads is safe
// (this suite runs under ThreadSanitizer with the host-parallel label).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "apsp/api.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "linalg/block_pool.h"
#include "linalg/block_ref.h"
#include "linalg/dense_block.h"
#include "obs/metrics_registry.h"
#include "test_support.h"

#if defined(__SANITIZE_ADDRESS__)
#define APSPARK_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define APSPARK_TEST_ASAN 1
#endif
#endif

namespace apspark {
namespace {

using linalg::BlockPoolIdleBytes;
using linalg::BlockRef;
using linalg::DenseBlock;
using linalg::kInf;

// 256 x 256 doubles = 512 KiB: a pooled size.
constexpr std::int64_t kB = 256;

std::uint64_t Reused() {
  return obs::Registry::Global().GetCounter("block_pool_reused_total").value();
}

std::uint64_t Fresh() {
  return obs::Registry::Global().GetCounter("block_pool_fresh_total").value();
}

/// Leaves one idle b x b buffer holding `garbage` everywhere.
void SeedPoolWith(double garbage) {
  DenseBlock dirty(kB, kB, garbage);
}

TEST(BlockPool, RecycledBlockHoldsItsFillEverywhere) {
  linalg::TrimBlockPool();
  SeedPoolWith(-7.25);
  EXPECT_EQ(BlockPoolIdleBytes(), kB * kB * sizeof(double));
  const std::uint64_t reused = Reused();
  const DenseBlock block(kB, kB, kInf);
  EXPECT_EQ(Reused(), reused + 1);
  EXPECT_EQ(BlockPoolIdleBytes(), 0u);
  for (std::int64_t i = 0; i < block.size(); ++i) {
    ASSERT_EQ(block.data()[i], kInf) << "element " << i;
  }
}

TEST(BlockPool, MutableCopyOnRecycledBufferIsBitwiseEqual) {
  Xoshiro256 rng(5);
  DenseBlock source(kB, kB, 0.0);
  for (std::int64_t i = 0; i < source.size(); ++i) {
    source.mutable_data()[i] = rng.NextDouble() < 0.3 ? kInf
                                                       : rng.NextDouble(0, 9);
  }
  const BlockRef ref = linalg::MakeRef(std::move(source));
  linalg::TrimBlockPool();
  SeedPoolWith(42.0);
  const std::uint64_t reused = Reused();
  const DenseBlock copy = ref.MutableCopy();
  EXPECT_EQ(Reused(), reused + 1);
  ASSERT_EQ(std::memcmp(copy.data(), ref->data(),
                        static_cast<std::size_t>(copy.size()) *
                            sizeof(double)),
            0);
  // Copy assignment between same-sized blocks reuses the target's buffer.
  DenseBlock target(kB, kB, 1.0);
  const double* buffer = target.data();
  target = *ref;
  EXPECT_EQ(target.data(), buffer);
  test::ExpectBitwiseEqual(target, *ref);
}

TEST(BlockPool, PackedPhantomAndSmallBlocksNeverEnterThePool) {
  linalg::TrimBlockPool();
  {
    // 2048 x 2048 bits = 512 KiB of words: pooled size, but not doubles.
    const DenseBlock packed = DenseBlock::PackedBoolean(2048, 2048, 1.0);
    const DenseBlock phantom = DenseBlock::Phantom(4096, 4096);
    const DenseBlock packed_phantom = DenseBlock::PackedPhantom(4096, 4096);
    const DenseBlock small(64, 64, 0.0);  // 32 KiB, under the threshold
    EXPECT_FALSE(linalg::BlockPoolEligible(64 * 64));
  }
  EXPECT_EQ(BlockPoolIdleBytes(), 0u);
  // A packed block takes nothing from the pool either.
  SeedPoolWith(3.0);
  const std::uint64_t reused = Reused();
  const DenseBlock packed = DenseBlock::PackedBoolean(kB, kB * 64);
  EXPECT_EQ(Reused(), reused);
  EXPECT_EQ(BlockPoolIdleBytes(), kB * kB * sizeof(double));
}

TEST(BlockPool, IdleBytesStayUnderTheCap) {
  linalg::TrimBlockPool();
  // 17 buffers of 16 MiB released together: 272 MiB against a 256 MiB cap.
  constexpr std::int64_t kSide = 1448;  // 1448^2 doubles ~ 16 MiB
  constexpr std::size_t kBytes = kSide * kSide * sizeof(double);
  {
    std::vector<DenseBlock> blocks;
    for (int i = 0; i < 17; ++i) blocks.emplace_back(kSide, kSide, 0.0);
  }
  const std::size_t idle = BlockPoolIdleBytes();
  EXPECT_LE(idle, linalg::kBlockPoolIdleCapBytes);
  EXPECT_GT(idle + kBytes, linalg::kBlockPoolIdleCapBytes)
      << "the pool should have filled up to within one buffer of the cap";
  EXPECT_EQ(obs::Registry::Global().GetGauge("block_pool_idle_bytes").value(),
            static_cast<double>(idle));
  linalg::TrimBlockPool();
  EXPECT_EQ(BlockPoolIdleBytes(), 0u);
}

TEST(BlockPool, ConcurrentTakeAndReleaseFromPoolThreads) {
  linalg::TrimBlockPool();
  ThreadPool pool(4);
  std::vector<int> bad(64, 0);
  pool.ParallelForTasks(64, [&](std::size_t task) {
    for (int round = 0; round < 8; ++round) {
      const double fill = static_cast<double>(task * 8 + round);
      // Two sizes so the per-size idle lists interleave.
      const std::int64_t cols = (task + round) % 2 == 0 ? kB : kB / 2;
      DenseBlock block(kB, cols, fill);
      for (std::int64_t i = 0; i < block.size(); i += 97) {
        if (block.data()[i] != fill) ++bad[task];
      }
      block.mutable_data()[0] = -fill;
      DenseBlock copy = block;
      if (copy.data()[0] != -fill || copy.data()[block.size() - 1] != fill) {
        ++bad[task];
      }
    }
  });
  for (std::size_t t = 0; t < bad.size(); ++t) EXPECT_EQ(bad[t], 0) << t;
  EXPECT_LE(BlockPoolIdleBytes(), linalg::kBlockPoolIdleCapBytes);
}

TEST(BlockPool, SecondIdenticalSolveRunsOnRecycledBuffers) {
  const graph::Graph g = graph::PaperErdosRenyi(512, 4);
  apsp::SolveRequest request{.cluster = test::TestCluster()};
  request.options.block_size = 128;  // 128 KiB blocks: the smallest pooled
  const apsp::SolveReport first = apsp::Solve(g, request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::uint64_t reused = Reused();
  const std::uint64_t fresh = Fresh();
  const apsp::SolveReport second = apsp::Solve(g, request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const std::uint64_t took = Reused() - reused;
  const std::uint64_t allocated = Fresh() - fresh;
  ASSERT_GT(took + allocated, 0u);
  EXPECT_GE(static_cast<double>(took),
            0.9 * static_cast<double>(took + allocated))
      << took << " reused, " << allocated << " fresh";
  test::ExpectBitwiseEqual(*second.distances(), *first.distances());
}

#if defined(APSPARK_TEST_ASAN)
TEST(BlockPoolDeathTest, ReadThroughDanglingPayloadIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        linalg::TrimBlockPool();
        const double* dangling = nullptr;
        {
          const DenseBlock block(kB, kB, 1.0);
          dangling = block.data();
        }
        volatile double read = dangling[kB];
        (void)read;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace apspark
