// Zero-copy data plane: BlockRef sharing, the DenseBlock copy accounting,
// the shared-storage block store, and the memory accountant.
//
// The lock this suite provides: whole solves — shuffle solvers, staged
// solvers, both KSSP variants — must finish with ZERO unsanctioned deep
// copies of block payloads. Every payload duplication in the engine is an
// explicit copy-on-write mutation site (a kernel copying its base block
// before updating in place) or a durability re-materialization (checkpoint
// load), both under CowScope. Shuffle buckets, cached partitions, staged
// reads, and driver collects move refs only.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apsp/api.h"
#include "graph/generators.h"
#include "linalg/block_ref.h"
#include "sparklet/memory_accountant.h"
#include "sparklet/rdd.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::Solve;
using apsp::SolverKind;
using linalg::BlockCopyStats;
using linalg::BlockRef;
using linalg::CowScope;
using linalg::DenseBlock;
using sparklet::MemoryAccountant;
using test::TestCluster;

// --- BlockRef ---------------------------------------------------------------

TEST(BlockRef, WrapsSharedPayloadAndCachesSerializedSize) {
  BlockRef ref = linalg::MakeRef(DenseBlock(4, 6, 1.5));
  EXPECT_EQ(ref->rows(), 4);
  EXPECT_EQ(ref->cols(), 6);
  EXPECT_EQ(ref.serialized_bytes(), ref->SerializedBytes());
  BlockRef copy = ref;  // ref-count bump, shared payload
  EXPECT_EQ(copy.get(), ref.get());
  EXPECT_GE(ref.use_count(), 2);
}

TEST(BlockRef, MutableCopyIsSanctioned) {
  const BlockRef ref = linalg::MakeRef(DenseBlock(8, 8, 2.0));
  const std::uint64_t unsanctioned = BlockCopyStats::UnsanctionedCopies();
  DenseBlock mut = ref.MutableCopy();
  mut.Set(0, 0, 7.0);
  EXPECT_EQ(BlockCopyStats::UnsanctionedCopies(), unsanctioned);
  EXPECT_EQ(ref->At(0, 0), 2.0);  // the shared original is untouched
}

// --- copy accounting --------------------------------------------------------

TEST(BlockCopyStats, CountsPlainCopiesAndSanctionsCowScopes) {
  const DenseBlock block(16, 16, 3.0);
  const std::uint64_t total0 = BlockCopyStats::TotalCopies();
  const std::uint64_t unsanctioned0 = BlockCopyStats::UnsanctionedCopies();
  DenseBlock plain_copy = block;  // counted, unsanctioned
  EXPECT_EQ(BlockCopyStats::TotalCopies(), total0 + 1);
  EXPECT_EQ(BlockCopyStats::UnsanctionedCopies(), unsanctioned0 + 1);
  {
    CowScope cow;
    DenseBlock cow_copy = block;  // counted, sanctioned
    EXPECT_EQ(BlockCopyStats::TotalCopies(), total0 + 2);
    EXPECT_EQ(BlockCopyStats::UnsanctionedCopies(), unsanctioned0 + 1);
    (void)cow_copy;
  }
  (void)plain_copy;
}

TEST(BlockCopyStats, PhantomAndMoveAreFree) {
  const std::uint64_t total0 = BlockCopyStats::TotalCopies();
  DenseBlock phantom = DenseBlock::Phantom(1024, 1024);
  DenseBlock phantom_copy = phantom;               // no payload: free
  DenseBlock moved = DenseBlock(32, 32, 1.0);      // construction: free
  DenseBlock moved_again = std::move(moved);       // move: free
  (void)phantom_copy;
  (void)moved_again;
  EXPECT_EQ(BlockCopyStats::TotalCopies(), total0);
}

// --- whole-solve zero-copy locks -------------------------------------------

/// Runs `fn` and returns how many unsanctioned deep copies it made.
template <typename Fn>
std::uint64_t UnsanctionedCopiesDuring(Fn&& fn) {
  const std::uint64_t before = BlockCopyStats::UnsanctionedCopies();
  fn();
  return BlockCopyStats::UnsanctionedCopies() - before;
}

TEST(ZeroCopyDataPlane, ShuffleSolverMakesNoUnsanctionedCopies) {
  // Blocked In-Memory: everything travels through combineByKey shuffles.
  // Pre-refactor regression target: reduce-side bucket duplication.
  const graph::Graph g = graph::PaperErdosRenyi(48, 3);
  const std::uint64_t copies = UnsanctionedCopiesDuring([&] {
    ApspOptions opts;
    opts.block_size = 12;
    auto result = Solve(g, {.solver = SolverKind::kBlockedInMemory,
                            .options = opts, .cluster = TestCluster()})
                      .run;
    ASSERT_TRUE(result.status.ok());
  });
  EXPECT_EQ(copies, 0u);
}

TEST(ZeroCopyDataPlane, StagedSolverMakesNoUnsanctionedCopies) {
  // Blocked Collect/Broadcast: pre-refactor, every staged read deserialized
  // a fresh payload per task — counted as a deep copy today.
  const graph::Graph g = graph::PaperErdosRenyi(48, 4);
  const std::uint64_t copies = UnsanctionedCopiesDuring([&] {
    ApspOptions opts;
    opts.block_size = 12;
    auto result = Solve(g, {.solver = SolverKind::kBlockedCollectBroadcast,
                            .options = opts, .cluster = TestCluster()})
                      .run;
    ASSERT_TRUE(result.status.ok());
  });
  EXPECT_EQ(copies, 0u);
}

TEST(ZeroCopyDataPlane, BothKsourcePlanesMakeNoUnsanctionedCopies) {
  const graph::Graph g = graph::PaperErdosRenyi(60, 5);
  const std::vector<graph::VertexId> sources = {0, 7, 31, 59};
  for (SolverKind plane : {SolverKind::kBlockedCollectBroadcast,
                           SolverKind::kBlockedInMemory}) {
    const std::uint64_t copies = UnsanctionedCopiesDuring([&] {
      apsp::SolveRequest request{
          .solver = plane, .sources = sources, .cluster = TestCluster()};
      request.options.block_size = 16;
      auto result = Solve(g, request).run;
      ASSERT_TRUE(result.status.ok());
    });
    EXPECT_EQ(copies, 0u) << apsp::SolverKindName(plane);
  }
}

// --- shared-storage block store ---------------------------------------------

TEST(SharedStorageBlocks, GetBlockReturnsTheSharedRef) {
  sparklet::SharedStorage storage;
  BlockRef ref = linalg::MakeRef(DenseBlock(8, 8, 1.0));
  const DenseBlock* payload = ref.get();
  storage.PutBlock("k", ref);
  auto got = storage.GetBlock("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), payload);  // the very same allocation, no copy
  EXPECT_EQ(storage.total_logical_bytes(), ref.serialized_bytes());
}

TEST(SharedStorageBlocks, ByteAndBlockObjectsKeepTheirKinds) {
  sparklet::SharedStorage storage;
  storage.Put("bytes", {1, 2, 3}, 3);
  storage.PutBlock("block", linalg::MakeRef(DenseBlock(2, 2, 0.0)));
  // Kind guards are symmetric: each accessor serves only its own kind, so
  // no caller can ever see an ok Object with a null payload.
  EXPECT_FALSE(storage.GetBlock("bytes").ok());
  EXPECT_FALSE(storage.Get("block").ok());
  EXPECT_FALSE(storage.GetBlock("missing").ok());
  EXPECT_TRUE(storage.Get("bytes").ok());
  // Overwriting a block with bytes replaces the kind and the accounting.
  storage.Put("block", {9}, 1);
  EXPECT_FALSE(storage.GetBlock("block").ok());
  EXPECT_TRUE(storage.Get("block").ok());
  EXPECT_EQ(storage.total_logical_bytes(), 3u + 1u);
}

// --- memory accountant ------------------------------------------------------

TEST(MemoryAccountantTest, TracksLiveAndPeakPerSite) {
  MemoryAccountant acct(2);
  acct.ChargeDriver(100);
  acct.ChargeNode(0, 40);
  acct.ChargeNode(1, 60);
  acct.TouchDriver(50);  // transient spike on top of the live 100
  EXPECT_EQ(acct.driver_live_bytes(), 100u);
  EXPECT_EQ(acct.driver_peak_bytes(), 150u);
  EXPECT_EQ(acct.node_peak_bytes(), 60u);
  acct.ReleaseDriver(100);
  acct.ReleaseNode(1, 60);
  EXPECT_EQ(acct.driver_live_bytes(), 0u);
  EXPECT_EQ(acct.node_live_bytes(1), 0u);
  EXPECT_EQ(acct.driver_peak_bytes(), 150u);  // peaks never decrease
  acct.ReleaseNode(0, 1000);                  // over-release clamps
  EXPECT_EQ(acct.node_live_bytes(0), 0u);
}

TEST(MemoryAccountantTest, ResetPeaksRestartsFromTheLiveSet) {
  MemoryAccountant acct(1);
  acct.ChargeDriver(70);
  acct.TouchDriver(1000);
  acct.ResetPeaks();
  EXPECT_EQ(acct.driver_peak_bytes(), 70u);  // live survives, spike forgotten
}

TEST(MemoryAccountantTest, CachedPartitionsChargeAndReleaseNodes) {
  sparklet::SparkletContext ctx(TestCluster());
  auto& acct = ctx.cluster().accountant();
  const std::uint64_t base =
      acct.node_live_bytes(0) + acct.node_live_bytes(1);
  auto rdd = ctx.Parallelize<std::int64_t>("ints", {1, 2, 3, 4, 5, 6}, 3);
  const std::uint64_t live =
      acct.node_live_bytes(0) + acct.node_live_bytes(1);
  EXPECT_EQ(live - base, 6u * sizeof(std::int64_t));
  rdd->Unpersist();
  EXPECT_EQ(acct.node_live_bytes(0) + acct.node_live_bytes(1), base);
}

// --- deterministic solver high-water ----------------------------------------

TEST(MemoryHighWater, CollectBroadcastVsShuffleSolversOnFixedLayout) {
  // n = 64, b = 16: q = 4. The shuffle solver never touches the driver
  // during its rounds; collect/broadcast funnels the phase-2-updated cross
  // (q-1 canonical blocks of 16 + 17 + b^2*8 bytes each) through it every
  // round. These are byte counts, not timings — exact and reproducible.
  const graph::Graph g = graph::PaperErdosRenyi(64, 9);
  ApspOptions opts;
  opts.block_size = 16;
  auto im = Solve(g, {.solver = SolverKind::kBlockedInMemory,
                      .options = opts, .cluster = TestCluster()})
                .run;
  auto cb = Solve(g, {.solver = SolverKind::kBlockedCollectBroadcast,
                      .options = opts, .cluster = TestCluster()})
                .run;
  ASSERT_TRUE(im.status.ok());
  ASSERT_TRUE(cb.status.ok());

  EXPECT_EQ(im.metrics.driver_peak_bytes, 0u);
  const std::uint64_t record_bytes = 16 + (17 + 16 * 16 * 8);
  EXPECT_EQ(cb.metrics.driver_peak_bytes, 3 * record_bytes);
  EXPECT_GT(im.metrics.node_peak_bytes, 0u);
  EXPECT_GT(cb.metrics.node_peak_bytes, 0u);

  // Determinism: an identical run reports identical high water.
  auto cb2 = Solve(g, {.solver = SolverKind::kBlockedCollectBroadcast,
                       .options = opts, .cluster = TestCluster()})
                 .run;
  EXPECT_EQ(cb2.metrics.driver_peak_bytes, cb.metrics.driver_peak_bytes);
  EXPECT_EQ(cb2.metrics.node_peak_bytes, cb.metrics.node_peak_bytes);
}

TEST(MemoryHighWater, PureKsourcePlaneKeepsTheDriverQuiet) {
  // The staged variant collects the updated cross every pivot; the pure
  // shuffle-replicated variant's only driver spike is the final panel
  // assembly — its high water must sit strictly below the staged one.
  const graph::Graph g = graph::PaperErdosRenyi(96, 11);
  const std::vector<graph::VertexId> sources = {0, 13, 55};
  apsp::SolveRequest staged{.solver = SolverKind::kBlockedCollectBroadcast,
                            .sources = sources,
                            .cluster = TestCluster()};
  staged.options.block_size = 16;
  apsp::SolveRequest shuffle = staged;
  shuffle.solver = SolverKind::kBlockedInMemory;
  auto staged_run = Solve(g, staged).run;
  auto shuffle_run = Solve(g, shuffle).run;
  ASSERT_TRUE(staged_run.status.ok());
  ASSERT_TRUE(shuffle_run.status.ok());
  EXPECT_GT(shuffle_run.metrics.driver_peak_bytes, 0u);  // final assembly
  EXPECT_LT(shuffle_run.metrics.driver_peak_bytes,
            staged_run.metrics.driver_peak_bytes);
}

}  // namespace
}  // namespace apspark
