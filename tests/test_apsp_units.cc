// Unit tests for the APSP layer: block layout geometry, the MD/PH
// partitioners, and the Table 1 building blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "apsp/block_layout.h"
#include "apsp/building_blocks.h"
#include "apsp/partitioners.h"
#include "common/rng.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"

namespace apspark::apsp {
namespace {

using linalg::BlockRef;
using linalg::DenseBlock;
using linalg::kInf;

DenseBlock RandomSym(std::int64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  DenseBlock m(n, n, kInf);
  for (std::int64_t i = 0; i < n; ++i) {
    m.Set(i, i, 0.0);
    for (std::int64_t j = i + 1; j < n; ++j) {
      if (rng.NextDouble() < 0.5) {
        const double w = rng.NextDouble(1.0, 9.0);
        m.Set(i, j, w);
        m.Set(j, i, w);
      }
    }
  }
  return m;
}

sparklet::TaskContext MakeTc(const linalg::CostModel* model,
                             sparklet::SharedStorage* storage,
                             const sparklet::ClusterConfig* cfg) {
  return sparklet::TaskContext(model, storage, cfg);
}

struct TcFixture {
  linalg::CostModel model;
  sparklet::SharedStorage storage;
  sparklet::ClusterConfig cfg = sparklet::ClusterConfig::TinyTest();
  sparklet::TaskContext tc = MakeTc(&model, &storage, &cfg);
};

// --- layout -----------------------------------------------------------

TEST(BlockLayout, GeometryWithRemainder) {
  const BlockLayout layout(10, 4);
  EXPECT_EQ(layout.q(), 3);
  EXPECT_EQ(layout.BlockDim(0), 4);
  EXPECT_EQ(layout.BlockDim(2), 2);  // remainder block
  EXPECT_EQ(layout.StoredBlockCount(), 6);
}

TEST(BlockLayout, DirectedStoresFullGrid) {
  const BlockLayout layout(8, 4, /*directed=*/true);
  EXPECT_EQ(layout.StoredBlockCount(), 4);
  EXPECT_TRUE(layout.Stores({1, 0}));
  const BlockLayout undirected(8, 4);
  EXPECT_FALSE(undirected.Stores({1, 0}));
  EXPECT_EQ(undirected.Canonical(1, 0), (BlockKey{0, 1}));
}

TEST(BlockLayout, StoredKeysAreCanonicalAndComplete) {
  const BlockLayout layout(12, 4);
  const auto keys = layout.StoredKeys();
  EXPECT_EQ(static_cast<std::int64_t>(keys.size()),
            layout.StoredBlockCount());
  for (const auto& key : keys) EXPECT_TRUE(layout.Stores(key));
  EXPECT_EQ(std::set<BlockKey>(keys.begin(), keys.end()).size(), keys.size());
}

TEST(BlockLayout, DecomposeAssembleRoundTrip) {
  for (std::int64_t n : {5, 8, 12}) {
    for (std::int64_t b : {2, 3, 8}) {
      const BlockLayout layout(n, b);
      const DenseBlock m = RandomSym(n, static_cast<std::uint64_t>(n * b));
      auto assembled = layout.Assemble(layout.Decompose(m));
      ASSERT_TRUE(assembled.ok()) << "n=" << n << " b=" << b;
      EXPECT_TRUE(assembled->ApproxEquals(m));
    }
  }
}

TEST(BlockLayout, AssembleRejectsMissingAndForeignBlocks) {
  const BlockLayout layout(8, 4);
  auto records = layout.Decompose(RandomSym(8, 3));
  records.pop_back();
  EXPECT_FALSE(layout.Assemble(records).ok());
  records.push_back({{1, 0}, records.front().second});  // non-canonical key
  EXPECT_FALSE(layout.Assemble(records).ok());

  // A duplicated key standing in for a missing one: the record count is
  // right, but block (1, 1) never arrives.
  auto duplicated = layout.Decompose(RandomSym(8, 4));
  ASSERT_EQ(duplicated.back().first, (BlockKey{1, 1}));
  duplicated.back() = duplicated.front();
  auto assembled = layout.Assemble(duplicated);
  ASSERT_FALSE(assembled.ok());
  EXPECT_EQ(assembled.status().code(), StatusCode::kFailedPrecondition);

  // A block whose shape is not BlockDim(I) x BlockDim(J) (here 4 x 5 on a
  // ragged n = 10, b = 4 layout, where block (0, 2) is 4 x 2) must be
  // rejected before it can write past the output.
  const BlockLayout ragged(10, 4);
  auto misshaped = ragged.Decompose(RandomSym(10, 5));
  ASSERT_EQ(misshaped[2].first, (BlockKey{0, 2}));
  misshaped[2].second = linalg::MakeBlock(DenseBlock(4, 5, 1.0));
  assembled = ragged.Assemble(misshaped);
  ASSERT_FALSE(assembled.ok());
  EXPECT_EQ(assembled.status().code(), StatusCode::kFailedPrecondition);
  // A transposed (2 x 4) payload at the same key is rejected too.
  misshaped[2].second = linalg::MakeBlock(DenseBlock(2, 4, 1.0));
  EXPECT_FALSE(ragged.Assemble(misshaped).ok());
}

TEST(BlockLayout, AssembleCopiesRaggedAndDirectedLayoutsExactly) {
  // The row-copy + tiled-mirror path must reproduce the matrix bit for bit,
  // ragged last blocks included, inline and fanned out one block per task.
  for (const auto variant :
       {linalg::KernelVariant::kTiled, linalg::KernelVariant::kTiledParallel}) {
    linalg::ScopedKernelVariant scope(variant);
    linalg::KernelTuning tuning = linalg::GetKernelTuning();
    tuning.parallel_grain_ops = 1;
    linalg::SetKernelTuning(tuning);
    for (const bool directed : {false, true}) {
      const std::int64_t n = 203;
      DenseBlock m = directed ? DenseBlock(n, n, 0.0) : RandomSym(n, 11);
      if (directed) {
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            m.Set(i, j, static_cast<double>(i * n + j));
          }
        }
      }
      const BlockLayout layout(n, 64, directed);
      auto assembled = layout.Assemble(layout.Decompose(m));
      ASSERT_TRUE(assembled.ok()) << assembled.status().ToString();
      ASSERT_EQ(assembled->rows(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          ASSERT_EQ(assembled->At(i, j), m.At(i, j))
              << "(" << i << ", " << j << ") directed=" << directed;
        }
      }
    }
  }
}

TEST(BlockLayout, OrientTransposesMirroredPosition) {
  DenseBlock block(2, 3, 0.0);
  block.Set(0, 2, 5.0);
  const BlockKey key{0, 1};
  EXPECT_EQ(BlockLayout::Orient(key, block, 0, 1).At(0, 2), 5.0);
  EXPECT_EQ(BlockLayout::Orient(key, block, 1, 0).At(2, 0), 5.0);
}

TEST(BlockLayout, CrossPredicates) {
  const BlockLayout layout(16, 4);
  EXPECT_TRUE(layout.InCross({1, 2}, 1));
  EXPECT_TRUE(layout.InCross({1, 2}, 2));
  EXPECT_FALSE(layout.InCross({1, 2}, 3));
  const BlockLayout directed(16, 4, /*directed=*/true);
  EXPECT_TRUE(directed.InColumnCross({1, 2}, 2));
  EXPECT_FALSE(directed.InColumnCross({2, 1}, 2));  // row block, not column
  EXPECT_TRUE(directed.InCross({2, 1}, 2));
}

// --- partitioners ------------------------------------------------------

TEST(Partitioners, MultiDiagonalIsPerfectlyBalanced) {
  for (std::int64_t q : {4, 16, 63}) {
    const BlockLayout layout(q * 8, 8);
    for (int parts : {4, 16, 61}) {
      MultiDiagonalPartitioner md(layout, parts);
      auto histogram = PartitionSizeHistogram(layout, md);
      const auto [mn, mx] =
          std::minmax_element(histogram.begin(), histogram.end());
      EXPECT_LE(*mx - *mn, 1)
          << "q=" << q << " parts=" << parts;  // exact round-robin
    }
  }
}

TEST(Partitioners, MultiDiagonalSpreadsRowBlocks) {
  // Blocks sharing a row/column index should scatter across partitions —
  // the property Phases 2/3 of the blocked solvers rely on (§5.3).
  const BlockLayout layout(256, 8);  // q = 32
  MultiDiagonalPartitioner md(layout, 64);
  for (std::int64_t x = 0; x < layout.q(); ++x) {
    std::set<int> partitions;
    for (const auto& key : layout.StoredKeys()) {
      if (layout.InCross(key, x)) partitions.insert(md.PartitionOf(key));
    }
    // The cross of x has q = 32 blocks; they should hit many partitions.
    EXPECT_GE(partitions.size(), 24u) << "cross " << x;
  }
}

TEST(Partitioners, PortableHashInRangeAndDeterministic) {
  const BlockLayout layout(128, 8);
  auto ph = MakeBlockPartitioner(PartitionerKind::kPortableHash, layout, 10);
  for (const auto& key : layout.StoredKeys()) {
    const int p = ph->PartitionOf(key);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 10);
    EXPECT_EQ(p, ph->PartitionOf(key));
  }
}

TEST(Partitioners, PortableHashSkewExceedsMultiDiagonal) {
  // The PH partitioner cannot beat MD's exact balance; on realistic sizes
  // it is strictly worse (the paper's Figure 3, bottom).
  const BlockLayout layout(131072, 1024);  // q = 128, as in Figure 3
  const int parts = 2048;
  auto ph = MakeBlockPartitioner(PartitionerKind::kPortableHash, layout,
                                 parts);
  auto md = MakeBlockPartitioner(PartitionerKind::kMultiDiagonal, layout,
                                 parts);
  auto spread = [&](const sparklet::Partitioner<BlockKey>& p) {
    auto h = PartitionSizeHistogram(layout, p);
    const auto [mn, mx] = std::minmax_element(h.begin(), h.end());
    return *mx - *mn;
  };
  EXPECT_GT(spread(*ph), spread(*md));
  EXPECT_LE(spread(*md), 1);
}

TEST(Partitioners, FactoryAndNames) {
  const BlockLayout layout(64, 8);
  EXPECT_EQ(MakeBlockPartitioner(PartitionerKind::kMultiDiagonal, layout, 4)
                ->name(),
            "MD");
  EXPECT_EQ(MakeBlockPartitioner(PartitionerKind::kPortableHash, layout, 4)
                ->name(),
            "PH");
  EXPECT_STREQ(PartitionerKindName(PartitionerKind::kMultiDiagonal), "MD");
}

// --- building blocks -------------------------------------------------------

TEST(BuildingBlocks, PredicatesFollowSymmetricStorage) {
  const BlockLayout layout(16, 4);
  EXPECT_TRUE(InColumn(layout, {1, 2}, 2));
  EXPECT_TRUE(InColumn(layout, {1, 2}, 1));  // row side counts, symmetric
  EXPECT_FALSE(InColumn(layout, {1, 2}, 0));
  EXPECT_TRUE(OnDiagonal({2, 2}, 2));
  EXPECT_FALSE(OnDiagonal({2, 3}, 2));
  EXPECT_FALSE(OnDiagonal({1, 1}, 2));
}

TEST(BuildingBlocks, KernelWrappersChargeModelTime) {
  TcFixture f;
  auto a = linalg::MakeBlock(RandomSym(8, 1));
  auto b = linalg::MakeBlock(RandomSym(8, 2));
  EXPECT_EQ(f.tc.task_seconds(), 0.0);
  auto prod = MatProd(a, b, f.tc);
  const double after_prod = f.tc.task_seconds();
  EXPECT_NEAR(after_prod, f.model.MinPlusSeconds(8, 8, 8), 1e-12);
  auto mn = MatMin(a, b, f.tc);
  EXPECT_GT(f.tc.task_seconds(), after_prod);
  EXPECT_TRUE(
      mn->ApproxEquals(linalg::ElementMin(*a, *b)));
  EXPECT_TRUE(prod->ApproxEquals(linalg::MinPlusProduct(*a, *b)));
}

TEST(BuildingBlocks, MinPlusIntoBatchMatchesPerRecordChargesAndValues) {
  // One task's batch of 4 identical updates: with the default
  // intra_task_cores = 1 the batch charges exactly 4x the single fused
  // update; on 2 virtual cores the LPT schedule halves it. Values are
  // identical either way.
  TcFixture single;
  auto base = linalg::MakeBlock(RandomSym(8, 11));
  auto l = linalg::MakeBlock(RandomSym(8, 12));
  auto r = linalg::MakeBlock(RandomSym(8, 13));
  auto expected = MinPlusInto(base, l, r, single.tc);
  const double one_charge = single.tc.task_seconds();
  ASSERT_GT(one_charge, 0.0);

  TcFixture f;
  std::vector<FusedTriple> updates(4, FusedTriple{base, l, r});
  auto out = MinPlusIntoBatch(std::move(updates), f.tc);
  ASSERT_EQ(out.size(), 4u);
  for (const auto& block : out) {
    EXPECT_TRUE(block->ApproxEquals(*expected, 0.0));
  }
  EXPECT_NEAR(f.tc.task_seconds(), 4 * one_charge, 1e-15);

  f.model.intra_task_cores = 2;
  f.tc.ResetForTask();
  std::vector<FusedTriple> again(4, FusedTriple{base, l, r});
  MinPlusIntoBatch(std::move(again), f.tc);
  EXPECT_NEAR(f.tc.task_seconds(), 2 * one_charge, 1e-15);
}

TEST(BuildingBlocks, MinPlusIsProductThenMin) {
  TcFixture f;
  auto a = linalg::MakeBlock(RandomSym(6, 3));
  auto b = linalg::MakeBlock(RandomSym(6, 4));
  auto mp = MinPlus(a, b, f.tc);
  auto expected =
      linalg::ElementMin(*a, linalg::MinPlusProduct(*a, *b));
  EXPECT_TRUE(mp->ApproxEquals(expected));
}

TEST(BuildingBlocks, FloydWarshallClosesBlock) {
  TcFixture f;
  DenseBlock block(3, 3, kInf);
  for (int i = 0; i < 3; ++i) block.Set(i, i, 0.0);
  block.Set(0, 1, 1.0);
  block.Set(1, 0, 1.0);
  block.Set(1, 2, 1.0);
  block.Set(2, 1, 1.0);
  auto closed = FloydWarshall(linalg::MakeBlock(std::move(block)), f.tc);
  EXPECT_EQ(closed->At(0, 2), 2.0);
  EXPECT_GT(f.tc.task_seconds(), 0.0);
}

TEST(BuildingBlocks, ExtractColSegmentBothOrientations) {
  const BlockLayout layout(8, 4);
  const DenseBlock m = RandomSym(8, 7);
  auto records = layout.Decompose(m);
  TcFixture f;
  const std::int64_t k = 5;  // lives in column-block 1, local index 1
  for (const auto& rec : records) {
    if (!InColumn(layout, rec.first, k / layout.block_size())) continue;
    auto [row_block, segment] = ExtractColSegment(layout, rec, k, f.tc);
    for (std::int64_t r = 0; r < segment->rows(); ++r) {
      EXPECT_EQ(segment->At(r, 0),
                m.At(row_block * layout.block_size() + r, k))
          << "block " << rec.first.ToString();
    }
  }
}

TEST(BuildingBlocks, FloydWarshallUpdateMatchesScalarRelaxation) {
  const BlockLayout layout(8, 4);
  const DenseBlock m = RandomSym(8, 8);
  auto records = layout.Decompose(m);
  TcFixture f;
  const std::int64_t k = 2;
  // Build the broadcast column.
  std::vector<BlockRef> column(static_cast<std::size_t>(layout.q()));
  for (const auto& rec : records) {
    if (!InColumn(layout, rec.first, k / layout.block_size())) continue;
    auto [row_block, segment] = ExtractColSegment(layout, rec, k, f.tc);
    column[static_cast<std::size_t>(row_block)] = segment;
  }
  for (const auto& rec : records) {
    auto [key, updated] = FloydWarshallUpdate(layout, rec, column, f.tc);
    for (std::int64_t r = 0; r < updated->rows(); ++r) {
      for (std::int64_t c = 0; c < updated->cols(); ++c) {
        const std::int64_t gi = key.I * layout.block_size() + r;
        const std::int64_t gj = key.J * layout.block_size() + c;
        EXPECT_EQ(updated->At(r, c),
                  std::min(m.At(gi, gj), m.At(gi, k) + m.At(k, gj)));
      }
    }
  }
}

TEST(BuildingBlocks, CopyDiagTargetsWholeCross) {
  const BlockLayout layout(16, 4);
  auto diag = linalg::MakeBlock(RandomSym(4, 9));
  std::vector<TaggedRecord> out;
  CopyDiag(layout, 1, diag, out);
  EXPECT_EQ(out.size(), 4u);  // q copies, including (1,1) itself
  std::set<BlockKey> targets;
  for (const auto& [key, tagged] : out) {
    EXPECT_EQ(tagged.role, BlockRole::kDiag);
    EXPECT_TRUE(layout.InCross(key, 1));
    targets.insert(key);
  }
  EXPECT_EQ(targets.size(), 4u);
}

TEST(BuildingBlocks, CopyColCoversEveryStoredKeyExactlyOnce) {
  const BlockLayout layout(24, 4);  // q = 6
  const std::int64_t i = 2;
  const DenseBlock m = RandomSym(24, 10);
  auto records = layout.Decompose(m);
  TcFixture f;
  // Collect emissions from every cross block of iteration i.
  std::map<BlockKey, std::map<BlockRole, int>> received;
  for (const auto& rec : records) {
    if (!layout.InCross(rec.first, i)) continue;
    std::vector<TaggedRecord> out;
    CopyCol(layout, i, rec, out, f.tc);
    for (const auto& [key, tagged] : out) {
      EXPECT_TRUE(layout.Stores(key)) << key.ToString();
      received[key][tagged.role] += 1;
    }
  }
  for (const auto& key : layout.StoredKeys()) {
    const auto& roles = received[key];
    if (layout.InCross(key, i)) {
      // Cross keys re-enter A as themselves only.
      EXPECT_EQ(roles.count(BlockRole::kOriginal), 1u) << key.ToString();
      EXPECT_EQ(roles.count(BlockRole::kRow), 0u) << key.ToString();
    } else {
      // Every other key receives exactly one row and one column factor.
      EXPECT_EQ(roles.at(BlockRole::kRow), 1) << key.ToString();
      EXPECT_EQ(roles.at(BlockRole::kCol), 1) << key.ToString();
    }
  }
}

TEST(BuildingBlocks, Phase2And3UnpackReproduceBlockedFwIteration) {
  // One full blocked-FW iteration via the building blocks must equal the
  // direct tile computation.
  const std::int64_t n = 12, b = 4, i = 1;
  const BlockLayout layout(n, b);
  const DenseBlock m = RandomSym(n, 11);
  auto records = layout.Decompose(m);
  TcFixture f;

  // Reference: one iteration of the 3-phase update on the dense matrix.
  DenseBlock ref = m;
  {
    double* base = ref.mutable_data();
    linalg::FloydWarshallRaw(b, base + i * b * n + i * b, n);
    for (std::int64_t j = 0; j < layout.q(); ++j) {
      if (j == i) continue;
      linalg::MinPlusAccumulateRaw(b, b, b, base + i * b * n + i * b, n,
                                   base + i * b * n + j * b, n,
                                   base + i * b * n + j * b, n);
      linalg::MinPlusAccumulateRaw(b, b, b, base + j * b * n + i * b, n,
                                   base + i * b * n + i * b, n,
                                   base + j * b * n + i * b, n);
    }
    for (std::int64_t r = 0; r < layout.q(); ++r) {
      for (std::int64_t c = 0; c < layout.q(); ++c) {
        if (r == i || c == i) continue;
        linalg::MinPlusAccumulateRaw(b, b, b, base + r * b * n + i * b, n,
                                     base + i * b * n + c * b, n,
                                     base + r * b * n + c * b, n);
      }
    }
  }

  // Engine-style: Phase 1 + CopyDiag + Phase2Unpack + CopyCol + Phase3Unpack.
  BlockRef closed;
  for (const auto& rec : records) {
    if (OnDiagonal(rec.first, i)) closed = FloydWarshall(rec.second, f.tc);
  }
  std::vector<TaggedRecord> diag_copies;
  CopyDiag(layout, i, closed, diag_copies);
  std::map<BlockKey, TaggedList> phase2_lists;
  for (const auto& rec : records) {
    if (layout.InCross(rec.first, i)) {
      phase2_lists[rec.first].push_back({BlockRole::kOriginal, rec.second});
    }
  }
  for (auto& [key, tagged] : diag_copies) {
    phase2_lists[key].push_back(tagged);
  }
  std::vector<BlockRecord> cross_updated;
  for (const auto& [key, list] : phase2_lists) {
    cross_updated.push_back(Phase2Unpack(layout, i, {key, list}, f.tc));
  }
  std::map<BlockKey, TaggedList> phase3_lists;
  for (const auto& rec : records) {
    if (!layout.InCross(rec.first, i)) {
      phase3_lists[rec.first].push_back({BlockRole::kOriginal, rec.second});
    }
  }
  for (const auto& rec : cross_updated) {
    std::vector<TaggedRecord> copies;
    CopyCol(layout, i, rec, copies, f.tc);
    for (auto& [key, tagged] : copies) phase3_lists[key].push_back(tagged);
  }
  std::vector<BlockRecord> new_a;
  for (const auto& [key, list] : phase3_lists) {
    new_a.push_back(Phase3Unpack(layout, i, {key, list}, f.tc));
  }
  auto assembled = layout.Assemble(new_a);
  ASSERT_TRUE(assembled.ok());
  EXPECT_TRUE(assembled->ApproxEquals(ref, 1e-9))
      << "max diff " << assembled->MaxAbsDiff(ref);
}

}  // namespace
}  // namespace apspark::apsp
