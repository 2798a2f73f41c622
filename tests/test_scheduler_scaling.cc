// Small-block scaling property suite for the work-stealing block-task
// scheduler: every kernel variant must stay bitwise-equal to the scalar
// oracle on exactly the layouts the scheduler exists for — many small blocks
// (b in {64, 128}, q >= 8) — at the kernel level, as a raw task batch, and
// end-to-end through the solvers on the directed / disconnected graphs from
// test_support.h. Integer weights make every path sum exact in double
// precision, so bitwise equality is the oracle (see test_support.h).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apsp/building_blocks.h"
#include "apsp/api.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"
#include "obs/trace.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::Solve;
using apsp::SolverKind;
using linalg::DenseBlock;
using linalg::KernelVariant;
using linalg::ScopedKernelVariant;

constexpr KernelVariant kAllVariants[] = {KernelVariant::kTiled,
                                          KernelVariant::kTiledParallel};

/// Block sizes the suite sweeps: both ISSUE sizes in optimized builds, the
/// smaller one only under unoptimized/sanitized builds (the b = 128 oracle
/// is a 1024^3 scalar Floyd-Warshall).
std::vector<std::int64_t> SmallBlockSizes() {
#ifdef NDEBUG
  return {64, 128};
#else
  return {64};
#endif
}

/// Random integer-weight matrix: zero diagonal, weights in [1, 10],
/// `inf_density` missing edges. Integer path sums are exact, so every
/// relaxation order yields bitwise-identical minima.
DenseBlock RandomIntMatrix(std::int64_t n, std::uint64_t seed,
                           double inf_density) {
  Xoshiro256 rng(seed);
  DenseBlock m(n, n, 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      m.Set(i, j, rng.NextDouble() < inf_density
                      ? linalg::kInf
                      : 1.0 + std::floor(rng.NextDouble() * 10.0));
    }
  }
  return m;
}

/// Same graph with weights floored to integers (the bitwise-oracle regime).
graph::Graph IntegerWeights(const graph::Graph& g) {
  graph::Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return gi;
}

// --- kernel level -----------------------------------------------------------

TEST(SchedulerScaling, BlockedFloydWarshallBitwiseAtSmallBlocks) {
  for (std::int64_t b : SmallBlockSizes()) {
    const std::int64_t n = 8 * b;  // q = 8 blocked tiles
    APSPARK_SEEDED_CASE(1234 + b);
    const DenseBlock m = RandomIntMatrix(n, 1234 + static_cast<std::uint64_t>(b),
                                         /*inf_density=*/0.25);
    DenseBlock oracle = m;
    linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
    for (KernelVariant v : kAllVariants) {
      ScopedKernelVariant scope(v);
      DenseBlock out = m;
      linalg::BlockedFloydWarshall(out, b);
      test::ExpectBitwiseEqual(out, oracle,
                               std::string("fw b=") + std::to_string(b) +
                                   " variant=" + linalg::KernelVariantName(v));
    }
  }
}

// --- task-batch level -------------------------------------------------------

TEST(SchedulerScaling, IndependentBlockUpdateBatchBitwise) {
  // One sparklet task batch's worth of independent block updates
  // C_ij = min(C_ij, A_i (min,+) B_j) — the unit the scheduler decomposes —
  // executed as q^2 stealable tasks and compared against the sequential
  // scalar loop.
  const std::int64_t q = 8;
  for (std::int64_t b : SmallBlockSizes()) {
    APSPARK_SEEDED_CASE(b);
    std::vector<DenseBlock> lhs;
    std::vector<DenseBlock> rhs;
    std::vector<DenseBlock> base;
    for (std::int64_t i = 0; i < q; ++i) {
      lhs.push_back(RandomIntMatrix(b, 100 + static_cast<std::uint64_t>(i),
                                    0.3));
      rhs.push_back(RandomIntMatrix(b, 200 + static_cast<std::uint64_t>(i),
                                    0.3));
    }
    for (std::int64_t u = 0; u < q * q; ++u) {
      base.push_back(RandomIntMatrix(b, 300 + static_cast<std::uint64_t>(u),
                                     0.3));
    }

    // Oracle: the scalar min-plus product, sequentially.
    std::vector<DenseBlock> expected = base;
    for (std::int64_t u = 0; u < q * q; ++u) {
      linalg::SemiringProductAccumulate<linalg::MinPlusSemiring>(
          lhs[static_cast<std::size_t>(u / q)],
          rhs[static_cast<std::size_t>(u % q)],
          expected[static_cast<std::size_t>(u)]);
    }

    for (KernelVariant v : kAllVariants) {
      ScopedKernelVariant scope(v);
      std::vector<DenseBlock> out = base;
      auto run_one = [&](std::size_t u) {
        const DenseBlock& a = lhs[u / static_cast<std::size_t>(q)];
        const DenseBlock& p = rhs[u % static_cast<std::size_t>(q)];
        linalg::MinPlusUpdate(a, p, out[u]);
      };
      if (v == KernelVariant::kTiledParallel) {
        linalg::KernelThreadPool().ParallelForTasks(
            static_cast<std::size_t>(q * q), run_one);
      } else {
        for (std::size_t u = 0; u < static_cast<std::size_t>(q * q); ++u) {
          run_one(u);
        }
      }
      for (std::size_t u = 0; u < static_cast<std::size_t>(q * q); ++u) {
        test::ExpectBitwiseEqual(
            out[u], expected[u],
            std::string("batch b=") + std::to_string(b) + " update " +
                std::to_string(u) + " variant=" +
                linalg::KernelVariantName(v));
      }
    }
  }
}

// --- adaptive task granularity ----------------------------------------------

TEST(SchedulerScaling, TinyBlockBatchMergesGrainsAndStaysBitwise) {
  // At b = 8 a fused update's host work (512 multiply-adds) sits far below
  // the fan-out grain, so the batch decomposition merges many updates into
  // each stealable task. Results must stay bitwise-identical to the
  // unmerged decomposition AND to the sequential scalar loop.
  const std::int64_t q = 12;
  const std::int64_t b = 8;
  std::vector<apsp::FusedTriple> updates;
  std::vector<DenseBlock> expected;
  for (std::int64_t u = 0; u < q * q; ++u) {
    DenseBlock base = RandomIntMatrix(b, 900 + static_cast<std::uint64_t>(u),
                                      0.3);
    DenseBlock lhs = RandomIntMatrix(b, 910 + static_cast<std::uint64_t>(u),
                                     0.3);
    DenseBlock rhs = RandomIntMatrix(b, 920 + static_cast<std::uint64_t>(u),
                                     0.3);
    DenseBlock oracle = base;
    linalg::SemiringProductAccumulate<linalg::MinPlusSemiring>(lhs, rhs,
                                                               oracle);
    expected.push_back(std::move(oracle));
    updates.push_back({linalg::MakeRef(std::move(base)),
                       linalg::MakeRef(std::move(lhs)),
                       linalg::MakeRef(std::move(rhs))});
  }

  sparklet::SparkletContext ctx(test::TestCluster());
  for (KernelVariant v : kAllVariants) {
    ScopedKernelVariant scope(v);
    // Sanity: the grain is live for this layout (each 8^3 update is cheap).
    ASSERT_GT(linalg::GetKernelTuning().parallel_grain_ops, b * b * b);
    auto tc = ctx.MakeTaskContext();
    auto batch_updates = updates;  // refs: copying the batch is free
    auto out = apsp::MinPlusIntoBatch(std::move(batch_updates), tc);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t u = 0; u < out.size(); ++u) {
      test::ExpectBitwiseEqual(
          *out[u], expected[u],
          std::string("tiny-b batch update ") + std::to_string(u) +
              " variant=" + linalg::KernelVariantName(v));
    }
  }
}

/// The task count of every ParallelForTasks batch (one "parallel_for" trace
/// span each) issued while `body` runs on a 4-worker kernel pool.
std::vector<std::string> FanOutsDuring(const std::function<void()>& body) {
  ThreadPool pool(4);
  linalg::SetKernelThreadPool(&pool);
  obs::Tracer::Get().Start();
  body();
  obs::Tracer::Get().Stop();
  linalg::SetKernelThreadPool(nullptr);
  const std::string json = obs::Tracer::Get().ToChromeJson();
  const std::string span = "\"name\":\"parallel_for\"";
  const std::string tasks = "\"tasks\":";
  std::vector<std::string> fan_outs;
  for (auto at = json.find(span); at != std::string::npos;
       at = json.find(span, at + 1)) {
    const auto begin = json.find(tasks, at) + tasks.size();
    fan_outs.push_back(json.substr(begin, json.find('}', begin) - begin));
  }
  return fan_outs;
}

TEST(SchedulerScaling, HostGrainStripesLargeUpdatesAndInlinesSmallWork) {
  // The design points of KernelTuning::parallel_grain_ops: a b = 256 update
  // stripes 4 ways; a b = 128 update, and a task batch of four b = 64
  // updates, run inline on the calling thread.
  ScopedKernelVariant parallel(KernelVariant::kTiledParallel);
  auto update = [](std::int64_t b) {
    const DenseBlock a = RandomIntMatrix(b, 41, 0.3);
    const DenseBlock p = RandomIntMatrix(b, 42, 0.3);
    DenseBlock c = RandomIntMatrix(b, 43, 0.3);
    return FanOutsDuring([&] { linalg::MinPlusUpdate(a, p, c); });
  };
  EXPECT_EQ(update(256), std::vector<std::string>{"4"});
  EXPECT_TRUE(update(128).empty());

  std::vector<apsp::FusedTriple> batch;
  for (std::uint64_t u = 0; u < 4; ++u) {
    batch.push_back({linalg::MakeRef(RandomIntMatrix(64, 50 + u, 0.3)),
                     linalg::MakeRef(RandomIntMatrix(64, 60 + u, 0.3)),
                     linalg::MakeRef(RandomIntMatrix(64, 70 + u, 0.3))});
  }
  sparklet::SparkletContext ctx(test::TestCluster());
  auto tc = ctx.MakeTaskContext();
  EXPECT_TRUE(FanOutsDuring([&] {
                apsp::MinPlusIntoBatch(std::move(batch), tc);
              }).empty());
}

TEST(SchedulerScaling, SolversTinyBlocksUnderGrainMerging) {
  // End-to-end at b = 4 (q = 16 on n = 64): every per-pivot batch is far
  // below the grain floor, so whole batches run as few merged tasks; the
  // stealing path with merged grains must stay bitwise on all solvers.
  const graph::Graph g = IntegerWeights(
      graph::ErdosRenyi(64, 0.15, {1.0, 10.0}, /*seed=*/5150));
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
  for (KernelVariant v : kAllVariants) {
    auto cluster = test::TestCluster();
    cluster.kernel_variant = v;
    for (SolverKind kind :
         {SolverKind::kBlockedInMemory, SolverKind::kBlockedCollectBroadcast}) {
      ApspOptions opts;
      opts.block_size = 4;
      auto result =
          Solve(g, {.solver = kind, .options = opts, .cluster = cluster}).run;
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      test::ExpectBitwiseEqual(*result.distances, oracle,
                               std::string("tiny-b ") +
                                   apsp::SolverKindName(kind) + " variant=" +
                                   linalg::KernelVariantName(v));
    }
  }
}

// --- solver level -----------------------------------------------------------

/// Solves `g` at block size 8 (q >= 8 for every n >= 64 here) with every
/// solver under each kernel variant — plus kTiledParallel with a 1-op host
/// grain, which makes every block update, closure tile and assembly block
/// its own stealable task — and checks the distance matrix bitwise against
/// the scalar oracle. Host threads never move the model: every run's
/// modelled seconds and SimMetrics must equal the kTiled run's.
void ExpectSolversMatchOracle(const graph::Graph& g, const std::string& label) {
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 8;
    auto run_with = [&](KernelVariant v, std::int64_t grain) {
      ScopedKernelVariant restore(v);
      auto tuning = linalg::GetKernelTuning();
      tuning.parallel_grain_ops = grain;
      linalg::SetKernelTuning(tuning);
      auto cluster = test::TestCluster();
      cluster.kernel_variant = v;
      return Solve(g, {.solver = kind, .options = opts, .cluster = cluster})
          .run;
    };
    const std::int64_t default_grain =
        linalg::GetKernelTuning().parallel_grain_ops;
    const auto baseline = run_with(KernelVariant::kTiled, default_grain);
    ASSERT_TRUE(baseline.status.ok())
        << label << ": " << baseline.status.ToString();
    std::vector<std::pair<KernelVariant, std::int64_t>> configs;
    for (KernelVariant v : kAllVariants) configs.emplace_back(v, default_grain);
    configs.emplace_back(KernelVariant::kTiledParallel, 1);
    for (const auto& [v, grain] : configs) {
      const std::string what = label + " " + apsp::SolverKindName(kind) +
                               " variant=" + linalg::KernelVariantName(v) +
                               " grain=" + std::to_string(grain);
      const auto result = run_with(v, grain);
      ASSERT_TRUE(result.status.ok()) << what << ": "
                                      << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value()) << what;
      test::ExpectBitwiseEqual(*result.distances, oracle, what);
      EXPECT_EQ(result.sim_seconds, baseline.sim_seconds) << what;
      EXPECT_TRUE(result.metrics == baseline.metrics)
          << what << "\n  got:    " << result.metrics.Summary()
          << "\n  kTiled: " << baseline.metrics.Summary();
    }
  }
}

TEST(SchedulerScaling, SolversSmallBlocksRandomGraphs) {
  Xoshiro256 rng(2026);
  for (int c = 0; c < 4; ++c) {
    const std::uint64_t seed = rng.Next();
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 crng(seed);
    test::RandomGraphOptions gopts;
    gopts.min_vertices = 64;
    gopts.max_vertices = 96;
    gopts.integer_weights = true;
    const graph::Graph g = test::RandomTestGraph(crng, gopts);
    ExpectSolversMatchOracle(g, "random case " + std::to_string(c));
  }
}

TEST(SchedulerScaling, SolversSmallBlocksDisconnectedGraph) {
  // Two components, no inter-component edges: the +inf cut must survive a
  // q = 10 small-block layout under the stealing path.
  const graph::Graph g = IntegerWeights(test::TwoComponentGraph(40, 11, 22));
  ExpectSolversMatchOracle(g, "two-component");
}

TEST(SchedulerScaling, SolversSmallBlocksDirectedGraph) {
  const graph::Graph g = IntegerWeights(
      graph::ErdosRenyi(72, 0.12, {1.0, 10.0}, /*seed=*/77, /*directed=*/true));
  ASSERT_TRUE(g.directed());
  ExpectSolversMatchOracle(g, "directed");
}

TEST(SchedulerScaling, KsourceSmallBlocksMatchesOracleColumns) {
  const graph::Graph g = IntegerWeights(test::TwoComponentGraph(40, 3, 4));
  const std::int64_t n = g.num_vertices();
  const std::vector<graph::VertexId> sources = {0, 17, 45, 79};
  DenseBlock oracle = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(oracle);
  DenseBlock expected(n, static_cast<std::int64_t>(sources.size()),
                      linalg::kInf);
  for (std::int64_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      expected.Set(v, static_cast<std::int64_t>(j),
                   oracle.At(sources[j], v));
    }
  }
  auto check = [&](KernelVariant variant, const std::string& what) {
    apsp::SolveRequest request{.sources = sources,
                               .cluster = test::TestCluster()};
    request.cluster.kernel_variant = variant;
    request.options.block_size = 8;  // q = 10
    auto result = apsp::Solve(g, request).run;
    ASSERT_TRUE(result.status.ok()) << what << ": " << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value()) << what;
    test::ExpectBitwiseEqual(*result.distances, expected, what);
  };
  for (KernelVariant variant : kAllVariants) {
    check(variant, std::string("ksource variant=") +
                       linalg::KernelVariantName(variant));
  }
  // A 1-op host grain: every block and frontier update its own task.
  ScopedKernelVariant restore(KernelVariant::kTiledParallel);
  auto tuning = linalg::GetKernelTuning();
  tuning.parallel_grain_ops = 1;
  linalg::SetKernelTuning(tuning);
  check(KernelVariant::kTiledParallel, "ksource tiled_parallel grain=1");
}

}  // namespace
}  // namespace apspark
