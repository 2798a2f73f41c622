// Batched k-source shortest paths: every kernel variant's n x k panel is
// locked to the scalar oracle (columns of SemiringClosure<MinPlusSemiring>).
//
// Oracle strategy: the randomized sweeps draw graphs with *integer* weights,
// where every path sum is exact in double precision — so the blocked frontier
// sweep must agree with the textbook Floyd-Warshall not just approximately
// but bit for bit, in both registry variants. A separate suite with
// fractional weights checks the registry's cross-variant bitwise guarantee
// plus tolerance-level agreement with the oracle (different algorithms may
// associate FP sums differently in the last ulp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "common/rng.h"
#include "graph/shortest_paths.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::SolveRequest;
using apsp::SolverKind;
using graph::Graph;
using graph::VertexId;
using linalg::DenseBlock;
using linalg::KernelVariant;
using linalg::kInf;
using test::ExpectBitwiseEqual;
using test::RandomGraphOptions;
using test::RandomTestGraph;
using test::TestCluster;

constexpr KernelVariant kVariants[] = {KernelVariant::kTiled,
                                       KernelVariant::kTiledParallel};

/// Scalar oracle: full textbook Floyd-Warshall, then the k-source panel is
/// read off as oracle(v, j) = dist(sources[j] -> v).
DenseBlock OraclePanel(const Graph& g, const std::vector<VertexId>& sources) {
  DenseBlock d = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(d);
  DenseBlock out(g.num_vertices(), static_cast<std::int64_t>(sources.size()),
                 kInf);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      out.Set(v, static_cast<std::int64_t>(j), d.At(sources[j], v));
    }
  }
  return out;
}

/// A k-source request on `data_plane` (staged = Blocked-CB's plane).
SolveRequest KsourceRequest(
    const std::vector<VertexId>& sources, std::int64_t block_size,
    SolverKind data_plane = SolverKind::kBlockedCollectBroadcast) {
  SolveRequest request{
      .solver = data_plane, .sources = sources, .cluster = TestCluster()};
  request.options.block_size = block_size;
  return request;
}

apsp::ApspRunResult RunKsource(
    const Graph& g, const std::vector<VertexId>& sources,
    std::int64_t block_size, KernelVariant variant,
    SolverKind data_plane = SolverKind::kBlockedCollectBroadcast) {
  SolveRequest request = KsourceRequest(sources, block_size, data_plane);
  request.cluster.kernel_variant = variant;
  return apsp::Solve(g, request).run;
}

// --- rectangular kernel, all variants ------------------------------------

TEST(KsourceKernel, RectUpdateBitwiseAcrossVariantsRandomized) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.NextBounded(90));
    const std::int64_t kk = 1 + static_cast<std::int64_t>(rng.NextBounded(90));
    // Panel widths straddle the accumulator width (32) and the narrow/wide
    // crossover (64), including non-multiples of both.
    const std::int64_t w = 1 + static_cast<std::int64_t>(rng.NextBounded(100));
    DenseBlock a(m, kk, 0.0);
    DenseBlock p(kk, w, 0.0);
    DenseBlock base(m, w, 0.0);
    for (double& v : a) v = rng.NextDouble() < 0.25 ? kInf : rng.NextDouble(0, 9);
    for (double& v : p) v = rng.NextDouble() < 0.25 ? kInf : rng.NextDouble(0, 9);
    for (double& v : base) {
      v = rng.NextDouble() < 0.25 ? kInf : rng.NextDouble(0, 20);
    }

    DenseBlock reference = base;
    linalg::SemiringProductAccumulate<linalg::MinPlusSemiring>(a, p,
                                                               reference);
    for (KernelVariant variant : kVariants) {
      linalg::ScopedKernelVariant scope(variant);
      DenseBlock c = base;
      linalg::MinPlusUpdateRect(a, p, c);
      ExpectBitwiseEqual(c, reference,
                         std::string("variant ") +
                             linalg::KernelVariantName(variant) + " m=" +
                             std::to_string(m) + " k=" + std::to_string(kk) +
                             " w=" + std::to_string(w));
    }
  }
}

TEST(KsourceKernel, RectUpdatePropagatesPhantoms) {
  const DenseBlock a = DenseBlock::Phantom(8, 8);
  const DenseBlock p(8, 3, 1.0);
  DenseBlock c(8, 3, 2.0);
  linalg::MinPlusUpdateRect(a, p, c);
  EXPECT_TRUE(c.is_phantom());
  EXPECT_EQ(c.rows(), 8);
  EXPECT_EQ(c.cols(), 3);
}

// --- solver vs scalar oracle, randomized ----------------------------------

TEST(KsourceSolver, MatchesOracleBitwiseOnRandomizedIntegerGraphs) {
  // >= 20 randomized graph/k combinations x both variants, bitwise.
  RandomGraphOptions graph_opts;
  graph_opts.integer_weights = true;
  graph_opts.max_vertices = 72;
  int combos = 0;
  for (std::uint64_t seed = 100; seed < 122; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const Graph g = RandomTestGraph(rng, graph_opts);
    const std::int64_t n = g.num_vertices();
    // k spans 1 .. beyond n (duplicate sources), deliberately including
    // widths that are not multiples of the panel tile width.
    const std::int64_t k =
        1 + static_cast<std::int64_t>(rng.NextBounded(
                static_cast<std::uint64_t>(n + n / 2 + 2)));
    std::vector<VertexId> sources;
    sources.reserve(static_cast<std::size_t>(k));
    for (std::int64_t j = 0; j < k; ++j) {
      sources.push_back(
          static_cast<VertexId>(rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const std::int64_t block_size =
        1 + static_cast<std::int64_t>(rng.NextBounded(
                static_cast<std::uint64_t>(n + 4)));
    const DenseBlock oracle = OraclePanel(g, sources);
    for (KernelVariant variant : kVariants) {
      auto result = RunKsource(g, sources, block_size, variant);
      ASSERT_TRUE(result.status.ok())
          << linalg::KernelVariantName(variant) << ": "
          << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value());
      ExpectBitwiseEqual(*result.distances, oracle,
                         std::string(linalg::KernelVariantName(variant)) +
                             " n=" + std::to_string(n) + " k=" +
                             std::to_string(k) + " b=" +
                             std::to_string(block_size) +
                             (g.directed() ? " directed" : " undirected"));
    }
    ++combos;
  }
  EXPECT_GE(combos, 20);
}

TEST(KsourceSolver, FractionalWeightsVariantsAgreeBitwiseAndMatchOracle) {
  // With fractional weights different algorithms may differ in the last ulp
  // from the oracle, but the two registry variants must still be bitwise
  // identical to each other (block_size <= fw_block keeps the diagonal close
  // on the identical scalar path in every variant).
  RandomGraphOptions graph_opts;
  graph_opts.integer_weights = false;
  graph_opts.max_vertices = 64;
  for (std::uint64_t seed = 300; seed < 306; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const Graph g = RandomTestGraph(rng, graph_opts);
    const std::int64_t n = g.num_vertices();
    const std::int64_t k =
        1 + static_cast<std::int64_t>(rng.NextBounded(
                static_cast<std::uint64_t>(n)));
    std::vector<VertexId> sources;
    for (std::int64_t j = 0; j < k; ++j) {
      sources.push_back(
          static_cast<VertexId>(rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const std::int64_t block_size =
        1 + static_cast<std::int64_t>(rng.NextBounded(24));
    const DenseBlock oracle = OraclePanel(g, sources);
    std::optional<DenseBlock> first_panel;
    for (KernelVariant variant : kVariants) {
      auto result = RunKsource(g, sources, block_size, variant);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value());
      EXPECT_TRUE(result.distances->ApproxEquals(oracle, 1e-9))
          << linalg::KernelVariantName(variant) << ": max diff "
          << result.distances->MaxAbsDiff(oracle);
      if (!first_panel.has_value()) {
        first_panel = *result.distances;
      } else {
        ExpectBitwiseEqual(*result.distances, *first_panel,
                           linalg::KernelVariantName(variant));
      }
    }
  }
}

// --- deliberate edge shapes ------------------------------------------------

TEST(KsourceSolver, SingleSourceMatchesDijkstra) {
  // Dijkstra associates FP path sums differently, so compare within
  // tolerance (the bitwise suites above pin the exact-arithmetic cases).
  const Graph g = graph::PaperErdosRenyi(60, 17);
  const auto truth = graph::DijkstraAllPairs(g);
  for (KernelVariant variant : kVariants) {
    auto result = RunKsource(g, {42}, 16, variant);
    ASSERT_TRUE(result.status.ok());
    const DenseBlock& panel = *result.distances;
    ASSERT_EQ(panel.cols(), 1);
    for (std::int64_t v = 0; v < 60; ++v) {
      if (std::isinf(truth.At(42, v))) {
        EXPECT_TRUE(std::isinf(panel.At(v, 0))) << "v=" << v;
      } else {
        EXPECT_NEAR(panel.At(v, 0), truth.At(42, v), 1e-9) << "v=" << v;
      }
    }
  }
}

TEST(KsourceSolver, MoreSourcesThanVerticesWithDuplicates) {
  const Graph g = graph::CycleGraph(6, 2.0);
  std::vector<VertexId> sources = {0, 1, 2, 3, 4, 5, 0, 3, 3};  // k = 9 > n
  const DenseBlock oracle = OraclePanel(g, sources);
  for (KernelVariant variant : kVariants) {
    auto result = RunKsource(g, sources, 4, variant);
    ASSERT_TRUE(result.status.ok());
    ExpectBitwiseEqual(*result.distances, oracle,
                       linalg::KernelVariantName(variant));
  }
}

TEST(KsourceSolver, PanelWidthNotDivisibleByTileWidth) {
  // 33 columns straddles the 32-wide accumulator; 65 straddles the
  // narrow/wide crossover at 64. Integer weights keep the oracle bitwise.
  RandomGraphOptions graph_opts;
  graph_opts.integer_weights = true;
  graph_opts.allow_directed = false;
  graph_opts.min_vertices = 70;
  graph_opts.max_vertices = 70;
  for (std::int64_t k : {33, 65}) {
    Xoshiro256 rng(static_cast<std::uint64_t>(k) * 31 + 7);
    const Graph g = RandomTestGraph(rng, graph_opts);
    std::vector<VertexId> sources;
    for (std::int64_t j = 0; j < k; ++j) {
      sources.push_back(static_cast<VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices()))));
    }
    const DenseBlock oracle = OraclePanel(g, sources);
    for (KernelVariant variant : kVariants) {
      auto result = RunKsource(g, sources, 16, variant);
      ASSERT_TRUE(result.status.ok());
      ExpectBitwiseEqual(*result.distances, oracle,
                         std::string(linalg::KernelVariantName(variant)) +
                             " k=" + std::to_string(k));
    }
  }
}

TEST(KsourceSolver, SingleNodeGraph) {
  const Graph g(1);
  for (KernelVariant variant : kVariants) {
    auto result = RunKsource(g, {0, 0, 0}, 4, variant);
    ASSERT_TRUE(result.status.ok());
    const DenseBlock& panel = *result.distances;
    EXPECT_EQ(panel.rows(), 1);
    EXPECT_EQ(panel.cols(), 3);
    for (std::int64_t j = 0; j < 3; ++j) EXPECT_EQ(panel.At(0, j), 0.0);
  }
}

TEST(KsourceSolver, DirectedDistancesAreSourceRooted) {
  // 0 -> 1 -> 2 -> 3 path digraph: distances from 0 grow along the chain;
  // nothing reaches 0 back.
  Graph g(4, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, 1.0).CheckOk();
  g.AddEdge(2, 3, 1.0).CheckOk();
  for (KernelVariant variant : kVariants) {
    auto result = RunKsource(g, {0, 3}, 2, variant);
    ASSERT_TRUE(result.status.ok());
    const DenseBlock& panel = *result.distances;
    EXPECT_EQ(panel.At(0, 0), 0.0);
    EXPECT_EQ(panel.At(1, 0), 1.0);
    EXPECT_EQ(panel.At(2, 0), 2.0);
    EXPECT_EQ(panel.At(3, 0), 3.0);
    EXPECT_TRUE(std::isinf(panel.At(0, 1)));  // 3 reaches nothing
    EXPECT_TRUE(std::isinf(panel.At(2, 1)));
    EXPECT_EQ(panel.At(3, 1), 0.0);
  }
}

TEST(KsourceSolver, DisconnectedPairsStayInfinite) {
  const Graph g = test::TwoComponentGraph(16, 5, 6);
  std::vector<VertexId> sources = {0, 20};
  const DenseBlock oracle = OraclePanel(g, sources);
  auto result = RunKsource(g, sources, 8, KernelVariant::kTiled);
  ASSERT_TRUE(result.status.ok());
  const DenseBlock& panel = *result.distances;
  EXPECT_TRUE(panel.ApproxEquals(oracle, 1e-9));
  // Cross-component distances are +inf by construction.
  EXPECT_TRUE(std::isinf(panel.At(20, 0)));
  EXPECT_TRUE(std::isinf(panel.At(0, 1)));
}

// --- pure shuffle-replicated variant ---------------------------------------

TEST(KsourceShuffleVariant, MatchesOracleBitwiseOnRandomizedIntegerGraphs) {
  // The pure variant replicates pivot factors through the shuffle instead of
  // shared storage; its panel must stay bitwise-locked to the scalar oracle
  // on the same regimes the staged variant is locked on (directed,
  // disconnected, duplicate sources, ragged block sizes).
  RandomGraphOptions graph_opts;
  graph_opts.integer_weights = true;
  graph_opts.max_vertices = 64;
  for (std::uint64_t seed = 500; seed < 510; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed);
    const Graph g = RandomTestGraph(rng, graph_opts);
    const std::int64_t n = g.num_vertices();
    const std::int64_t k =
        1 + static_cast<std::int64_t>(rng.NextBounded(
                static_cast<std::uint64_t>(n + 2)));
    std::vector<VertexId> sources;
    for (std::int64_t j = 0; j < k; ++j) {
      sources.push_back(
          static_cast<VertexId>(rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const std::int64_t block_size =
        1 + static_cast<std::int64_t>(rng.NextBounded(
                static_cast<std::uint64_t>(n + 4)));
    const DenseBlock oracle = OraclePanel(g, sources);
    for (KernelVariant variant : kVariants) {
      auto result = RunKsource(g, sources, block_size, variant,
                               SolverKind::kBlockedInMemory);
      ASSERT_TRUE(result.status.ok())
          << linalg::KernelVariantName(variant) << ": "
          << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value());
      ExpectBitwiseEqual(*result.distances, oracle,
                         std::string("shuffle variant, kernel ") +
                             linalg::KernelVariantName(variant) + " n=" +
                             std::to_string(n) + " k=" + std::to_string(k) +
                             " b=" + std::to_string(block_size));
    }
  }
}

TEST(KsourceShuffleVariant, UsesNoSharedStorageAndAgreesWithStaged) {
  const Graph g = graph::PaperErdosRenyi(72, 19);
  const std::vector<VertexId> sources = {3, 17, 41, 66};
  auto staged = RunKsource(g, sources, 16, KernelVariant::kTiled,
                           SolverKind::kBlockedCollectBroadcast);
  auto shuffle = RunKsource(g, sources, 16, KernelVariant::kTiled,
                            SolverKind::kBlockedInMemory);
  ASSERT_TRUE(staged.status.ok());
  ASSERT_TRUE(shuffle.status.ok());
  ExpectBitwiseEqual(*shuffle.distances, *staged.distances,
                     "shuffle vs staged");
  // Pure in the paper's sense: nothing moved through the side channel.
  EXPECT_EQ(shuffle.metrics.shared_fs_written_bytes, 0u);
  EXPECT_EQ(shuffle.metrics.shared_fs_read_bytes, 0u);
  EXPECT_GT(staged.metrics.shared_fs_written_bytes, 0u);
  // And it pays for that purity through the shuffle instead.
  EXPECT_GT(shuffle.metrics.shuffle_bytes, staged.metrics.shuffle_bytes);
  EXPECT_TRUE(apsp::SolverIsPure(SolverKind::kBlockedInMemory));
  EXPECT_FALSE(apsp::SolverIsPure(SolverKind::kBlockedCollectBroadcast));
}

// --- early-exit pivot sweep -------------------------------------------------

/// TwoComponentGraph with weights floored to integers, so the scalar oracle
/// comparison can be bitwise (exact path sums).
Graph IntegerTwoComponentGraph(VertexId n_each, std::uint64_t seed_a,
                               std::uint64_t seed_b) {
  const Graph g = test::TwoComponentGraph(n_each, seed_a, seed_b);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return gi;
}

TEST(KsourceEarlyExit, DisconnectedGraphOutputIdenticalWithAndWithoutSkip) {
  // Property: on TwoComponentGraph inputs the all-infinite-cross early exit
  // must change nothing but the work done. Both data-plane variants, several
  // layouts (aligned and misaligned with the component boundary), bitwise.
  for (std::uint64_t seed = 700; seed < 704; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    const Graph g = IntegerTwoComponentGraph(16, seed, seed + 50);  // n = 32
    const std::vector<VertexId> sources = {0, 5, 17, 31};
    const DenseBlock oracle = OraclePanel(g, sources);
    for (auto data_plane : {SolverKind::kBlockedCollectBroadcast,
                            SolverKind::kBlockedInMemory}) {
      // b = 16 aligns each component with exactly one block (every pivot
      // cross is all-infinite: the skip fires on all pivots); b = 6 leaves
      // blocks straddling the cut (the skip never fires). Identical output
      // either way is the property under test.
      for (std::int64_t b : {6, 16}) {
        const SolveRequest with_skip = KsourceRequest(sources, b, data_plane);
        SolveRequest without_skip = with_skip;
        without_skip.options.early_exit_infinite = false;
        auto on = apsp::Solve(g, with_skip).run;
        auto off = apsp::Solve(g, without_skip).run;
        ASSERT_TRUE(on.status.ok());
        ASSERT_TRUE(off.status.ok());
        const std::string label =
            std::string(apsp::SolverKindName(data_plane)) + " b=" +
            std::to_string(b);
        ExpectBitwiseEqual(*on.distances, *off.distances, label);
        ExpectBitwiseEqual(*on.distances, oracle, label + " vs oracle");
        if (b == 16) {
          // Every pivot skipped: phases 2/3 and the factor sweep never ran,
          // so the modelled kernel time must drop despite the added scan.
          EXPECT_LT(on.metrics.compute_seconds, off.metrics.compute_seconds)
              << label;
        }
      }
    }
  }
}

TEST(KsourceEarlyExit, ConnectedGraphNeverSkips) {
  // On a connected graph no pivot cross is all-infinite, so the early exit
  // must add only the detection scan — same stage structure either way.
  const Graph g = graph::PaperErdosRenyi(48, 29);
  const std::vector<VertexId> sources = {1, 30};
  const SolveRequest on = KsourceRequest(sources, 12);
  SolveRequest off = on;
  off.options.early_exit_infinite = false;
  auto run_on = apsp::Solve(g, on).run;
  auto run_off = apsp::Solve(g, off).run;
  ASSERT_TRUE(run_on.status.ok());
  ASSERT_TRUE(run_off.status.ok());
  ExpectBitwiseEqual(*run_on.distances, *run_off.distances, "on vs off");
  // Detection adds exactly one scan stage (a collect) per pivot.
  EXPECT_EQ(run_on.metrics.stages,
            run_off.metrics.stages + run_on.rounds_executed);
}

// --- engine-level properties ----------------------------------------------

TEST(KsourceSolver, PhantomRunChargesSameTimeAsRealRun) {
  // The virtual clock must not depend on payload materialization, the same
  // invariant the APSP solvers keep (it justifies paper-scale projections).
  const Graph g = graph::PaperErdosRenyi(48, 23);
  const SolveRequest request = KsourceRequest({1, 9, 17, 33, 41}, 12);
  auto real = apsp::Solve(g, request).run;
  auto phantom = apsp::SolveModel(48, request).run;
  ASSERT_TRUE(real.status.ok());
  ASSERT_TRUE(phantom.status.ok());
  EXPECT_FALSE(phantom.distances.has_value());
  EXPECT_NEAR(real.sim_seconds, phantom.sim_seconds,
              real.sim_seconds * 1e-9 + 1e-12);
  EXPECT_EQ(real.metrics.shuffle_bytes, phantom.metrics.shuffle_bytes);
  EXPECT_EQ(real.metrics.tasks, phantom.metrics.tasks);
}

TEST(KsourceSolver, ProjectionApproximatesFullRun) {
  // A model run uses only the source count: k = 8.
  const SolveRequest full_request =
      KsourceRequest(std::vector<VertexId>(8, 0), 16);
  auto full = apsp::SolveModel(96, full_request).run;
  ASSERT_TRUE(full.status.ok());
  EXPECT_EQ(full.rounds_executed, full.rounds_total);
  SolveRequest partial_request = full_request;
  partial_request.options.max_rounds = 2;
  auto partial = apsp::SolveModel(96, partial_request).run;
  ASSERT_TRUE(partial.status.ok());
  EXPECT_EQ(partial.rounds_executed, 2);
  EXPECT_NEAR(partial.projected_seconds, full.sim_seconds,
              full.sim_seconds * 0.25);
}

TEST(KsourceSolver, RejectsInvalidSources) {
  const Graph g = graph::PathGraph(5);
  for (const VertexId bad : {VertexId{5}, VertexId{-1}}) {
    const SolveRequest request = KsourceRequest({0, bad}, 2);
    EXPECT_EQ(apsp::Solve(g, request).status().code(),
              StatusCode::kInvalidArgument)
        << "source " << bad;
    EXPECT_EQ(apsp::SolveModel(5, request).status().code(),
              StatusCode::kInvalidArgument)
        << "source " << bad;
  }
}

TEST(KsourceSolver, RejectsEmptyGraphsAndNonPositiveBlockSizes) {
  // The front door reports a bad layout as INVALID_ARGUMENT instead of
  // throwing from BlockLayout, for every solver kind.
  struct Case {
    std::int64_t n;
    std::int64_t block_size;
  };
  for (const SolverKind kind : apsp::AllSolverKinds()) {
    for (const Case c : {Case{0, 2}, Case{5, 0}, Case{5, -3}}) {
      SolveRequest request{.solver = kind, .cluster = TestCluster()};
      request.options.block_size = c.block_size;
      const std::string label = std::string(apsp::SolverKindName(kind)) +
                                " n=" + std::to_string(c.n) +
                                " b=" + std::to_string(c.block_size);
      EXPECT_EQ(apsp::Solve(Graph(c.n), request).status().code(),
                StatusCode::kInvalidArgument)
          << label;
      EXPECT_EQ(apsp::SolveModel(c.n, request).status().code(),
                StatusCode::kInvalidArgument)
          << label;
    }
  }
}

TEST(KsourceSolver, RejectsSolversWithoutAKsourcePlane) {
  // Only the blocked methods have a k-source data plane.
  const Graph g = graph::PathGraph(5);
  for (const SolverKind kind :
       {SolverKind::kRepeatedSquaring, SolverKind::kFloydWarshall2d}) {
    const SolveRequest request = KsourceRequest({0, 3}, 2, kind);
    EXPECT_EQ(apsp::Solve(g, request).status().code(),
              StatusCode::kInvalidArgument)
        << apsp::SolverKindName(kind);
    EXPECT_EQ(apsp::SolveModel(5, request).status().code(),
              StatusCode::kInvalidArgument)
        << apsp::SolverKindName(kind);
  }
}

// --- negative edges (min-plus) --------------------------------------------

constexpr SolverKind kPlanes[] = {SolverKind::kBlockedCollectBroadcast,
                                  SolverKind::kBlockedInMemory};

TEST(KsourceNegativeWeights, NegativeCycleAbortsOnBothPlanes) {
  // The undirected triangle 0-1-2 weighs 1 - 2 - 2 = -3 around: every
  // source reaches it, so no panel holds shortest paths.
  Graph triangle(3);
  triangle.AddEdge(0, 1, 1.0).CheckOk();
  triangle.AddEdge(1, 2, -2.0).CheckOk();
  triangle.AddEdge(2, 0, -2.0).CheckOk();
  for (const SolverKind plane : kPlanes) {
    const auto report =
        apsp::Solve(triangle, KsourceRequest({0, 1}, 2, plane));
    EXPECT_EQ(report.status().code(), StatusCode::kAborted)
        << apsp::SolverKindName(plane) << ": " << report.status().ToString();
    EXPECT_NE(report.status().message().find(
                  "negative cycle reachable from source "),
              std::string::npos)
        << report.status().ToString();
    EXPECT_FALSE(report.distances().has_value());
  }
}

TEST(KsourceNegativeWeights, SourceThatCannotReachTheCycleStillSolves) {
  // Directed cycle 0 -> 1 -> 2 -> 0 weighs -3; vertex 3 only feeds it.
  // Source 3 reaches the cycle and aborts; source 4 reaches nothing.
  Graph g(5, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, -2.0).CheckOk();
  g.AddEdge(2, 0, -2.0).CheckOk();
  g.AddEdge(3, 0, 4.0).CheckOk();
  for (const SolverKind plane : kPlanes) {
    EXPECT_EQ(apsp::Solve(g, KsourceRequest({3}, 2, plane)).status().code(),
              StatusCode::kAborted)
        << apsp::SolverKindName(plane);
    const auto clean = apsp::Solve(g, KsourceRequest({4}, 2, plane));
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean.distances()->At(4, 0), 0.0);
    EXPECT_TRUE(std::isinf(clean.distances()->At(0, 0)));
  }
}

TEST(KsourceNegativeWeights, NegativeEdgesWithoutCycleMatchBellmanFord) {
  // w(u, v) = r + p(v) - p(u) with r >= 0: every cycle weighs the sum of
  // its r >= 0, yet many edges are negative. Integer weights keep every
  // path sum exact.
  Xoshiro256 rng(41);
  const VertexId n = 37;
  std::vector<double> potential(static_cast<std::size_t>(n));
  for (double& p : potential) {
    p = static_cast<double>(rng.NextBounded(20));
  }
  Graph g(n, /*directed=*/true);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u == v || rng.NextDouble() > 0.15) continue;
      const double r = static_cast<double>(rng.NextBounded(6));
      g.AddEdge(u, v,
                r + potential[static_cast<std::size_t>(v)] -
                    potential[static_cast<std::size_t>(u)])
          .CheckOk();
    }
  }
  ASSERT_GT(std::count_if(g.edges().begin(), g.edges().end(),
                          [](const graph::Edge& e) { return e.weight < 0; }),
            0);
  const std::vector<VertexId> sources = {0, 11, 36};
  for (const SolverKind plane : kPlanes) {
    const auto report = apsp::Solve(g, KsourceRequest(sources, 8, plane));
    ASSERT_TRUE(report.ok()) << apsp::SolverKindName(plane) << ": "
                             << report.status().ToString();
    for (std::size_t j = 0; j < sources.size(); ++j) {
      const auto oracle = graph::BellmanFord(g, sources[j]);
      ASSERT_TRUE(oracle.ok());
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(report.distances()->At(v, static_cast<std::int64_t>(j)),
                  (*oracle)[static_cast<std::size_t>(v)])
            << apsp::SolverKindName(plane) << " source " << sources[j]
            << " vertex " << v;
      }
    }
  }
}

}  // namespace
}  // namespace apspark
