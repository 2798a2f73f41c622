// Tests for the semiring generalization and path reconstruction extensions.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "apsp/api.h"
#include "common/rng.h"
#include "common/serial.h"
#include "graph/generators.h"
#include "graph/path_reconstruction.h"
#include "graph/shortest_paths.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "linalg/semiring.h"
#include "test_support.h"

namespace apspark {
namespace {

using linalg::BooleanSemiring;
using linalg::DenseBlock;
using linalg::kInf;
using linalg::KernelVariant;
using linalg::MaxMinSemiring;
using linalg::MaxTimesSemiring;
using linalg::MinPlusSemiring;
using linalg::SemiringId;

constexpr SemiringId kAllSemirings[] = {SemiringId::kMinPlus,
                                        SemiringId::kBoolean,
                                        SemiringId::kMaxMin,
                                        SemiringId::kMaxTimes};
constexpr KernelVariant kAllVariants[] = {KernelVariant::kTiled,
                                          KernelVariant::kTiledParallel};

/// Scalar per-semiring oracle: ingest the min-plus adjacency into the
/// algebra and run the triple-loop closure. Everything the fused engine
/// produces is locked bitwise against this.
DenseBlock OracleClosure(const DenseBlock& minplus_adj, SemiringId id) {
  DenseBlock base = linalg::SemiringAdjacency(minplus_adj, id);
  linalg::SemiringClosureDispatch(id, base);
  return base;
}

DenseBlock OracleProduct(SemiringId id, const DenseBlock& a,
                         const DenseBlock& b) {
  std::optional<DenseBlock> out;
  linalg::WithSemiring(id, [&](auto s) {
    using S = decltype(s);
    out = linalg::SemiringProduct<S>(a, b);
  });
  return *out;
}

/// Random dense 0/1 matrix (for the bit-packed plane's equivalence tests).
DenseBlock RandomBooleanDense(Xoshiro256& rng, std::int64_t rows,
                              std::int64_t cols, double density = 0.3) {
  DenseBlock m(rows, cols, 0.0);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < density) m.Set(i, j, 1.0);
    }
  }
  return m;
}

TEST(Semiring, MinPlusInstantiationMatchesDedicatedKernel) {
  Xoshiro256 rng(1);
  DenseBlock a(7, 5, 0.0), b(5, 9, 0.0);
  for (std::int64_t i = 0; i < a.size(); ++i) {
    a.mutable_data()[i] = rng.NextDouble() < 0.2 ? kInf : rng.NextDouble(0, 9);
  }
  for (std::int64_t i = 0; i < b.size(); ++i) {
    b.mutable_data()[i] = rng.NextDouble() < 0.2 ? kInf : rng.NextDouble(0, 9);
  }
  EXPECT_TRUE(linalg::SemiringProduct<MinPlusSemiring>(a, b).ApproxEquals(
      linalg::MinPlusProduct(a, b)));
}

TEST(Semiring, ClosureMatchesFloydWarshall) {
  const graph::Graph g = graph::PaperErdosRenyi(40, 2);
  DenseBlock a = g.ToDenseAdjacency();
  DenseBlock b = a;
  linalg::SemiringClosure<MinPlusSemiring>(a);
  linalg::FloydWarshallInPlace(b);
  EXPECT_TRUE(a.ApproxEquals(b));
}

TEST(Semiring, BooleanAlgebra) {
  EXPECT_EQ(BooleanSemiring::Add(0.0, 1.0), 1.0);
  EXPECT_EQ(BooleanSemiring::Add(0.0, 0.0), 0.0);
  EXPECT_EQ(BooleanSemiring::Multiply(1.0, 1.0), 1.0);
  EXPECT_EQ(BooleanSemiring::Multiply(1.0, 0.0), 0.0);
  EXPECT_EQ(BooleanSemiring::Zero(), 0.0);
  EXPECT_EQ(BooleanSemiring::One(), 1.0);
}

TEST(Semiring, TransitiveClosureMatchesReachability) {
  // Two components: 0-1-2 and 3-4.
  graph::Graph g(5);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, 1.0).CheckOk();
  g.AddEdge(3, 4, 1.0).CheckOk();
  const DenseBlock reach = linalg::TransitiveClosure(g.ToDenseAdjacency());
  const DenseBlock dist = graph::DijkstraAllPairs(g);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(reach.At(i, j) != 0.0, !std::isinf(dist.At(i, j)))
          << i << "," << j;
    }
  }
}

TEST(Semiring, TransitiveClosureDirectedIsAsymmetric) {
  graph::Graph g(3, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, 1.0).CheckOk();
  const DenseBlock reach = linalg::TransitiveClosure(g.ToDenseAdjacency());
  EXPECT_EQ(reach.At(0, 2), 1.0);
  EXPECT_EQ(reach.At(2, 0), 0.0);
}

TEST(Paths, ReconstructedPathsAreShortestAndConsistent) {
  const graph::Graph g = graph::PaperErdosRenyi(60, 3);
  const auto apsp = graph::FloydWarshallWithPaths(g);
  const auto truth = graph::DijkstraAllPairs(g);
  EXPECT_TRUE(apsp.distances.ApproxEquals(truth, 1e-9));
  // Every reconstructed path must be a real walk whose edge weights sum to
  // the reported distance.
  const auto adjacency = g.ToDenseAdjacency();
  for (graph::VertexId s = 0; s < 60; s += 7) {
    for (graph::VertexId t = 0; t < 60; t += 5) {
      if (std::isinf(apsp.distances.At(s, t))) {
        EXPECT_FALSE(graph::ExtractPath(apsp, s, t).ok());
        continue;
      }
      auto path = graph::ExtractPath(apsp, s, t);
      ASSERT_TRUE(path.ok()) << s << "->" << t;
      ASSERT_GE(path->size(), 1u);
      EXPECT_EQ(path->front(), s);
      EXPECT_EQ(path->back(), t);
      double total = 0;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const double w = adjacency.At((*path)[i], (*path)[i + 1]);
        ASSERT_FALSE(std::isinf(w)) << "path uses a non-edge";
        total += w;
      }
      EXPECT_NEAR(total, apsp.distances.At(s, t), 1e-9);
    }
  }
}

TEST(Paths, KsourcePanelDistancesAreRealizedByReconstructedPaths) {
  // Distances computed by the batched k-source sweep must be *realizable*:
  // for every (source, target) pair, the successor-matrix reconstruction
  // yields an actual walk in the graph whose edge weights sum to the panel
  // entry. Ties the KSSP workload to the path-reconstruction extension.
  const std::uint64_t seed = 12;
  APSPARK_SEEDED_CASE(seed);
  const graph::Graph g = graph::PaperErdosRenyi(56, seed);
  const std::vector<graph::VertexId> sources = {0, 7, 23, 41, 55};
  apsp::SolveRequest request{.sources = sources,
                             .cluster = test::TestCluster()};
  request.options.block_size = 16;
  auto result = apsp::Solve(g, request).run;
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_TRUE(result.distances.has_value());
  const auto& panel = *result.distances;

  const auto apsp = graph::FloydWarshallWithPaths(g);
  const auto adjacency = g.ToDenseAdjacency();
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const graph::VertexId s = sources[j];
    for (graph::VertexId t = 0; t < g.num_vertices(); t += 3) {
      const double dist = panel.At(t, static_cast<std::int64_t>(j));
      if (std::isinf(dist)) {
        EXPECT_FALSE(graph::ExtractPath(apsp, s, t).ok());
        continue;
      }
      auto path = graph::ExtractPath(apsp, s, t);
      ASSERT_TRUE(path.ok()) << s << "->" << t;
      ASSERT_GE(path->size(), 1u);
      EXPECT_EQ(path->front(), s);
      EXPECT_EQ(path->back(), t);
      double total = 0;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const double w = adjacency.At((*path)[i], (*path)[i + 1]);
        ASSERT_FALSE(std::isinf(w)) << "path uses a non-edge";
        total += w;
      }
      EXPECT_NEAR(total, dist, 1e-9)
          << "source " << s << " -> " << t << " via panel column " << j;
    }
  }
}

TEST(Paths, DirectedKsourcePanelRealizedOnDigraph) {
  // Same realizability check on a digraph: panel columns are source-rooted
  // (dist(s -> v)), so reconstruction must follow edge orientation.
  const graph::Graph g = graph::ErdosRenyi(30, 0.2, {1.0, 5.0}, /*seed=*/9,
                                           /*directed=*/true);
  const std::vector<graph::VertexId> sources = {3, 11, 28};
  apsp::SolveRequest request{.sources = sources,
                             .cluster = test::TestCluster()};
  request.options.block_size = 8;
  auto result = apsp::Solve(g, request).run;
  ASSERT_TRUE(result.status.ok());
  const auto& panel = *result.distances;
  const auto apsp = graph::FloydWarshallWithPaths(g);
  const auto adjacency = g.ToDenseAdjacency();
  for (std::size_t j = 0; j < sources.size(); ++j) {
    const graph::VertexId s = sources[j];
    for (graph::VertexId t = 0; t < g.num_vertices(); ++t) {
      const double dist = panel.At(t, static_cast<std::int64_t>(j));
      if (std::isinf(dist)) continue;
      auto path = graph::ExtractPath(apsp, s, t);
      ASSERT_TRUE(path.ok()) << s << "->" << t;
      double total = 0;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        total += adjacency.At((*path)[i], (*path)[i + 1]);
      }
      EXPECT_NEAR(total, dist, 1e-9) << s << "->" << t;
    }
  }
}

TEST(Paths, TrivialAndDegenerateCases) {
  const graph::Graph g = graph::PathGraph(4, 2.0);
  const auto apsp = graph::FloydWarshallWithPaths(g);
  auto self = graph::ExtractPath(apsp, 2, 2);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(*self, (std::vector<graph::VertexId>{2}));
  auto full = graph::ExtractPath(apsp, 0, 3);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, (std::vector<graph::VertexId>{0, 1, 2, 3}));
  EXPECT_FALSE(graph::ExtractPath(apsp, 0, 9).ok());
}

TEST(Paths, DirectedPathsFollowEdgeOrientation) {
  graph::Graph g(4, /*directed=*/true);
  g.AddEdge(0, 1, 1.0).CheckOk();
  g.AddEdge(1, 2, 1.0).CheckOk();
  g.AddEdge(2, 3, 1.0).CheckOk();
  g.AddEdge(3, 0, 1.0).CheckOk();  // cycle
  const auto apsp = graph::FloydWarshallWithPaths(g);
  auto forward = graph::ExtractPath(apsp, 0, 3);
  ASSERT_TRUE(forward.ok());
  EXPECT_EQ(forward->size(), 4u);
  auto back = graph::ExtractPath(apsp, 3, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);  // direct edge 3->0
}

/// Walks the successor plane derived from `dist` for every reachable pair
/// and checks each walk is a real edge walk of oracle length.
void ExpectSuccessorWalksRealizeOracle(const graph::Graph& g,
                                       const DenseBlock& dist) {
  const std::int64_t n = g.num_vertices();
  const DenseBlock next = graph::SuccessorsFromDistances(g, dist);
  const auto oracle = graph::FloydWarshallWithPaths(g);
  const DenseBlock adjacency = g.ToDenseAdjacency();
  for (graph::VertexId s = 0; s < n; ++s) {
    for (graph::VertexId t = 0; t < n; ++t) {
      auto path = graph::ExtractPathWithLookup(
          n, s, t, [&](graph::VertexId i, graph::VertexId target) {
            return static_cast<std::int64_t>(next.At(i, target));
          });
      if (std::isinf(oracle.distances.At(s, t))) {
        EXPECT_FALSE(path.ok()) << s << "->" << t;
        continue;
      }
      ASSERT_TRUE(path.ok()) << s << "->" << t << ": "
                             << path.status().ToString();
      EXPECT_EQ(path->front(), s);
      EXPECT_EQ(path->back(), t);
      double total = 0;
      for (std::size_t i = 0; i + 1 < path->size(); ++i) {
        const double w = adjacency.At((*path)[i], (*path)[i + 1]);
        ASSERT_FALSE(std::isinf(w)) << "path uses a non-edge";
        total += w;
      }
      EXPECT_EQ(total, oracle.distances.At(s, t)) << s << "->" << t;
    }
  }
}

TEST(Paths, ZeroWeightEdgeDoesNotCycleTheSuccessorWalk) {
  // 0 -0- 1 -1- 3, 2 -5- 3: the smallest-k tie-break alone sends 1 back to
  // 0 on the way to 3 (both neighbours are at remaining distance 1), and
  // 0 -> 1 -> 0 -> ... never reaches 3.
  graph::Graph g(4, /*directed=*/false);
  g.AddEdge(0, 1, 0.0).CheckOk();
  g.AddEdge(1, 3, 1.0).CheckOk();
  g.AddEdge(2, 3, 5.0).CheckOk();
  apsp::SolveRequest request;
  request.options.block_size = 2;
  const auto report = apsp::Solve(g, request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSuccessorWalksRealizeOracle(g, *report.distances());
  const DenseBlock next =
      graph::SuccessorsFromDistances(g, *report.distances());
  EXPECT_EQ(next.At(0, 3), 1.0);
  EXPECT_EQ(next.At(1, 3), 3.0);
}

TEST(Paths, ZeroWeightPlateauWalksTowardItsExit) {
  // Three vertices joined by weight-0 edges, left only through 2 -1- 3:
  // toward 3 every plateau vertex is at distance 1, so ties must be broken
  // by hops to the exit for the walk to leave the plateau.
  graph::Graph g(4, /*directed=*/false);
  g.AddEdge(0, 1, 0.0).CheckOk();
  g.AddEdge(1, 2, 0.0).CheckOk();
  g.AddEdge(0, 2, 0.0).CheckOk();
  g.AddEdge(2, 3, 1.0).CheckOk();
  ExpectSuccessorWalksRealizeOracle(g, graph::DijkstraAllPairs(g));
  graph::Graph chain(4, /*directed=*/false);
  chain.AddEdge(0, 1, 0.0).CheckOk();
  chain.AddEdge(1, 2, 0.0).CheckOk();
  chain.AddEdge(2, 3, 1.0).CheckOk();
  ExpectSuccessorWalksRealizeOracle(chain, graph::DijkstraAllPairs(chain));
}

TEST(Paths, PositiveWeightSuccessorsKeepSmallestNeighbourTieBreak) {
  // Integer weights make many ties; without a zero-weight edge the plane
  // is the smallest-k argmin, entry for entry.
  graph::Graph g(40, /*directed=*/false);
  Xoshiro256 rng(17);
  for (int e = 0; e < 160; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.NextBounded(40));
    const auto v = static_cast<graph::VertexId>(rng.NextBounded(40));
    if (u != v) g.AddEdge(u, v, 1.0 + static_cast<double>(rng.NextBounded(3)))
                    .CheckOk();
  }
  const DenseBlock dist = graph::DijkstraAllPairs(g);
  const DenseBlock next = graph::SuccessorsFromDistances(g, dist);
  const DenseBlock adjacency = g.ToDenseAdjacency();
  for (graph::VertexId i = 0; i < 40; ++i) {
    for (graph::VertexId j = 0; j < 40; ++j) {
      if (i == j || std::isinf(dist.At(i, j))) continue;
      graph::VertexId smallest = -1;
      for (graph::VertexId k = 0; k < 40 && smallest < 0; ++k) {
        if (k != i && adjacency.At(i, k) + dist.At(k, j) == dist.At(i, j)) {
          smallest = k;
        }
      }
      EXPECT_EQ(next.At(i, j), static_cast<double>(smallest)) << i << "->" << j;
    }
  }
  ExpectSuccessorWalksRealizeOracle(g, dist);
}

/// The successor plane's first pass by definition, one element at a time:
/// over k ascending and every edge (i, k, w), the first strict improvement
/// of w + dist(k, j) wins; -1 where none is below +inf, i on the diagonal.
DenseBlock NaiveArgminSuccessors(const graph::Graph& g, const DenseBlock& dist) {
  const std::int64_t n = g.num_vertices();
  // weights[i][k] lists every edge weight from i to k (parallel edges too).
  std::vector<std::vector<std::vector<double>>> weights(
      static_cast<std::size_t>(n),
      std::vector<std::vector<double>>(static_cast<std::size_t>(n)));
  for (const graph::Edge& e : g.edges()) {
    weights[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)]
        .push_back(e.weight);
    if (!g.directed()) {
      weights[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)]
          .push_back(e.weight);
    }
  }
  DenseBlock next(n, n, -1.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double best = kInf;
      for (std::int64_t k = 0; k < n; ++k) {
        for (const double w :
             weights[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) {
          const double via = w + dist.At(k, j);
          if (via < best) {
            best = via;
            next.Set(i, j, static_cast<double>(k));
          }
        }
      }
    }
    next.Set(i, i, static_cast<double>(i));
  }
  return next;
}

TEST(Paths, SuccessorKernelIsBitwiseEqualUnderEveryIsa) {
  // n is ragged against both SIMD chunk widths (16 columns on AVX2, 32 on
  // AVX-512). The graphs carry parallel edges of different weights,
  // unreachable vertices (the last quarter has no edges) and, with integer
  // weights, many equal-cost ties. Positive-weight planes must equal the
  // naive argmin; a zero-weight graph adds the second pass, whose input is
  // the first pass, so its plane must equal the scalar body's under every
  // ISA and every walk must realize the oracle distance.
  struct Kind {
    const char* name;
    bool directed;
    bool integer_weights;
    bool zero_weights;
  };
  const Kind kinds[] = {{"undirected", false, false, false},
                        {"directed", true, false, false},
                        {"undirected_ties", false, true, false},
                        {"directed_ties", true, true, false},
                        {"zero_weight", false, true, true},
                        {"zero_weight_directed", true, true, true}};
  for (const std::int64_t n : {1, 5, 15, 16, 17, 31, 32, 33, 45, 97}) {
    for (const Kind& kind : kinds) {
      SCOPED_TRACE(std::string(kind.name) + " n=" + std::to_string(n));
      Xoshiro256 rng(0x5ecc + static_cast<std::uint64_t>(n));
      auto weight = [&] {
        if (kind.zero_weights) return static_cast<double>(rng.NextBounded(3));
        if (kind.integer_weights) {
          return 1.0 + static_cast<double>(rng.NextBounded(2));
        }
        return rng.NextDouble(0.5, 10.0);
      };
      graph::Graph g(n, kind.directed);
      const std::int64_t linked = std::max<std::int64_t>(1, n - n / 4);
      for (std::int64_t e = 0; e < 3 * linked; ++e) {
        const auto u = static_cast<graph::VertexId>(
            rng.NextBounded(static_cast<std::uint64_t>(linked)));
        const auto v = static_cast<graph::VertexId>(
            rng.NextBounded(static_cast<std::uint64_t>(linked)));
        if (u == v) continue;
        g.AddEdge(u, v, weight()).CheckOk();
        // A parallel copy with a different weight.
        if (e % 4 == 0) g.AddEdge(u, v, weight() + 0.5).CheckOk();
      }
      const DenseBlock dist = graph::DijkstraAllPairs(g);
      DenseBlock expected;
      if (kind.zero_weights) {
        linalg::ScopedSimdIsa scalar(linalg::SimdIsa::kScalar);
        expected = graph::SuccessorsFromDistances(g, dist);
        ExpectSuccessorWalksRealizeOracle(g, dist);
      } else {
        expected = NaiveArgminSuccessors(g, dist);
      }
      for (const linalg::SimdIsa isa : test::AvailableIsas()) {
        linalg::ScopedSimdIsa scope(isa);
        test::ExpectBitwiseEqual(graph::SuccessorsFromDistances(g, dist),
                                 expected, linalg::SimdIsaName(isa));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle bug regressions (dimension checks, annihilators, aliasing).
// ---------------------------------------------------------------------------

TEST(SemiringOracle, ProductChecksDimensionsBeforePhantomDiscard) {
  // Regression: the oracle used to discard phantom operands before looking
  // at shapes, so a phantom model run would silently "succeed" on operands
  // no real run could multiply.
  const DenseBlock a = DenseBlock::Phantom(4, 5);
  const DenseBlock bad_inner = DenseBlock::Phantom(6, 3);
  DenseBlock c(4, 3, kInf);
  EXPECT_THROW(linalg::SemiringProductAccumulate<MinPlusSemiring>(
                   a, bad_inner, c),
               std::invalid_argument);
  const DenseBlock b = DenseBlock::Phantom(5, 3);
  DenseBlock bad_out(4, 4, kInf);
  EXPECT_THROW(
      linalg::SemiringProductAccumulate<MinPlusSemiring>(a, b, bad_out),
      std::invalid_argument);
  // Real operands hit the same checks.
  const DenseBlock ra(4, 5, 0.0), rb(6, 3, 0.0);
  DenseBlock rc(4, 3, kInf);
  EXPECT_THROW(linalg::SemiringProductAccumulate<MinPlusSemiring>(ra, rb, rc),
               std::invalid_argument);
}

TEST(SemiringOracle, PhantomOperandsPropagateToPhantomResult) {
  const DenseBlock a = DenseBlock::Phantom(4, 5);
  const DenseBlock b(5, 3, 1.0);
  DenseBlock c(4, 3, kInf);
  linalg::SemiringProductAccumulate<MinPlusSemiring>(a, b, c);
  EXPECT_TRUE(c.is_phantom());
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 3);
}

TEST(SemiringOracle, IsZeroMatchesEachAnnihilator) {
  // Regression for the annihilator-guard divergence: the engine used to mix
  // `== Zero()` and `std::isinf` tests. IsZero is now the single authority.
  // min-plus documents the isinf guard (matches the fused kernels).
  EXPECT_TRUE(MinPlusSemiring::IsZero(kInf));
  EXPECT_FALSE(MinPlusSemiring::IsZero(0.0));
  EXPECT_TRUE(BooleanSemiring::IsZero(0.0));
  EXPECT_FALSE(BooleanSemiring::IsZero(1.0));
  // max-min's One is +inf — an isinf guard would treat a saturated
  // capacity as the annihilator. IsZero must separate the two infinities.
  EXPECT_TRUE(MaxMinSemiring::IsZero(-kInf));
  EXPECT_FALSE(MaxMinSemiring::IsZero(kInf));
  EXPECT_TRUE(MaxTimesSemiring::IsZero(0.0));
  EXPECT_FALSE(MaxTimesSemiring::IsZero(1.0));
  for (const SemiringId id : kAllSemirings) {
    EXPECT_TRUE(linalg::SemiringIsZeroValue(id, linalg::SemiringZeroValue(id)))
        << linalg::SemiringName(id);
    EXPECT_FALSE(linalg::SemiringIsZeroValue(id, linalg::SemiringOneValue(id)))
        << linalg::SemiringName(id);
  }
}

TEST(SemiringOracle, AddIsIdempotentInEverySemiring) {
  // SemiringClosure updates the pivot row in place, which is only sound for
  // idempotent Add; the trait is also enforced at compile time.
  static_assert(MinPlusSemiring::kIdempotentAdd);
  static_assert(BooleanSemiring::kIdempotentAdd);
  static_assert(MaxMinSemiring::kIdempotentAdd);
  static_assert(MaxTimesSemiring::kIdempotentAdd);
  Xoshiro256 rng(7);
  for (int i = 0; i < 64; ++i) {
    const double x = rng.NextDouble(0, 10);
    EXPECT_EQ(MinPlusSemiring::Add(x, x), x);
    EXPECT_EQ(MaxMinSemiring::Add(x, x), x);
    EXPECT_EQ(MaxTimesSemiring::Add(x, x), x);
  }
  EXPECT_EQ(BooleanSemiring::Add(1.0, 1.0), 1.0);
  EXPECT_EQ(BooleanSemiring::Add(0.0, 0.0), 0.0);
}

TEST(SemiringOracle, InPlaceClosureMatchesSnapshotReference) {
  // Regression for the pivot-row aliasing bug: the in-place closure reads
  // the pivot row while overwriting the matrix. With diagonal = One and
  // idempotent Add, pass k leaves row/column k invariant, so the in-place
  // sweep must equal a snapshot-per-pivot reference bitwise.
  const std::uint64_t seed = 21;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 28;
  gopts.integer_weights = true;
  for (int round = 0; round < 4; ++round) {
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const DenseBlock adj = g.ToDenseAdjacency();
    for (const SemiringId id : kAllSemirings) {
      DenseBlock in_place = linalg::SemiringAdjacency(adj, id);
      const std::int64_t n = in_place.rows();
      DenseBlock snapshot_closure = in_place;
      for (std::int64_t k = 0; k < n; ++k) {
        const DenseBlock snap = snapshot_closure;
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            linalg::WithSemiring(id, [&](auto s) {
              using S = decltype(s);
              if (S::IsZero(snap.At(i, k))) return;
              snapshot_closure.Set(
                  i, j,
                  S::Add(snap.At(i, j),
                         S::Multiply(snap.At(i, k), snap.At(k, j))));
            });
          }
        }
      }
      linalg::SemiringClosureDispatch(id, in_place);
      test::ExpectBitwiseEqual(in_place, snapshot_closure,
                               linalg::SemiringName(id));
    }
  }
}

// ---------------------------------------------------------------------------
// KSSP early-exit (BlockAllZero) regressions.
// ---------------------------------------------------------------------------

TEST(KsourceEarlyExit, BlockAllZeroSeparatesAnnihilatorFromOne) {
  // The historical scan hardwired isinf: under max-min that conflates the
  // annihilator (-inf) with One (+inf) and would skip a maximally-live
  // pivot cross, silently dropping paths.
  const DenseBlock all_one_capacity(6, 6, kInf);
  EXPECT_FALSE(linalg::BlockAllZero(all_one_capacity, SemiringId::kMaxMin));
  EXPECT_TRUE(linalg::BlockAllZero(all_one_capacity, SemiringId::kMinPlus));
  const DenseBlock no_capacity(6, 6, -kInf);
  EXPECT_TRUE(linalg::BlockAllZero(no_capacity, SemiringId::kMaxMin));
  const DenseBlock unreachable(6, 6, 0.0);
  EXPECT_TRUE(linalg::BlockAllZero(unreachable, SemiringId::kBoolean));
  EXPECT_TRUE(linalg::BlockAllZero(unreachable, SemiringId::kMaxTimes));
  EXPECT_FALSE(linalg::BlockAllZero(unreachable, SemiringId::kMinPlus));
  // Phantom structure is unknown: never claim all-zero (a model run must
  // charge the scan but can never skip).
  EXPECT_FALSE(linalg::BlockAllZero(DenseBlock::Phantom(6, 6),
                                    SemiringId::kMinPlus));
  EXPECT_FALSE(linalg::BlockAllZero(DenseBlock::PackedPhantom(6, 70),
                                    SemiringId::kBoolean));
  // Packed real blocks sweep words, including the non-divisible tail.
  DenseBlock packed = DenseBlock::PackedBoolean(5, 70);
  EXPECT_TRUE(linalg::BlockAllZero(packed, SemiringId::kBoolean));
  packed.SetBit(4, 69, true);
  EXPECT_FALSE(linalg::BlockAllZero(packed, SemiringId::kBoolean));
}

TEST(KsourceEarlyExit, SkipIsBitwiseNoOpInEverySemiring) {
  // On a disconnected graph the early exit actually fires; with it disabled
  // the full phases run. Both paths must produce bitwise-identical panels
  // in every algebra.
  const std::uint64_t seed = 33;
  APSPARK_SEEDED_CASE(seed);
  const graph::Graph g = test::TwoComponentGraph(18, 5, 6);
  const std::vector<graph::VertexId> sources = {0, 3, 20, 35};
  for (const SemiringId id : kAllSemirings) {
    apsp::SolveRequest request{.sources = sources,
                               .cluster = test::TestCluster()};
    request.options.block_size = 9;
    request.options.semiring = id;
    request.options.early_exit_infinite = true;
    auto fast = apsp::Solve(g, request).run;
    request.options.early_exit_infinite = false;
    auto full = apsp::Solve(g, request).run;
    ASSERT_TRUE(fast.status.ok()) << linalg::SemiringName(id);
    ASSERT_TRUE(full.status.ok()) << linalg::SemiringName(id);
    test::ExpectBitwiseEqual(*fast.distances, *full.distances,
                             linalg::SemiringName(id));
  }
}

// ---------------------------------------------------------------------------
// Per-semiring randomized property suites: every fused variant bitwise
// against the scalar oracle.
// ---------------------------------------------------------------------------

TEST(SemiringEngine, FusedProductMatchesOracleAcrossVariants) {
  const std::uint64_t seed = 101;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 60;
  gopts.integer_weights = true;
  for (int round = 0; round < 7; ++round) {
    if (round == 6) {
      // Crosses the tiled kernels' 128-deep k tile.
      gopts.min_vertices = 129;
      gopts.max_vertices = 160;
    }
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const DenseBlock adj = g.ToDenseAdjacency();
    for (const SemiringId id : kAllSemirings) {
      const DenseBlock base = linalg::SemiringAdjacency(adj, id);
      const DenseBlock expected = OracleProduct(id, base, base);
      for (const KernelVariant variant : kAllVariants) {
        linalg::ScopedKernelVariant kernel_scope(variant);
        linalg::ScopedSemiring semiring_scope(id);
        test::ExpectBitwiseEqual(
            linalg::MinPlusProduct(base, base), expected,
            std::string(linalg::SemiringName(id)) + "/" +
                linalg::KernelVariantName(variant));
      }
    }
  }
}

TEST(SemiringEngine, FusedClosureMatchesOracleAcrossVariants) {
  const std::uint64_t seed = 202;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 72;  // crosses fw_block-free and non-divisible sizes
  gopts.integer_weights = true;
  for (int round = 0; round < 7; ++round) {
    if (round == 6) {
      // Crosses the 128-wide closure tile: the blocked 3-phase path.
      gopts.min_vertices = 129;
      gopts.max_vertices = 200;
    }
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const DenseBlock adj = g.ToDenseAdjacency();
    for (const SemiringId id : kAllSemirings) {
      const DenseBlock expected = OracleClosure(adj, id);
      for (const KernelVariant variant : kAllVariants) {
        linalg::ScopedKernelVariant kernel_scope(variant);
        linalg::ScopedSemiring semiring_scope(id);
        DenseBlock m = linalg::SemiringAdjacency(adj, id);
        linalg::FloydWarshallInPlace(m);
        test::ExpectBitwiseEqual(
            m, expected,
            std::string(linalg::SemiringName(id)) + "/" +
                linalg::KernelVariantName(variant));
      }
    }
  }
}

TEST(SemiringEngine, BlockedSolversMatchOracleAcrossVariants) {
  // Solver-level lock: the full blocked engine (decompose, shuffle, fused
  // phases, assemble) under every kernel variant reproduces the scalar
  // oracle bitwise in all four algebras. Block size 20 against n up to 66
  // keeps non-divisible edge tiles in play.
  const std::uint64_t seed = 303;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 66;
  gopts.integer_weights = true;
  for (int round = 0; round < 3; ++round) {
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const DenseBlock expected_adj = g.ToDenseAdjacency();
    for (const SemiringId id : kAllSemirings) {
      const DenseBlock expected = OracleClosure(expected_adj, id);
      for (const KernelVariant variant : kAllVariants) {
        auto cluster = test::TestCluster();
        cluster.kernel_variant = variant;
        apsp::ApspOptions opts;
        opts.block_size = 20;
        opts.semiring = id;
        auto result =
            apsp::Solve(g, {.solver = apsp::SolverKind::kBlockedInMemory,
                            .options = opts, .cluster = cluster})
                .run;
        ASSERT_TRUE(result.status.ok())
            << linalg::SemiringName(id) << ": " << result.status.ToString();
        test::ExpectBitwiseEqual(
            *result.distances, expected,
            std::string(linalg::SemiringName(id)) + "/" +
                linalg::KernelVariantName(variant));
      }
    }
  }
}

TEST(SemiringEngine, AllFourSolversAgreeWithOraclePerSemiring) {
  const std::uint64_t seed = 404;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 48;
  gopts.integer_weights = true;
  const graph::Graph g = test::RandomTestGraph(rng, gopts);
  const DenseBlock adj = g.ToDenseAdjacency();
  for (const SemiringId id : kAllSemirings) {
    const DenseBlock expected = OracleClosure(adj, id);
    for (const apsp::SolverKind kind : apsp::AllSolverKinds()) {
      apsp::ApspOptions opts;
      opts.block_size = 14;
      opts.semiring = id;
      auto result = apsp::Solve(g, {.solver = kind, .options = opts,
                                    .cluster = test::TestCluster()})
                        .run;
      ASSERT_TRUE(result.status.ok())
          << apsp::SolverKindName(kind) << "/" << linalg::SemiringName(id);
      test::ExpectBitwiseEqual(*result.distances, expected,
                               std::string(apsp::SolverKindName(kind)) + "/" +
                                   linalg::SemiringName(id));
    }
  }
}

TEST(SemiringEngine, KsourcePanelsMatchOracleColumns) {
  // The rectangular frontier sweep must agree with the closure oracle
  // column-for-column: panel(v, j) == closure(sources[j], v).
  const std::uint64_t seed = 505;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 56;
  gopts.integer_weights = true;
  for (int round = 0; round < 3; ++round) {
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const std::int64_t n = g.num_vertices();
    std::vector<graph::VertexId> sources;
    for (std::int64_t j = 0; j < std::min<std::int64_t>(5, n); ++j) {
      sources.push_back(static_cast<graph::VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const DenseBlock adj = g.ToDenseAdjacency();
    for (const SemiringId id : kAllSemirings) {
      const DenseBlock closure = OracleClosure(adj, id);
      apsp::SolveRequest request{.sources = sources,
                                 .cluster = test::TestCluster()};
      request.options.block_size = 16;
      request.options.semiring = id;
      request.options.directed = g.directed();
      auto result = apsp::Solve(g, request).run;
      ASSERT_TRUE(result.status.ok()) << linalg::SemiringName(id);
      DenseBlock expected(n, static_cast<std::int64_t>(sources.size()), 0.0);
      for (std::size_t j = 0; j < sources.size(); ++j) {
        for (std::int64_t v = 0; v < n; ++v) {
          expected.Set(v, static_cast<std::int64_t>(j),
                       closure.At(sources[j], v));
        }
      }
      test::ExpectBitwiseEqual(*result.distances, expected,
                               linalg::SemiringName(id));
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-packed boolean plane.
// ---------------------------------------------------------------------------

TEST(BitpackedBoolean, KernelsMatchDenseImages) {
  const std::uint64_t seed = 606;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  linalg::ScopedSemiring semiring_scope(SemiringId::kBoolean);
  // Odd shapes exercise the tail-word masking (cols % 64 != 0).
  for (const std::int64_t n : {7LL, 64LL, 70LL, 129LL}) {
    const DenseBlock a = RandomBooleanDense(rng, n, n);
    const DenseBlock b = RandomBooleanDense(rng, n, n);
    const DenseBlock pa = a.BitPacked();
    const DenseBlock pb = b.BitPacked();
    // Product.
    const DenseBlock dense_prod = linalg::MinPlusProduct(a, b);
    const DenseBlock packed_prod = linalg::MinPlusProduct(pa, pb);
    EXPECT_TRUE(packed_prod.is_packed());
    test::ExpectBitwiseEqual(packed_prod.Unpacked(), dense_prod, "product");
    // Closure.
    DenseBlock dc = a;
    DenseBlock pc = pa;
    linalg::FloydWarshallInPlace(dc);
    linalg::FloydWarshallInPlace(pc);
    EXPECT_TRUE(pc.is_packed());
    test::ExpectBitwiseEqual(pc.Unpacked(), dc, "closure");
    // Element-wise or.
    test::ExpectBitwiseEqual(linalg::ElementMin(pa, pb).Unpacked(),
                             linalg::ElementMin(a, b), "element");
    // Round trips.
    test::ExpectBitwiseEqual(a.BitPacked().Unpacked(), a, "roundtrip");
  }
}

TEST(BitpackedBoolean, MixedRepresentationsAreRejected) {
  linalg::ScopedSemiring semiring_scope(SemiringId::kBoolean);
  const DenseBlock dense(8, 8, 0.0);
  const DenseBlock packed = DenseBlock::PackedBoolean(8, 8);
  EXPECT_THROW(linalg::MinPlusProduct(dense, packed), std::invalid_argument);
  // Packed blocks under a non-boolean semiring make no sense.
  linalg::SetActiveSemiring(SemiringId::kMaxMin);
  EXPECT_THROW(linalg::MinPlusProduct(packed, packed), std::invalid_argument);
}

TEST(BitpackedBoolean, SerializationIsAtLeast8xSmallerAndRoundTrips) {
  const std::uint64_t seed = 707;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  const DenseBlock dense = RandomBooleanDense(rng, 1024, 1024);
  const DenseBlock packed = dense.BitPacked();
  // 64 bits of reachability per word vs one double per entry: 64x payload;
  // the issue's floor is 8x.
  EXPECT_GE(static_cast<double>(dense.SerializedBytes()) /
                static_cast<double>(packed.SerializedBytes()),
            8.0);
  // Packed phantoms account identically to packed real blocks.
  EXPECT_EQ(DenseBlock::PackedPhantom(1024, 1024).SerializedBytes(),
            packed.SerializedBytes());
  BinaryWriter w;
  packed.Serialize(w);
  EXPECT_EQ(w.size(), packed.SerializedBytes());
  BinaryReader r(w.buffer());
  auto copy = DenseBlock::Deserialize(r);
  ASSERT_TRUE(copy.ok());
  EXPECT_TRUE(copy->is_packed());
  test::ExpectBitwiseEqual(*copy, dense, "serialize roundtrip");
}

TEST(BitpackedBoolean, SolverPackedMatchesDenseAndOracle) {
  const std::uint64_t seed = 808;
  APSPARK_SEEDED_CASE(seed);
  Xoshiro256 rng(seed);
  test::RandomGraphOptions gopts;
  gopts.max_vertices = 70;
  for (int round = 0; round < 3; ++round) {
    const graph::Graph g = test::RandomTestGraph(rng, gopts);
    const DenseBlock expected = OracleClosure(g.ToDenseAdjacency(),
                                              SemiringId::kBoolean);
    apsp::ApspOptions opts;
    opts.block_size = 24;
    opts.semiring = SemiringId::kBoolean;
    const auto kind = apsp::SolverKind::kBlockedCollectBroadcast;
    auto packed = apsp::Solve(g, {.solver = kind, .options = opts,
                                  .cluster = test::TestCluster()})
                      .run;
    ASSERT_TRUE(packed.status.ok());
    EXPECT_TRUE(packed.distances->is_packed());
    test::ExpectBitwiseEqual(*packed.distances, expected, "packed vs oracle");
  }
}

TEST(BitpackedBoolean, ModelRunAccountsAtLeast8xLessMemory) {
  // Paper-scale phantom runs must *account* the packed plane: the node
  // memory high water of a bit-packed boolean model run is >= 8x below the
  // dense-double plane of the same geometry (the words are 64x denser; the
  // floor allows for layout overheads).
  apsp::ApspOptions opts;
  opts.block_size = 1024;
  opts.max_rounds = 2;
  const auto kind = apsp::SolverKind::kBlockedInMemory;
  opts.semiring = SemiringId::kMinPlus;
  auto dense = apsp::SolveModel(8192, {.solver = kind, .options = opts,
                                       .cluster = test::TestCluster()})
                   .run;
  opts.semiring = SemiringId::kBoolean;
  auto packed = apsp::SolveModel(8192, {.solver = kind, .options = opts,
                                        .cluster = test::TestCluster()})
                    .run;
  ASSERT_TRUE(dense.status.ok()) << dense.status.ToString();
  ASSERT_TRUE(packed.status.ok()) << packed.status.ToString();
  ASSERT_GT(packed.metrics.node_peak_bytes, 0u);
  EXPECT_GE(static_cast<double>(dense.metrics.node_peak_bytes) /
                static_cast<double>(packed.metrics.node_peak_bytes),
            8.0);
}

}  // namespace
}  // namespace apspark
