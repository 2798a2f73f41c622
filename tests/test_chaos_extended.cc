// Extended node-loss chaos harness (ctest label: chaos-extended).
//
// Thirty seeded schedules of executor losses — each with at least two
// nodes lost at one stage boundary, the rest at random boundaries, on
// random cluster sizes — driven through all four APSP solvers and both KSSP
// data planes. Every run must stay bitwise-equal to the scalar oracle
// (integer weights make every path sum exact), pure solvers must never
// restart, and the final placement must never map a partition to a dead
// node. Schedules are free to be hostile: plans targeting already-dead
// nodes are no-ops and the engine refuses to kill its last live node, so
// any random schedule is survivable by construction — what is being tested
// is that survival is bitwise-invisible.
//
// Runs as a separate CI step: ctest -L chaos-extended. Each case reports
// its seed on failure (APSPARK_SEEDED_CASE) for local replay.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "graph/generators.h"
#include "linalg/semiring.h"
#include "sparklet/rdd.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::BlockLayout;
using apsp::SolverKind;
using apsp::SolverKindName;
using graph::Graph;
using graph::VertexId;
using linalg::DenseBlock;
using sparklet::ClusterConfig;
using sparklet::SparkletContext;
using test::ExpectBitwiseEqual;
using test::TestCluster;

Graph IntegerGraph(Xoshiro256& rng) {
  test::RandomGraphOptions opts;
  opts.min_vertices = 16;
  opts.max_vertices = 40;
  opts.integer_weights = true;
  return test::RandomTestGraph(rng, opts);
}

DenseBlock Oracle(const Graph& g) {
  DenseBlock d = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(d);
  return d;
}

/// One random loss schedule: the cluster size and 2-4 node losses at random
/// early stage boundaries, the first two at the same boundary on distinct
/// nodes (a correlated loss).
struct LossSchedule {
  int nodes = 2;
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
};

LossSchedule DrawSchedule(Xoshiro256& rng) {
  LossSchedule s;
  s.nodes = 3 + static_cast<int>(rng.NextBounded(3));  // 3..5
  const auto nodes = static_cast<std::uint64_t>(s.nodes);
  const int losses = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  const auto pair_stage = static_cast<std::int64_t>(rng.NextBounded(40));
  const auto first = static_cast<int>(rng.NextBounded(nodes));
  const auto second =
      (first + 1 + static_cast<int>(rng.NextBounded(nodes - 1))) % s.nodes;
  s.fail_nodes.push_back({first, pair_stage});
  s.fail_nodes.push_back({second, pair_stage});
  for (int i = 2; i < losses; ++i) {
    s.fail_nodes.push_back({static_cast<int>(rng.NextBounded(nodes)),
                            static_cast<std::int64_t>(rng.NextBounded(40))});
  }
  return s;
}

ClusterConfig ChaosCluster(const LossSchedule& s) {
  auto cfg = TestCluster();
  cfg.nodes = s.nodes;
  return cfg;
}

TEST(ChaosExtended, SeededMembershipSchedulesAllApspSolversBitwise) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 15485863);
    const Graph g = IntegerGraph(rng);
    const DenseBlock oracle = Oracle(g);
    const std::int64_t block =
        4 + static_cast<std::int64_t>(rng.NextBounded(13));  // 4..16
    const LossSchedule schedule = DrawSchedule(rng);
    // One solver per seed keeps the 30-schedule sweep fast while the seeds
    // rotate through all four kinds.
    const auto kinds = apsp::AllSolverKinds();
    const SolverKind kind = kinds[(seed - 1) % kinds.size()];
    const bool pure = apsp::SolverIsPure(kind);

    const BlockLayout layout(g.num_vertices(), block, g.directed());
    SparkletContext ctx(ChaosCluster(schedule));
    ApspOptions opts;
    opts.block_size = block;
    opts.directed = g.directed();
    opts.checkpoint_every = pure ? 0 : 1;
    opts.fail_nodes = schedule.fail_nodes;
    auto result = apsp::SolveBlocks(
        ctx, layout, layout.Decompose(g.ToDenseAdjacency()), kind, opts);
    ASSERT_TRUE(result.status.ok())
        << SolverKindName(kind) << " seed " << seed << ": "
        << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle,
                       std::string(SolverKindName(kind)) + " seed " +
                           std::to_string(seed));
    if (pure) {
      EXPECT_EQ(ctx.metrics().job_restarts, 0u)
          << SolverKindName(kind) << " seed " << seed;
    }
    // The rehomed placement never points at a corpse, and dead nodes
    // hold no accounted bytes.
    const auto& placement = ctx.cluster().placement();
    for (std::int64_t p = 0; p < placement.known_partitions(); ++p) {
      ASSERT_TRUE(placement.alive(placement.NodeOf(p)))
          << "seed " << seed << ": partition " << p << " on a dead node";
    }
    for (int n = 0; n < placement.num_nodes(); ++n) {
      if (!placement.alive(n)) {
        EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(n), 0u)
            << "seed " << seed << ": dead node " << n << " holds bytes";
      }
    }
  }
}

TEST(ChaosExtended, SeededMembershipSchedulesBothKsourcePlanesBitwise) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 32452843);
    const Graph g = IntegerGraph(rng);
    const std::int64_t n = g.num_vertices();
    std::vector<VertexId> sources;
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    for (int j = 0; j < k; ++j) {
      sources.push_back(static_cast<VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    DenseBlock full = Oracle(g);
    DenseBlock oracle(n, static_cast<std::int64_t>(sources.size()),
                      linalg::kInf);
    for (std::int64_t v = 0; v < n; ++v) {
      for (std::size_t j = 0; j < sources.size(); ++j) {
        oracle.Set(v, static_cast<std::int64_t>(j), full.At(sources[j], v));
      }
    }
    const LossSchedule schedule = DrawSchedule(rng);
    const SolverKind plane = seed % 2 == 0
                                 ? SolverKind::kBlockedCollectBroadcast
                                 : SolverKind::kBlockedInMemory;
    apsp::SolveRequest request{.solver = plane,
                               .sources = sources,
                               .cluster = ChaosCluster(schedule)};
    auto& opts = request.options;
    opts.block_size = 4 + static_cast<std::int64_t>(rng.NextBounded(13));
    opts.directed = g.directed();
    opts.fail_nodes = schedule.fail_nodes;
    if (!apsp::SolverIsPure(plane)) opts.checkpoint_every = 1;
    auto result = apsp::Solve(g, request).run;
    ASSERT_TRUE(result.status.ok())
        << SolverKindName(plane) << " seed " << seed << ": "
        << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle,
                       std::string(SolverKindName(plane)) + " seed " +
                           std::to_string(seed));
    if (apsp::SolverIsPure(plane)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u)
          << "seed " << seed << ": pure plane must recover in place";
    }
  }
}

}  // namespace
}  // namespace apspark
