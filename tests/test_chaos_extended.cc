// Extended membership chaos harness (ctest label: chaos-extended).
//
// Thirty seeded schedules mixing single-node losses, correlated rack
// losses, and elastic node joins — fired at random stage boundaries on
// random topologies — driven through all four APSP solvers and both KSSP
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
#include "apsp/solvers/ksource_blocked.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "sparklet/rdd.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::BlockLayout;
using apsp::KsourceBlockedSolver;
using apsp::KsourceOptions;
using apsp::KsourceVariant;
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
  linalg::ReferenceFloydWarshall(d);
  return d;
}

/// One random membership schedule: the cluster shape and 2-4 events (node
/// loss, rack loss, or join) at random early stage boundaries.
struct MembershipSchedule {
  int nodes = 2;
  int racks = 1;
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  std::vector<sparklet::RackFailurePlan> fail_racks;
  std::vector<std::int64_t> add_nodes;
};

MembershipSchedule DrawSchedule(Xoshiro256& rng) {
  MembershipSchedule s;
  s.nodes = 3 + static_cast<int>(rng.NextBounded(3));  // 3..5
  s.racks = 1 + static_cast<int>(rng.NextBounded(
                    static_cast<std::uint64_t>(s.nodes / 2 + 1)));
  const int events = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4
  for (int i = 0; i < events; ++i) {
    const auto at_stage = static_cast<std::int64_t>(rng.NextBounded(40));
    switch (rng.NextBounded(3)) {
      case 0:
        s.fail_nodes.push_back(
            {static_cast<int>(
                 rng.NextBounded(static_cast<std::uint64_t>(s.nodes))),
             at_stage});
        break;
      case 1:
        s.fail_racks.push_back(
            {static_cast<int>(
                 rng.NextBounded(static_cast<std::uint64_t>(s.racks))),
             at_stage});
        break;
      default:
        s.add_nodes.push_back(at_stage);
        break;
    }
  }
  return s;
}

ClusterConfig ChaosCluster(const MembershipSchedule& s) {
  auto cfg = TestCluster();
  cfg.nodes = s.nodes;
  cfg.racks = s.racks;
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
    const MembershipSchedule schedule = DrawSchedule(rng);
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
    opts.fail_racks = schedule.fail_racks;
    opts.add_nodes = schedule.add_nodes;
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
    // The rebalanced placement never points at a corpse, and dead nodes
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
    const MembershipSchedule schedule = DrawSchedule(rng);
    const KsourceVariant variant = seed % 2 == 0
                                       ? KsourceVariant::kStagedStorage
                                       : KsourceVariant::kShuffleReplicated;
    KsourceOptions opts;
    opts.block_size = 4 + static_cast<std::int64_t>(rng.NextBounded(13));
    opts.variant = variant;
    opts.directed = g.directed();
    opts.fail_nodes = schedule.fail_nodes;
    opts.fail_racks = schedule.fail_racks;
    opts.add_nodes = schedule.add_nodes;
    if (!KsourceBlockedSolver::Pure(variant)) opts.checkpoint_every = 1;
    KsourceBlockedSolver solver;
    auto result = solver.SolveGraph(g, sources, opts, ChaosCluster(schedule));
    ASSERT_TRUE(result.status.ok())
        << apsp::KsourceVariantName(variant) << " seed " << seed << ": "
        << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle,
                       std::string(apsp::KsourceVariantName(variant)) +
                           " seed " + std::to_string(seed));
    if (KsourceBlockedSolver::Pure(variant)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u)
          << "seed " << seed << ": pure plane must recover in place";
    }
  }
}

}  // namespace
}  // namespace apspark
