// Cluster membership under executor loss: the BlockManager placement map
// and correlated losses (several nodes at one stage boundary).
//
// The load-bearing invariant: placement only decides accounting and modelled
// time — record processing is real and runs in the driver thread — so NO
// loss schedule may change a solver's numeric output. The acceptance tests
// at the bottom drive two losses at one boundary through all four APSP
// solvers and both KSSP data planes and require bitwise equality with the
// scalar oracle and the no-failure run, a placement map with no partition
// on a dead node, and a consistent memory ledger.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "graph/generators.h"
#include "linalg/semiring.h"
#include "sparklet/block_manager.h"
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
using sparklet::BlockManager;
using sparklet::ClusterConfig;
using sparklet::SparkletContext;
using test::ExpectBitwiseEqual;
using test::TestCluster;

std::vector<std::int64_t> Iota(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

// ---------------------------------------------------------------------------
// BlockManager unit behavior
// ---------------------------------------------------------------------------

TEST(BlockManagerTest, UnchangedClusterReproducesRoundRobin) {
  // Least-loaded with lowest-id tie-break must hand out fresh slots exactly
  // like the historical `p % nodes` — that equivalence is what keeps every
  // no-failure run bitwise- and metrics-identical to the static `p % nodes` map.
  const BlockManager bm(4);
  for (std::int64_t p = 0; p < 40; ++p) {
    EXPECT_EQ(bm.NodeOf(p), static_cast<int>(p % 4)) << "partition " << p;
  }
  for (int n = 0; n < 4; ++n) EXPECT_EQ(bm.OwnedSlots(n), 10);
}

TEST(BlockManagerTest, NegativePartitionIdIsRejected) {
  // Regression: the old signed modulo silently returned a negative node
  // index for a negative partition id, poisoning every downstream ledger
  // lookup. The placement map refuses instead.
  const BlockManager bm(2);
  EXPECT_THROW(bm.NodeOf(-1), std::logic_error);
  EXPECT_THROW(bm.NodeOf(-1000), std::logic_error);

  sparklet::VirtualCluster cluster(TestCluster());
  EXPECT_THROW(cluster.NodeOfPartition(-3), std::logic_error);
}

TEST(BlockManagerTest, RemoveNodeSpreadsSlotsAcrossSurvivors) {
  BlockManager bm(3);
  for (std::int64_t p = 0; p < 9; ++p) bm.NodeOf(p);  // 3 slots each
  bm.RemoveNode(1);
  EXPECT_FALSE(bm.alive(1));
  EXPECT_EQ(bm.live_nodes(), 2);
  EXPECT_EQ(bm.OwnedSlots(1), 0);
  // Deterministic spread: 1 -> 0, 4 -> 2, 7 -> 0 (least-loaded, lowest id),
  // leaving a 5/4 split.
  EXPECT_EQ(bm.NodeOf(1), 0);
  EXPECT_EQ(bm.NodeOf(4), 2);
  EXPECT_EQ(bm.NodeOf(7), 0);
  EXPECT_EQ(bm.OwnedSlots(0), 5);
  EXPECT_EQ(bm.OwnedSlots(2), 4);
  for (std::int64_t p = 0; p < 9; ++p) {
    EXPECT_NE(bm.NodeOf(p), 1) << "partition " << p << " on the dead node";
  }
}

TEST(BlockManagerTest, RemoveNodeRefusesCorpsesAndLastSurvivor) {
  BlockManager bm(2);
  bm.RemoveNode(0);
  EXPECT_THROW(bm.RemoveNode(0), std::logic_error);  // already dead
  EXPECT_THROW(bm.RemoveNode(1), std::logic_error);  // last live node
  EXPECT_EQ(bm.live_nodes(), 1);
}

// ---------------------------------------------------------------------------
// Engine-level membership events
// ---------------------------------------------------------------------------

TEST(Membership, TwoLossesAtOneBoundaryKillBothNodes) {
  auto cfg = TestCluster();
  cfg.nodes = 4;
  SparkletContext ctx(cfg);
  auto rdd = ctx.Parallelize("data", Iota(40), 8)->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();

  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(0, s);
  ctx.fault_injector().FailNode(1, s);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.metrics().executor_failures, 2u);
  EXPECT_FALSE(ctx.cluster().placement().alive(0));
  EXPECT_FALSE(ctx.cluster().placement().alive(1));
  EXPECT_EQ(ctx.cluster().live_nodes(), 2);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(0), 0u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);

  // Lineage rebuilds both nodes' partitions on the survivors, bitwise.
  EXPECT_EQ(rdd->Collect(), before);
  EXPECT_GE(ctx.metrics().recomputed_tasks, 4u);
  for (std::int64_t p = 0; p < 8; ++p) {
    EXPECT_GE(ctx.cluster().NodeOfPartition(p), 2) << "partition " << p;
  }
}

TEST(Membership, KillingTheLastLiveNodeIsRefused) {
  SparkletContext ctx(TestCluster());  // 2 nodes
  auto rdd = ctx.Parallelize("data", Iota(20), 4)->Persist();
  rdd->EnsureMaterialized();
  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(0, s);
  ctx.fault_injector().FailNode(1, s + 1);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  ctx.cluster().RunStage({0.0}, "tick");  // would kill the last survivor
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  EXPECT_EQ(ctx.cluster().live_nodes(), 1);
  EXPECT_TRUE(ctx.cluster().placement().alive(1));
  EXPECT_EQ(rdd->Collect(), Iota(20));
}

TEST(Membership, MembershipSurvivesReset) {
  // Reset() rewinds the clock, metrics and storage for a fresh job on the
  // SAME cluster — lost nodes stay lost, exactly like a long-lived Spark
  // cluster running job after job.
  auto cfg = TestCluster();
  cfg.nodes = 3;
  SparkletContext ctx(cfg);
  ctx.fault_injector().FailNode(0, 0);
  ctx.cluster().RunStage({0.0}, "tick");
  ASSERT_EQ(ctx.cluster().live_nodes(), 2);
  ctx.cluster().Reset();
  EXPECT_EQ(ctx.cluster().live_nodes(), 2);
  EXPECT_FALSE(ctx.cluster().placement().alive(0));
  EXPECT_EQ(ctx.metrics().executor_failures, 0u);  // metrics did reset
}

TEST(Membership, LiveTaskSlotsTrackMembership) {
  auto cfg = TestCluster();
  cfg.nodes = 3;  // 2 cores each
  SparkletContext ctx(cfg);
  EXPECT_EQ(ctx.cluster().live_task_slots(), 6);
  ctx.fault_injector().FailNode(2, 0);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.cluster().live_task_slots(), 4);
}

// ---------------------------------------------------------------------------
// Acceptance: two losses at one stage boundary are bitwise-invisible
// ---------------------------------------------------------------------------

Graph IntegerGraph(std::uint64_t seed) {
  const Graph g = graph::PaperErdosRenyi(40, seed);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return gi;
}

DenseBlock Oracle(const Graph& g) {
  DenseBlock d = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(d);
  return d;
}

struct MembershipRun {
  apsp::ApspRunResult result;
  sparklet::SimMetrics metrics;
  bool placement_live = true;   // no partition maps to a dead node
  bool dead_ledgers_empty = true;  // dead nodes hold zero accounted bytes
};

MembershipRun RunApspWithLosses(
    SolverKind kind, const Graph& g, std::int64_t block,
    const std::vector<sparklet::NodeFailurePlan>& fail_nodes,
    std::int64_t checkpoint_every) {
  const BlockLayout layout(g.num_vertices(), block, g.directed());
  auto cfg = TestCluster();
  cfg.nodes = 4;
  SparkletContext ctx(cfg);
  ApspOptions opts;
  opts.block_size = block;
  opts.directed = g.directed();
  opts.checkpoint_every = checkpoint_every;
  opts.fail_nodes = fail_nodes;
  MembershipRun run;
  run.result = apsp::SolveBlocks(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()), kind, opts);
  run.metrics = ctx.metrics();
  const auto& placement = ctx.cluster().placement();
  for (std::int64_t p = 0; p < placement.known_partitions(); ++p) {
    run.placement_live &= placement.alive(placement.NodeOf(p));
  }
  for (int n = 0; n < placement.num_nodes(); ++n) {
    if (!placement.alive(n)) {
      run.dead_ledgers_empty &=
          ctx.cluster().accountant().node_live_bytes(n) == 0;
    }
  }
  return run;
}

TEST(MembershipEndToEnd, TwoLossesAtOneBoundaryAllApspSolversBitwise) {
  const Graph gi = IntegerGraph(31);
  const DenseBlock oracle = Oracle(gi);
  const std::vector<sparklet::NodeFailurePlan> losses = {{0, 10}, {1, 10}};
  for (SolverKind kind : apsp::AllSolverKinds()) {
    const bool pure = apsp::SolverIsPure(kind);
    auto clean = RunApspWithLosses(kind, gi, 10, {}, 0);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApspWithLosses(kind, gi, 10, losses,
                                    /*checkpoint_every=*/pure ? 0 : 1);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 2u) << SolverKindName(kind);
    EXPECT_TRUE(faulty.placement_live)
        << SolverKindName(kind) << ": partition mapped to a dead node";
    EXPECT_TRUE(faulty.dead_ledgers_empty)
        << SolverKindName(kind) << ": dead node still holds accounted bytes";
    if (pure) {
      EXPECT_EQ(faulty.metrics.job_restarts, 0u) << SolverKindName(kind);
    }
  }
}

DenseBlock KsourceOracle(const Graph& g, const std::vector<VertexId>& sources) {
  DenseBlock d = Oracle(g);
  DenseBlock out(g.num_vertices(), static_cast<std::int64_t>(sources.size()),
                 linalg::kInf);
  for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t j = 0; j < sources.size(); ++j) {
      out.Set(v, static_cast<std::int64_t>(j), d.At(sources[j], v));
    }
  }
  return out;
}

TEST(MembershipEndToEnd, TwoLossesAtOneBoundaryBothKsourcePlanesBitwise) {
  const Graph gi = IntegerGraph(37);
  const std::vector<VertexId> sources = {0, 9, 21, 33};
  const DenseBlock oracle = KsourceOracle(gi, sources);
  auto cfg = TestCluster();
  cfg.nodes = 4;
  for (const SolverKind plane : {SolverKind::kBlockedCollectBroadcast,
                                 SolverKind::kBlockedInMemory}) {
    apsp::SolveRequest request{
        .solver = plane, .sources = sources, .cluster = cfg};
    auto& opts = request.options;
    opts.block_size = 10;
    opts.fail_nodes = {{2, 16}, {3, 16}};
    if (!apsp::SolverIsPure(plane)) opts.checkpoint_every = 2;
    auto result = apsp::Solve(gi, request).run;
    ASSERT_TRUE(result.status.ok())
        << SolverKindName(plane) << ": " << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle, SolverKindName(plane));
    EXPECT_EQ(result.metrics.executor_failures, 2u);
    if (apsp::SolverIsPure(plane)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u);
    }
  }
}

}  // namespace
}  // namespace apspark
