// Elastic cluster membership: the BlockManager placement map, rack-scoped
// correlated failures, node joins with data migration, and the multi-tenant
// fair scheduler built on stage traces.
//
// The load-bearing invariant: placement only decides accounting and modelled
// time — record processing is real and runs in the driver thread — so NO
// membership schedule may change a solver's numeric output. The acceptance
// tests at the bottom drive a rack loss plus a replacement join through all
// four APSP solvers and both KSSP data planes and require bitwise equality
// with the scalar oracle and the no-failure run, a placement map with no
// partition on a dead node, and a consistent memory ledger.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "apsp/api.h"
#include "apsp/solvers/ksource_blocked.h"
#include "graph/generators.h"
#include "linalg/kernels.h"
#include "sparklet/block_manager.h"
#include "sparklet/fair_scheduler.h"
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
using sparklet::BlockManager;
using sparklet::ClusterConfig;
using sparklet::FairScheduler;
using sparklet::SparkletContext;
using sparklet::StageKind;
using sparklet::StageRecord;
using sparklet::TenantJob;
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
  // no-failure run bitwise- and metrics-identical to the pre-elastic engine.
  const BlockManager bm(4, 1);
  for (std::int64_t p = 0; p < 40; ++p) {
    EXPECT_EQ(bm.NodeOf(p), static_cast<int>(p % 4)) << "partition " << p;
  }
  for (int n = 0; n < 4; ++n) EXPECT_EQ(bm.OwnedSlots(n), 10);
}

TEST(BlockManagerTest, NegativePartitionIdIsRejected) {
  // Regression: the old signed modulo silently returned a negative node
  // index for a negative partition id, poisoning every downstream ledger
  // lookup. The placement map refuses instead.
  const BlockManager bm(2, 1);
  EXPECT_THROW(bm.NodeOf(-1), std::logic_error);
  EXPECT_THROW(bm.NodeOf(-1000), std::logic_error);

  sparklet::VirtualCluster cluster(TestCluster());
  EXPECT_THROW(cluster.NodeOfPartition(-3), std::logic_error);
}

TEST(BlockManagerTest, RemoveNodeSpreadsSlotsAcrossSurvivors) {
  BlockManager bm(3, 1);
  for (std::int64_t p = 0; p < 9; ++p) bm.NodeOf(p);  // 3 slots each
  const auto moves = bm.RemoveNode(1);
  ASSERT_EQ(moves.size(), 3u);
  for (const auto& move : moves) EXPECT_EQ(move.from, 1);
  EXPECT_FALSE(bm.alive(1));
  EXPECT_EQ(bm.live_nodes(), 2);
  EXPECT_EQ(bm.OwnedSlots(1), 0);
  // Deterministic spread: 1 -> 0, 4 -> 2, 7 -> 0 (least-loaded, lowest id),
  // leaving a 5/4 split.
  EXPECT_EQ(bm.OwnedSlots(0) + bm.OwnedSlots(2), 9);
  EXPECT_LE(std::abs(bm.OwnedSlots(0) - bm.OwnedSlots(2)), 1);
  for (std::int64_t p = 0; p < 9; ++p) {
    EXPECT_NE(bm.NodeOf(p), 1) << "partition " << p << " on the dead node";
  }
}

TEST(BlockManagerTest, RemoveNodeRefusesCorpsesAndLastSurvivor) {
  BlockManager bm(2, 1);
  bm.RemoveNode(0);
  EXPECT_THROW(bm.RemoveNode(0), std::logic_error);  // already dead
  EXPECT_THROW(bm.RemoveNode(1), std::logic_error);  // last live node
  EXPECT_EQ(bm.live_nodes(), 1);
}

TEST(BlockManagerTest, AddNodeStealsFromMostLoadedUntilBalanced) {
  BlockManager bm(2, 1);
  for (std::int64_t p = 0; p < 8; ++p) bm.NodeOf(p);  // 4 slots each
  const auto join = bm.AddNode();
  EXPECT_EQ(join.node, 2);
  EXPECT_EQ(bm.live_nodes(), 3);
  // Greedy steal of the donors' highest-numbered slots until within one
  // slot: 8 slots over 3 nodes settles at 3/3/2.
  ASSERT_EQ(join.moves.size(), 2u);
  EXPECT_EQ(bm.OwnedSlots(2), 2);
  EXPECT_EQ(bm.OwnedSlots(0), 3);
  EXPECT_EQ(bm.OwnedSlots(1), 3);
  for (const auto& move : join.moves) {
    EXPECT_EQ(move.to, 2);
    EXPECT_EQ(bm.NodeOf(move.partition), 2);
  }
  // Determinism: the same history replays to the same placement.
  BlockManager replay(2, 1);
  for (std::int64_t p = 0; p < 8; ++p) replay.NodeOf(p);
  const auto join2 = replay.AddNode();
  ASSERT_EQ(join2.moves.size(), join.moves.size());
  for (std::size_t i = 0; i < join.moves.size(); ++i) {
    EXPECT_EQ(join2.moves[i].partition, join.moves[i].partition);
    EXPECT_EQ(join2.moves[i].from, join.moves[i].from);
  }
}

TEST(BlockManagerTest, RacksAreContiguousBalancedBlocks) {
  const BlockManager bm(8, 3);
  EXPECT_EQ(bm.num_racks(), 3);
  const std::vector<int> expected = {0, 0, 0, 1, 1, 1, 2, 2};
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(bm.rack_of(n), expected[static_cast<std::size_t>(n)])
        << "node " << n;
  }
  EXPECT_EQ(bm.LiveNodesInRack(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(bm.LiveNodesInRack(2), (std::vector<int>{6, 7}));
  EXPECT_THROW(bm.rack_of(8), std::logic_error);
}

TEST(BlockManagerTest, JoinerLandsInLeastPopulatedRack) {
  BlockManager bm(8, 3);  // racks 0/1 have 3 nodes, rack 2 has 2
  const auto join = bm.AddNode();
  EXPECT_EQ(bm.rack_of(join.node), 2);
  // Rack count clamps to the node count; a degenerate config stays sane.
  const BlockManager tiny(2, 5);
  EXPECT_EQ(tiny.num_racks(), 2);
}

// ---------------------------------------------------------------------------
// Engine-level membership events
// ---------------------------------------------------------------------------

TEST(Membership, RackLossKillsEveryLiveNodeOfTheRack) {
  auto cfg = TestCluster();
  cfg.nodes = 4;
  cfg.racks = 2;  // nodes {0,1} in rack 0, {2,3} in rack 1
  SparkletContext ctx(cfg);
  auto rdd = ctx.Parallelize("data", Iota(40), 8)->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();

  ctx.fault_injector().FailRack(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.metrics().executor_failures, 2u);
  EXPECT_FALSE(ctx.cluster().placement().alive(0));
  EXPECT_FALSE(ctx.cluster().placement().alive(1));
  EXPECT_EQ(ctx.cluster().live_nodes(), 2);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(0), 0u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);

  // Lineage rebuilds the rack's partitions on the surviving rack, bitwise.
  EXPECT_EQ(rdd->Collect(), before);
  EXPECT_GE(ctx.metrics().recomputed_tasks, 4u);
  for (std::int64_t p = 0; p < 8; ++p) {
    EXPECT_GE(ctx.cluster().NodeOfPartition(p), 2) << "partition " << p;
  }
}

TEST(Membership, JoinMigratesResidentBytesAndConservesTheLedger) {
  SparkletContext ctx(TestCluster());  // 2 nodes
  auto rdd = ctx.Parallelize("data", Iota(40), 8)->Persist();
  rdd->EnsureMaterialized();
  const auto& acct = ctx.cluster().accountant();
  const auto bytes0 = acct.node_live_bytes(0);
  const auto bytes1 = acct.node_live_bytes(1);
  ASSERT_GT(bytes0, 0u);
  const double clock_before = ctx.now_seconds();

  ctx.fault_injector().AddNode(ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.cluster().live_nodes(), 3);
  EXPECT_EQ(ctx.metrics().node_joins, 1u);
  EXPECT_GT(ctx.metrics().migrated_partitions, 0u);
  // Stolen slots carried their cached partitions: the newcomer holds real
  // bytes, the migration was charged through the network model, and the
  // cluster-wide ledger total is conserved (migration moves, never mints).
  EXPECT_GT(acct.node_live_bytes(2), 0u);
  EXPECT_GT(ctx.metrics().migration_bytes, 0u);
  EXPECT_GT(ctx.metrics().rebalance_seconds, 0.0);
  EXPECT_GT(ctx.now_seconds(), clock_before);
  EXPECT_EQ(acct.node_live_bytes(0) + acct.node_live_bytes(1) +
                acct.node_live_bytes(2),
            bytes0 + bytes1);

  // The data is still the data.
  EXPECT_EQ(rdd->Collect(), Iota(40));
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
  // SAME cluster — nodes lost or joined stay lost or joined, exactly like a
  // long-lived Spark cluster running job after job.
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
  ctx.fault_injector().AddNode(ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.cluster().live_task_slots(), 6);
}

// ---------------------------------------------------------------------------
// FairScheduler: fair sharing + memory admission over stage traces
// ---------------------------------------------------------------------------

StageRecord MakeStage(const std::string& name, int tasks, double cost,
                      std::uint64_t peak_bytes) {
  StageRecord stage;
  stage.name = name;
  stage.task_seconds.assign(static_cast<std::size_t>(tasks), cost);
  stage.node_peak_bytes = peak_bytes;
  return stage;
}

TEST(FairSchedulerTest, SplitsSlotsEvenlyAcrossActiveTenants) {
  auto cfg = TestCluster();  // 2 nodes x 2 cores = 4 slots
  FairScheduler scheduler(cfg);
  TenantJob a{"a", {MakeStage("a0", 8, 1.0, 0)}};
  TenantJob b{"b", {MakeStage("b0", 8, 1.0, 0)}};
  const auto report = scheduler.Run({a, b});
  // Both admitted immediately, each on half the slots: 8 tasks x 1s on 2
  // slots = 4s, concurrently.
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 4.0);
  EXPECT_DOUBLE_EQ(report.admission_wait_seconds, 0.0);
  EXPECT_EQ(report.spilled_bytes, 0u);
  ASSERT_EQ(report.job_min_slots.size(), 2u);
  EXPECT_EQ(report.job_min_slots[0], 2);
  EXPECT_EQ(report.job_min_slots[1], 2);
  // Work conservation: perfectly divisible identical jobs tie the serial
  // baseline (8+8 tasks on 4 slots = 4s either way).
  EXPECT_DOUBLE_EQ(report.serial_seconds, 4.0);
}

TEST(FairSchedulerTest, MemoryAdmissionMakesTheSecondTenantWait) {
  auto cfg = TestCluster();
  cfg.executor_memory_bytes = 100;
  FairScheduler scheduler(cfg);
  // Each stage demands 60% of the budget: they cannot overlap.
  TenantJob a{"a", {MakeStage("a0", 4, 1.0, 60)}};
  TenantJob b{"b", {MakeStage("b0", 4, 1.0, 60)}};
  const auto report = scheduler.Run({a, b});
  // Job a runs alone on all 4 slots (1s), then b does the same.
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report.job_admission_wait_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(report.job_admission_wait_seconds[1], 1.0);
  EXPECT_DOUBLE_EQ(report.admission_wait_seconds, 1.0);
  EXPECT_EQ(report.spilled_bytes, 0u);
  EXPECT_LT(report.job_finish_seconds[0], report.job_finish_seconds[1]);
  // Solo each job gets all 4 slots even under admission.
  EXPECT_EQ(report.job_min_slots[0], 4);
  EXPECT_EQ(report.job_min_slots[1], 4);
}

TEST(FairSchedulerTest, OversizedTenantForceAdmittedWithSpill) {
  auto cfg = TestCluster();
  cfg.executor_memory_bytes = 100;
  cfg.local_storage_bandwidth_bytes_per_sec = 50.0;
  FairScheduler scheduler(cfg);
  // A lone tenant larger than the whole budget must degrade, not deadlock:
  // force-admitted, overflow spilled at storage bandwidth.
  TenantJob big{"big", {MakeStage("b0", 4, 1.0, 250)}};
  sparklet::SimMetrics metrics;
  const auto report = scheduler.Run({big}, &metrics);
  EXPECT_EQ(report.spilled_bytes, 150u);
  // 4 tasks x 1s on 4 slots = 1s, plus 150 bytes / 50 B/s of spill.
  EXPECT_DOUBLE_EQ(report.makespan_seconds, 4.0);
  EXPECT_EQ(metrics.spilled_bytes, 150u);
  EXPECT_DOUBLE_EQ(metrics.admission_wait_seconds, 0.0);
}

TEST(FairSchedulerTest, ReplayedSoloTraceMatchesTheSoloRun) {
  // A single tenant replayed through the scheduler must reproduce the solo
  // run's stage clock exactly: trace in, same virtual seconds out.
  auto cfg = TestCluster();
  sparklet::VirtualCluster cluster(cfg);
  cluster.EnableStageTrace();
  cluster.RunStage(std::vector<double>(8, 0.5), "s0");
  cluster.RunStage(std::vector<double>(4, 1.0), "s1");
  const double solo_seconds = cluster.now_seconds();
  TenantJob job{"solo", cluster.stage_trace()};
  FairScheduler scheduler(cfg);
  const auto report = scheduler.Run({job});
  EXPECT_DOUBLE_EQ(report.makespan_seconds, solo_seconds);
  EXPECT_DOUBLE_EQ(report.serial_seconds, solo_seconds);
}

// ---------------------------------------------------------------------------
// Acceptance: a rack loss plus a replacement join is bitwise-invisible
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
  linalg::ReferenceFloydWarshall(d);
  return d;
}

struct MembershipRun {
  apsp::ApspRunResult result;
  sparklet::SimMetrics metrics;
  bool placement_live = true;   // no partition maps to a dead node
  bool dead_ledgers_empty = true;  // dead nodes hold zero accounted bytes
};

MembershipRun RunApspWithMembership(
    SolverKind kind, const Graph& g, std::int64_t block,
    const std::vector<sparklet::RackFailurePlan>& fail_racks,
    const std::vector<std::int64_t>& add_nodes, std::int64_t checkpoint_every) {
  const BlockLayout layout(g.num_vertices(), block, g.directed());
  auto cfg = TestCluster();
  cfg.nodes = 4;
  cfg.racks = 2;
  SparkletContext ctx(cfg);
  ApspOptions opts;
  opts.block_size = block;
  opts.directed = g.directed();
  opts.checkpoint_every = checkpoint_every;
  opts.fail_racks = fail_racks;
  opts.add_nodes = add_nodes;
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

TEST(MembershipEndToEnd, RackLossAndJoinAllApspSolversBitwise) {
  const Graph gi = IntegerGraph(31);
  const DenseBlock oracle = Oracle(gi);
  const std::vector<sparklet::RackFailurePlan> rack_loss = {{0, 10}};
  const std::vector<std::int64_t> joins = {14};
  for (SolverKind kind : apsp::AllSolverKinds()) {
    const bool pure = apsp::SolverIsPure(kind);
    auto clean = RunApspWithMembership(kind, gi, 10, {}, {}, 0);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApspWithMembership(kind, gi, 10, rack_loss, joins,
                                        /*checkpoint_every=*/pure ? 0 : 1);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 2u) << SolverKindName(kind);
    EXPECT_EQ(faulty.metrics.node_joins, 1u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.migrated_partitions, 0u) << SolverKindName(kind);
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

TEST(MembershipEndToEnd, RackLossAndJoinBothKsourcePlanesBitwise) {
  const Graph gi = IntegerGraph(37);
  const std::vector<VertexId> sources = {0, 9, 21, 33};
  const DenseBlock oracle = KsourceOracle(gi, sources);
  auto cfg = TestCluster();
  cfg.nodes = 4;
  cfg.racks = 2;
  for (const KsourceVariant variant : {KsourceVariant::kStagedStorage,
                                       KsourceVariant::kShuffleReplicated}) {
    KsourceOptions opts;
    opts.block_size = 10;
    opts.fail_racks = {{1, 16}};
    opts.add_nodes = {20};
    if (!KsourceBlockedSolver::Pure(variant)) opts.checkpoint_every = 2;
    opts.variant = variant;
    KsourceBlockedSolver solver;
    auto result = solver.SolveGraph(gi, sources, opts, cfg);
    ASSERT_TRUE(result.status.ok())
        << apsp::KsourceVariantName(variant) << ": "
        << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle,
                       apsp::KsourceVariantName(variant));
    EXPECT_EQ(result.metrics.executor_failures, 2u);
    EXPECT_EQ(result.metrics.node_joins, 1u);
    if (KsourceBlockedSolver::Pure(variant)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u);
    }
  }
}

}  // namespace
}  // namespace apspark
