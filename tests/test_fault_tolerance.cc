// Fault-tolerance subsystem: executor-loss simulation, lineage-driven
// recovery, checkpoint restart, and the seeded chaos harness.
//
// The paper's qualitative claim (§3, §4.5) is demonstrated end to end here:
// solvers built purely from RDD transformations (2D Floyd-Warshall,
// Blocked-IM, the shuffle-replicated KSSP plane) survive an injected
// executor loss by lineage recomputation — in place, no restart — while
// solvers that smuggle pivot data through shared persistent storage
// (Blocked-CB, Repeated Squaring, staged KSSP) abort with DATA_LOSS and
// complete through a checkpoint restart instead. Either way the result must
// be *bitwise* identical to the no-failure run and to the scalar oracle
// (integer weights make every path sum exact).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apsp/checkpoint.h"
#include "apsp/api.h"
#include "apsp/tuner.h"
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
using sparklet::FaultInjector;
using sparklet::SparkletAbort;
using sparklet::SparkletContext;
using test::ExpectBitwiseEqual;
using test::RandomTestGraph;
using test::TestCluster;

using IntPair = std::pair<std::int64_t, std::int64_t>;

std::vector<std::int64_t> Iota(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

/// Integer-weight random graph: bitwise-exact oracle comparisons.
Graph IntegerGraph(Xoshiro256& rng) {
  test::RandomGraphOptions opts;
  opts.min_vertices = 16;
  opts.max_vertices = 48;
  opts.integer_weights = true;
  return RandomTestGraph(rng, opts);
}

DenseBlock Oracle(const Graph& g) {
  DenseBlock d = g.ToDenseAdjacency();
  linalg::SemiringClosure<linalg::MinPlusSemiring>(d);
  return d;
}

// ---------------------------------------------------------------------------
// FaultInjector node plans
// ---------------------------------------------------------------------------

TEST(FaultInjectorNodePlans, FiresOnceAtArmedStage) {
  FaultInjector injector;
  injector.FailNode(1, 5);
  injector.FailNode(0, 7);
  EXPECT_FALSE(injector.empty());
  EXPECT_TRUE(injector.TakeNodeFailuresAt(4).empty());
  const auto at5 = injector.TakeNodeFailuresAt(5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0], 1);
  // Consumed: the same boundary yields nothing more.
  EXPECT_TRUE(injector.TakeNodeFailuresAt(5).empty());
  const auto at9 = injector.TakeNodeFailuresAt(9);
  ASSERT_EQ(at9.size(), 1u);
  EXPECT_EQ(at9[0], 0);
  EXPECT_TRUE(injector.empty());
  EXPECT_EQ(injector.injected_node_count(), 2u);
}

TEST(FaultInjectorNodePlans, LatePlansFireAtNextBoundary) {
  FaultInjector injector;
  injector.FailNode(0, 3);  // armed for a stage that already passed
  const auto fired = injector.TakeNodeFailuresAt(10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0);
}

TEST(FaultInjectorNodePlans, ClearDropsNodePlans) {
  FaultInjector injector;
  injector.FailNode(1, 2);
  injector.FailTask("x", 0);
  injector.Clear();
  EXPECT_TRUE(injector.empty());
  EXPECT_TRUE(injector.TakeNodeFailuresAt(100).empty());
}

TEST(FaultInjectorNodePlans, SameNodeMayFailRepeatedly) {
  FaultInjector injector;
  injector.FailNode(1, 2);
  injector.FailNode(1, 6);
  EXPECT_EQ(injector.TakeNodeFailuresAt(2).size(), 1u);
  EXPECT_EQ(injector.TakeNodeFailuresAt(6).size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine-level recovery
// ---------------------------------------------------------------------------

TEST(NodeLoss, DropsCachedPartitionsAndRecomputesThroughLineage) {
  SparkletContext ctx(TestCluster());
  auto rdd = ctx.Parallelize("data", Iota(40), 4)
                 ->Map("double",
                       [](const std::int64_t& x, sparklet::TaskContext&) {
                         return 2 * x;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();
  // Partitions 1 and 3 live on node 1 of the 2-node test cluster.
  EXPECT_GT(ctx.cluster().accountant().node_live_bytes(1), 0u);
  EXPECT_EQ(ctx.cluster().NodeOfPartition(1), 1);
  EXPECT_EQ(ctx.cluster().NodeOfPartition(3), 1);

  ctx.fault_injector().FailNode(1, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");  // boundary: the loss fires
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);
  EXPECT_EQ(ctx.cluster().LocalStorageUsed(1), 0u);
  // The dead node leaves the cluster for good and its slots (1 and 3) are
  // rehomed onto the survivor.
  EXPECT_FALSE(ctx.cluster().placement().alive(1));
  EXPECT_EQ(ctx.cluster().live_nodes(), 1);
  EXPECT_EQ(ctx.cluster().NodeOfPartition(1), 0);
  EXPECT_EQ(ctx.cluster().NodeOfPartition(3), 0);

  const auto after = rdd->Collect();
  EXPECT_EQ(before, after);
  EXPECT_GE(ctx.metrics().recomputed_tasks, 2u);  // partitions 1 and 3
  EXPECT_GT(ctx.metrics().recovery_seconds, 0.0);
  // Recomputed and re-cached on the surviving node: no partition maps to
  // the dead node afterwards, and the dead node's ledger stays empty.
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), 0u);
  EXPECT_GT(ctx.cluster().accountant().node_live_bytes(0), 0u);
  for (std::int64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(ctx.cluster().NodeOfPartition(p), 0) << "partition " << p;
  }
}

TEST(NodeLoss, LostMapOutputsReplayBeforeReduceRecompute) {
  SparkletContext ctx(TestCluster());
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i * 3});
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  const auto stages_before = ctx.metrics().stages;
  auto before = shuffled->Collect();

  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  ASSERT_EQ(ctx.metrics().executor_failures, 1u);

  // The reduce partitions on node 0 were dropped; recomputing them finds
  // the map outputs from node 0 lost as well and replays those map tasks
  // first (a recovery stage), then rebuilds the reduce partitions from the
  // repaired files.
  auto after = shuffled->Collect();
  auto key_sorted = [](std::vector<IntPair> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(key_sorted(before), key_sorted(after));
  EXPECT_GT(ctx.metrics().stages, stages_before);
  EXPECT_GT(ctx.metrics().recomputed_tasks, 0u);
  EXPECT_GT(ctx.metrics().recovery_seconds, 0.0);
}

TEST(NodeLoss, LossAtReplayBoundaryForcesSecondReplay) {
  // A dead node stays dead, so the mid-recovery
  // second hit comes from a DIFFERENT node: node 0 dies at the next
  // boundary, node 1 at the boundary right after — which is the replay
  // stage itself. The second loss destroys outputs the first replay just
  // rebuilt (the slots had been rehomed onto node 1); they must stay lost
  // (loss epochs) and a second replay round must run before the reduce
  // side reads the files.
  auto cfg = TestCluster();
  cfg.nodes = 3;
  SparkletContext ctx(cfg);
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i * 5});
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  auto before = shuffled->Collect();

  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(0, s);
  ctx.fault_injector().FailNode(1, s + 1);
  ctx.cluster().RunStage({0.0}, "tick");
  ASSERT_EQ(ctx.metrics().executor_failures, 1u);

  auto after = shuffled->Collect();
  auto key_sorted = [](std::vector<IntPair> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(key_sorted(before), key_sorted(after));
  EXPECT_EQ(ctx.metrics().executor_failures, 2u);
  // Node 0 held map partitions 0 and 3; the second loss re-destroys the
  // rehomed replays plus node 1's own partition, so at least two replay
  // rounds run, and the dropped reduce partitions recompute on top.
  EXPECT_GE(ctx.metrics().recomputed_tasks, 4u);
  // Everything ends on the sole survivor.
  EXPECT_EQ(ctx.cluster().live_nodes(), 1);
  for (std::int64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(ctx.cluster().NodeOfPartition(p), 2) << "partition " << p;
  }
}

TEST(NodeLoss, BackToBackSameNodeLossesSecondIsNoOp) {
  // A node dies once. A second plan for the same node at the very next
  // boundary finds it already dead and must be a no-op — no double-counted
  // failure, no second rehoming.
  auto cfg = TestCluster();
  cfg.nodes = 3;
  SparkletContext ctx(cfg);
  auto rdd = ctx.Parallelize("data", Iota(30), 6)->Persist();
  rdd->EnsureMaterialized();
  const auto before = rdd->Collect();

  const auto s = static_cast<std::int64_t>(ctx.metrics().stages);
  ctx.fault_injector().FailNode(1, s);
  ctx.fault_injector().FailNode(1, s + 1);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  std::vector<int> owners_once;
  for (std::int64_t p = 0; p < 6; ++p) {
    owners_once.push_back(ctx.cluster().NodeOfPartition(p));
    EXPECT_NE(owners_once.back(), 1) << "partition " << p;
  }
  ctx.cluster().RunStage({0.0}, "tick");  // second plan fires into a corpse
  EXPECT_EQ(ctx.metrics().executor_failures, 1u);
  for (std::int64_t p = 0; p < 6; ++p) {
    EXPECT_EQ(ctx.cluster().NodeOfPartition(p),
              owners_once[static_cast<std::size_t>(p)])
        << "partition " << p;
  }
  EXPECT_EQ(ctx.cluster().live_nodes(), 2);

  EXPECT_EQ(rdd->Collect(), before);
}

TEST(NodeLoss, ImpureMapSideAbortsWithDataLoss) {
  SparkletContext ctx(TestCluster());
  ctx.DriverWriteShared("side-channel", std::vector<std::uint8_t>(8, 1),
                        1024);
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 20; ++i) data.push_back({i, i});
  // The map side of this shuffle reads the side channel: replaying it after
  // an executor loss is not sound, so recovery must refuse.
  auto tainted = ctx.Parallelize("pairs", data, 4)
                     ->Map("read-side",
                           [](const IntPair& rec, sparklet::TaskContext& tc) {
                             auto obj = tc.ReadShared("side-channel");
                             EXPECT_TRUE(obj.ok());
                             return rec;
                           });
  auto shuffled =
      PartitionBy(tainted, sparklet::MakePortableHash<std::int64_t>(4),
                  "tainted-by");
  shuffled->EnsureMaterialized();

  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  try {
    shuffled->Collect();
    FAIL() << "expected SparkletAbort(DATA_LOSS)";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kDataLoss);
  }
}

TEST(NodeLoss, LostCachedPartitionWithSideChannelReadsAbortsWithDataLoss) {
  SparkletContext ctx(TestCluster());
  ctx.DriverWriteShared("side-channel", std::vector<std::uint8_t>(8, 1),
                        1024);
  auto rdd = ctx.Parallelize("data", Iota(20), 4)
                 ->Map("read-side",
                       [](const std::int64_t& x, sparklet::TaskContext& tc) {
                         auto obj = tc.ReadShared("side-channel");
                         EXPECT_TRUE(obj.ok());
                         return x + 1;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  ctx.fault_injector().FailNode(1, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  try {
    rdd->Collect();
    FAIL() << "expected SparkletAbort(DATA_LOSS)";
  } catch (const SparkletAbort& abort) {
    EXPECT_EQ(abort.status().code(), StatusCode::kDataLoss);
  }
}

TEST(NodeLoss, LostCachedPartitionReplaysWhileItsStagedBlocksAreUnchanged) {
  // Every staged block carries the generation of the write that stored it.
  // A replay that reads the generations the original task read reads the
  // very same blocks, so the lost partition recomputes in place; a block
  // rewritten between the loss and the replay makes it unsound again.
  for (const bool rewrite : {false, true}) {
    SCOPED_TRACE(rewrite ? "rewritten" : "unchanged");
    SparkletContext ctx(TestCluster());
    ctx.DriverWriteSharedBlock("staged", DenseBlock(2, 2, 1.0));
    auto rdd = ctx.Parallelize("data", Iota(20), 4)
                   ->Map("read-staged",
                         [](const std::int64_t& x, sparklet::TaskContext& tc) {
                           EXPECT_TRUE(tc.ReadSharedBlock("staged").ok());
                           return x + 1;
                         })
                   ->Persist();
    const auto before = rdd->Collect();
    ctx.fault_injector().FailNode(1, ctx.metrics().stages);
    ctx.cluster().RunStage({0.0}, "tick");
    ASSERT_EQ(ctx.metrics().executor_failures, 1u);
    if (rewrite) ctx.DriverWriteSharedBlock("staged", DenseBlock(2, 2, 1.0));
    try {
      EXPECT_EQ(rdd->Collect(), before);
      EXPECT_FALSE(rewrite) << "expected SparkletAbort(DATA_LOSS)";
      EXPECT_GT(ctx.metrics().recomputed_tasks, 0u);
    } catch (const SparkletAbort& abort) {
      EXPECT_TRUE(rewrite) << abort.status().ToString();
      EXPECT_EQ(abort.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(NodeLoss, PreservedShuffleBucketsAccountedToOwningNode) {
  SparkletContext ctx(TestCluster());
  std::vector<IntPair> data;
  for (std::int64_t i = 0; i < 60; ++i) data.push_back({i, i});
  const auto live0_before = ctx.cluster().accountant().node_live_bytes(0);
  auto shuffled =
      PartitionBy(ctx.Parallelize("pairs", data, 4),
                  sparklet::MakePortableHash<std::int64_t>(4));
  shuffled->EnsureMaterialized();
  // Map partitions 0 and 2 ran on node 0: their preserved output bytes are
  // resident there (block-manager accounting), on top of cached partitions.
  const auto live0_after = ctx.cluster().accountant().node_live_bytes(0);
  EXPECT_GT(live0_after, live0_before);

  // Node loss releases the node's share of the preserved buckets (and its
  // cached partitions) without touching the other node's residency.
  const auto live1 = ctx.cluster().accountant().node_live_bytes(1);
  ctx.fault_injector().FailNode(0, ctx.metrics().stages);
  ctx.cluster().RunStage({0.0}, "tick");
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(0), 0u);
  EXPECT_EQ(ctx.cluster().accountant().node_live_bytes(1), live1);
}

TEST(StageKeys, RecoveryRerunsGetDistinctStageKeys) {
  SparkletContext ctx(TestCluster());
  ctx.cluster().EnableStageTrace();
  auto rdd = ctx.Parallelize("data", Iota(24), 4)
                 ->Map("stamp",
                       [](const std::int64_t& x, sparklet::TaskContext& tc) {
                         tc.ChargeCompute(1e-6);
                         return x;
                       })
                 ->Persist();
  rdd->EnsureMaterialized();
  rdd->DropPartition(1);
  rdd->EnsureMaterialized();
  rdd->DropPartition(2);
  rdd->EnsureMaterialized();
  // Each re-materialization suffixes the retry attempt, so per-stage
  // records of the stage trace never collide.
  int base = 0, r1 = 0, r2 = 0;
  for (const auto& stage : ctx.cluster().stage_trace()) {
    if (stage.name == "stamp") ++base;
    if (stage.name == "stamp#r1") ++r1;
    if (stage.name == "stamp#r2") ++r2;
  }
  EXPECT_EQ(base, 1) << "original stage key must appear exactly once";
  EXPECT_EQ(r1, 1) << "first re-run must be suffixed #r1";
  EXPECT_EQ(r2, 1) << "second re-run must be suffixed #r2";
}

TEST(Checkpoint, RoundTripsFrontierPanels) {
  const Graph g = graph::PaperErdosRenyi(24, 7);
  const BlockLayout layout(24, 8);
  SparkletContext ctx(TestCluster());
  const auto blocks = layout.Decompose(g.ToDenseAdjacency());
  std::vector<apsp::PanelRecord> panels;
  for (std::int64_t i = 0; i < layout.q(); ++i) {
    DenseBlock p(layout.BlockDim(i), 3, 1.5 * static_cast<double>(i + 1));
    panels.push_back({i, linalg::MakeRef(std::move(p))});
  }
  apsp::SaveCheckpoint(ctx, layout, blocks, 2, panels);
  auto loaded = apsp::LoadCheckpoint(ctx, layout);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_round, 2);
  ASSERT_EQ(loaded->panels.size(), panels.size());
  for (std::size_t i = 0; i < panels.size(); ++i) {
    EXPECT_EQ(loaded->panels[i].first, panels[i].first);
    ExpectBitwiseEqual(*loaded->panels[i].second, *panels[i].second,
                       "panel " + std::to_string(i));
  }
  EXPECT_GT(ctx.metrics().shared_fs_read_bytes, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: the purity dichotomy
// ---------------------------------------------------------------------------

struct SolverRun {
  apsp::ApspRunResult result;
  sparklet::SimMetrics metrics;
};

SolverRun RunApsp(SolverKind kind, const Graph& g, std::int64_t block,
                  const std::vector<sparklet::NodeFailurePlan>& failures,
                  std::int64_t checkpoint_every, int nodes = 2) {
  const BlockLayout layout(g.num_vertices(), block, g.directed());
  auto cfg = TestCluster();
  cfg.nodes = nodes;
  SparkletContext ctx(cfg);
  ApspOptions opts;
  opts.block_size = block;
  opts.directed = g.directed();
  opts.checkpoint_every = checkpoint_every;
  opts.fail_nodes = failures;
  SolverRun run;
  run.result = apsp::SolveBlocks(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()), kind, opts);
  run.metrics = ctx.metrics();
  return run;
}

TEST(EndToEnd, PureSolversRecoverInPlaceBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 11);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedInMemory}) {
    // 4 nodes: both planned losses fire with survivors to rehome onto
    // (the cluster refuses to kill its last live node).
    auto clean = RunApsp(kind, gi, 10, {}, 0, /*nodes=*/4);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApsp(kind, gi, 10, {{1, 12}, {0, 25}}, 0, /*nodes=*/4);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 2u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recomputed_tasks, 0u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recovery_seconds, 0.0) << SolverKindName(kind);
    // Pure: lineage recovery, never a job restart.
    EXPECT_EQ(faulty.metrics.job_restarts, 0u) << SolverKindName(kind);
  }
}

TEST(EndToEnd, LossAtStageZeroBeforeAnyCache) {
  // The loss fires at the very first stage boundary, before any partition
  // was ever cached or shuffled: recovery has next to nothing to recompute,
  // the placement just rehomes, and the run proceeds bitwise-normally.
  const Graph g = graph::PaperErdosRenyi(32, 29);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  auto clean = RunApsp(SolverKind::kFloydWarshall2d, gi, 8, {}, 0);
  auto faulty = RunApsp(SolverKind::kFloydWarshall2d, gi, 8, {{1, 0}}, 0);
  ASSERT_TRUE(faulty.result.status.ok()) << faulty.result.status.ToString();
  ASSERT_TRUE(faulty.result.distances.has_value());
  ExpectBitwiseEqual(*faulty.result.distances, oracle, "loss at stage 0");
  ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                     "loss at stage 0 vs clean");
  EXPECT_EQ(faulty.metrics.executor_failures, 1u);
  EXPECT_EQ(faulty.metrics.job_restarts, 0u);
}

TEST(EndToEnd, ImpureSolversRestartFromCheckpointBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 13);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  for (SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kRepeatedSquaring}) {
    auto clean = RunApsp(kind, gi, 10, {}, 0);
    ASSERT_TRUE(clean.result.status.ok()) << SolverKindName(kind);
    auto faulty = RunApsp(kind, gi, 10, {{1, 14}}, /*checkpoint_every=*/1);
    ASSERT_TRUE(faulty.result.status.ok())
        << SolverKindName(kind) << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value());
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       std::string(SolverKindName(kind)) + " vs oracle");
    ExpectBitwiseEqual(*faulty.result.distances, *clean.result.distances,
                       std::string(SolverKindName(kind)) + " vs clean run");
    EXPECT_EQ(faulty.metrics.executor_failures, 1u) << SolverKindName(kind);
    EXPECT_GE(faulty.metrics.job_restarts, 1u) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recovery_seconds, 0.0) << SolverKindName(kind);
    EXPECT_GT(faulty.metrics.recomputed_tasks, 0u) << SolverKindName(kind);
  }
}

TEST(EndToEnd, ImpureSolverWithoutCheckpointRestartsFromScratch) {
  // Whether a given loss forces the impure path depends on where in the
  // round it lands (a loss before the first repartition materializes can
  // recover purely — the root RDD re-reads stable input and narrow chains
  // replay staged data that still exists). Sweep a window of stage
  // ordinals: every run must stay bitwise-correct, and the sweep must hit
  // at least one schedule that forces a restart-from-scratch.
  const Graph g = graph::PaperErdosRenyi(32, 17);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const DenseBlock oracle = Oracle(gi);
  std::uint64_t restarts_seen = 0;
  // Step 1, covering full rounds: CB runs ~4 stages per round, and only
  // some boundaries (e.g. a loss right after a repartition the next round
  // still needs) force the impure path.
  for (std::int64_t stage = 8; stage <= 15; ++stage) {
    auto faulty = RunApsp(SolverKind::kBlockedCollectBroadcast, gi, 8,
                          {{0, stage}}, /*checkpoint_every=*/0);
    ASSERT_TRUE(faulty.result.status.ok())
        << "stage " << stage << ": " << faulty.result.status.ToString();
    ASSERT_TRUE(faulty.result.distances.has_value()) << "stage " << stage;
    ExpectBitwiseEqual(*faulty.result.distances, oracle,
                       "cb scratch restart, loss at stage " +
                           std::to_string(stage));
    restarts_seen += faulty.metrics.job_restarts;
  }
  EXPECT_GE(restarts_seen, 1u)
      << "no schedule in the sweep forced a restart";
}

TEST(EndToEnd, RestartBudgetExhaustionSurfacesDataLoss) {
  // Same sweep as above with a zero restart budget: wherever the impure
  // path fires, the job must surface DATA_LOSS instead of restarting.
  const Graph g = graph::PaperErdosRenyi(32, 17);
  const BlockLayout layout(32, 8);
  int data_loss_seen = 0;
  for (std::int64_t stage = 8; stage <= 15; ++stage) {
    SparkletContext ctx(TestCluster());
    ApspOptions opts;
    opts.block_size = 8;
    opts.max_restarts = 0;  // no budget: the first impure loss is fatal
    opts.fail_nodes = {{0, stage}};
    auto result = apsp::SolveBlocks(
        ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
        SolverKind::kBlockedCollectBroadcast, opts);
    if (result.status.code() == StatusCode::kDataLoss) {
      ++data_loss_seen;
      EXPECT_FALSE(result.distances.has_value()) << "stage " << stage;
    }
  }
  EXPECT_GE(data_loss_seen, 1)
      << "no schedule in the sweep hit the impure path";
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

TEST(EndToEnd, KsourceStagedRestartsShuffleRecoversBitwise) {
  const Graph g = graph::PaperErdosRenyi(40, 23);
  Graph gi(g.num_vertices(), g.directed());
  for (const auto& e : g.edges()) {
    gi.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  const std::vector<VertexId> sources = {0, 7, 19, 33};
  const DenseBlock oracle = KsourceOracle(gi, sources);
  for (const SolverKind plane : {SolverKind::kBlockedCollectBroadcast,
                                 SolverKind::kBlockedInMemory}) {
    apsp::SolveRequest request{
        .solver = plane, .sources = sources, .cluster = TestCluster()};
    request.options.block_size = 10;
    request.options.fail_nodes = {{1, 18}};
    if (plane == SolverKind::kBlockedCollectBroadcast) {
      request.options.checkpoint_every = 2;
    }
    auto result = apsp::Solve(gi, request).run;
    ASSERT_TRUE(result.status.ok())
        << SolverKindName(plane) << ": " << result.status.ToString();
    ASSERT_TRUE(result.distances.has_value());
    ExpectBitwiseEqual(*result.distances, oracle, SolverKindName(plane));
    EXPECT_EQ(result.metrics.executor_failures, 1u);
    EXPECT_GT(result.metrics.recovery_seconds, 0.0);
    if (apsp::SolverIsPure(plane)) {
      EXPECT_EQ(result.metrics.job_restarts, 0u)
          << "pure variant must recover in place";
    } else {
      EXPECT_GE(result.metrics.job_restarts, 1u)
          << "staged variant must checkpoint-restart";
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded chaos property suite
// ---------------------------------------------------------------------------

TEST(Chaos, SeededRandomFailureSchedulesAllSolversBitwise) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 7919);
    const Graph g = IntegerGraph(rng);
    const DenseBlock oracle = Oracle(g);
    const std::int64_t block =
        4 + static_cast<std::int64_t>(rng.NextBounded(13));  // 4..16

    // 1-2 losses at random early stage boundaries on random nodes.
    std::vector<sparklet::NodeFailurePlan> schedule;
    const int failures = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < failures; ++i) {
      schedule.push_back(
          {static_cast<int>(rng.NextBounded(2)),
           static_cast<std::int64_t>(rng.NextBounded(40))});
    }

    for (SolverKind kind :
         {SolverKind::kRepeatedSquaring, SolverKind::kFloydWarshall2d,
          SolverKind::kBlockedInMemory,
          SolverKind::kBlockedCollectBroadcast}) {
      const bool pure = apsp::SolverIsPure(kind);
      auto run = RunApsp(kind, g, block, schedule,
                         /*checkpoint_every=*/pure ? 0 : 1);
      ASSERT_TRUE(run.result.status.ok())
          << SolverKindName(kind) << " seed " << seed << ": "
          << run.result.status.ToString();
      ASSERT_TRUE(run.result.distances.has_value());
      ExpectBitwiseEqual(*run.result.distances, oracle,
                         std::string(SolverKindName(kind)) + " seed " +
                             std::to_string(seed));
      if (pure) {
        EXPECT_EQ(run.metrics.job_restarts, 0u) << SolverKindName(kind);
      }
    }
  }
}

TEST(Chaos, SeededKsourceSchedules) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    APSPARK_SEEDED_CASE(seed);
    Xoshiro256 rng(seed * 104729);
    const Graph g = IntegerGraph(rng);
    const std::int64_t n = g.num_vertices();
    std::vector<VertexId> sources;
    const int k = 1 + static_cast<int>(rng.NextBounded(5));
    for (int j = 0; j < k; ++j) {
      sources.push_back(static_cast<VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n))));
    }
    const DenseBlock oracle = KsourceOracle(g, sources);
    std::vector<sparklet::NodeFailurePlan> schedule = {
        {static_cast<int>(rng.NextBounded(2)),
         static_cast<std::int64_t>(rng.NextBounded(30))}};
    for (const SolverKind plane : {SolverKind::kBlockedCollectBroadcast,
                                   SolverKind::kBlockedInMemory}) {
      apsp::SolveRequest request{
          .solver = plane, .sources = sources, .cluster = TestCluster()};
      auto& opts = request.options;
      opts.block_size = 4 + static_cast<std::int64_t>(rng.NextBounded(13));
      opts.directed = g.directed();
      opts.fail_nodes = schedule;
      if (!apsp::SolverIsPure(plane)) opts.checkpoint_every = 1;
      auto result = apsp::Solve(g, request).run;
      ASSERT_TRUE(result.status.ok())
          << SolverKindName(plane) << " seed " << seed << ": "
          << result.status.ToString();
      ASSERT_TRUE(result.distances.has_value());
      ExpectBitwiseEqual(*result.distances, oracle,
                         std::string(SolverKindName(plane)) + " seed " +
                             std::to_string(seed));
    }
  }
}

// ---------------------------------------------------------------------------
// Adaptive KSSP data-plane choice (the tuner with num_sources)
// ---------------------------------------------------------------------------

/// One block size and one phantom pivot per plane and partitioner: the
/// tuner's k-source data-plane choice at n = 16384, k = 64, b = 1024.
apsp::TuneRequest KsourcePlaneRequest() {
  apsp::TuneRequest request;
  request.n = 16384;
  request.num_sources = 64;
  request.block_sizes = {1024};
  request.cluster = ClusterConfig::Paper();
  return request;
}

TEST(TunerKsourcePlane, PrefersStagedOnFatSharedFs) {
  // The paper's testbed: GPFS sustains 16 GB/s aggregate while the GbE
  // fabric moves ~125 MB/s per node — staging through the shared FS wins.
  auto choice = apsp::TuneConfiguration(KsourcePlaneRequest());
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->solver, SolverKind::kBlockedCollectBroadcast);
}

TEST(TunerKsourcePlane, PrefersShuffleWhenSharedFsSlow) {
  // Starve the shared FS (an overloaded NFS appliance): per-file overhead
  // and low aggregate bandwidth make staging the bottleneck, so the
  // shuffle-replicated plane wins.
  apsp::TuneRequest request = KsourcePlaneRequest();
  request.cluster.shared_fs.aggregate_bandwidth_bytes_per_sec = 20.0e6;
  request.cluster.shared_fs.file_overhead_seconds = 0.25;
  auto choice = apsp::TuneConfiguration(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->solver, SolverKind::kBlockedInMemory);
}

TEST(TunerKsourcePlane, FaultToleranceConstraintForcesShuffle) {
  apsp::TuneRequest request = KsourcePlaneRequest();
  request.require_fault_tolerance = true;
  auto choice = apsp::TuneConfiguration(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->solver, SolverKind::kBlockedInMemory);
}

TEST(TunerKsourcePlane, RejectsInvalidRequests) {
  apsp::TuneRequest request;
  request.n = 1;
  request.num_sources = 4;
  EXPECT_FALSE(apsp::TuneConfiguration(request).ok());
  request.n = 1024;
  request.num_sources = -1;
  EXPECT_FALSE(apsp::TuneConfiguration(request).ok());
  request.num_sources = 4;
  request.block_sizes = {0};
  EXPECT_FALSE(apsp::TuneConfiguration(request).ok());
}

}  // namespace
}  // namespace apspark
