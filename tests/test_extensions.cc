// Tests for the extension modules: the Pregel/GraphX-style baseline, the
// block-size autotuner, graph I/O, and Blocked-CB checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "apsp/checkpoint.h"
#include "apsp/api.h"
#include "apsp/tuner.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/shortest_paths.h"
#include "pregel/pregel_sssp.h"

namespace apspark {
namespace {

sparklet::ClusterConfig TestCluster() {
  auto cfg = sparklet::ClusterConfig::TinyTest();
  cfg.local_storage_bytes = 16ULL * kGiB;
  return cfg;
}

// --- Pregel / GraphX baseline -------------------------------------------

TEST(Pregel, LandmarkDistancesMatchDijkstra) {
  const graph::Graph g = graph::PaperErdosRenyi(80, 31);
  const std::vector<graph::VertexId> landmarks = {0, 17, 42};
  pregel::PregelOptions options;
  auto result = pregel::ShortestPaths(g, landmarks, options, TestCluster());
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_TRUE(result.distances.has_value());
  const auto truth = graph::DijkstraAllPairs(g);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t l = 0; l < landmarks.size(); ++l) {
      EXPECT_NEAR(result.distances->At(v, static_cast<std::int64_t>(l)),
                  truth.At(v, landmarks[l]), 1e-9)
          << "v=" << v << " landmark=" << landmarks[l];
    }
  }
}

TEST(Pregel, AllPairsMatchesDijkstra) {
  const graph::Graph g = graph::PaperErdosRenyi(48, 32);
  pregel::PregelOptions options;
  auto result = pregel::AllPairs(g, options, TestCluster());
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(
      result.distances->ApproxEquals(graph::DijkstraAllPairs(g), 1e-9));
}

TEST(Pregel, ConvergesInHopBoundedSupersteps) {
  // On a path graph, shortest paths have up to n-1 hops; with unit source 0
  // the loop must stop once nothing improves (plus the final quiet step).
  const graph::Graph g = graph::PathGraph(12, 1.0);
  auto result = pregel::ShortestPaths(g, {0}, {}, TestCluster());
  ASSERT_TRUE(result.status.ok());
  EXPECT_GE(result.supersteps, 11);
  EXPECT_LE(result.supersteps, 12);
  EXPECT_EQ(result.distances->At(11, 0), 11.0);
}

TEST(Pregel, RequiresLandmarks) {
  const graph::Graph g = graph::PathGraph(4, 1.0);
  auto result = pregel::ShortestPaths(g, {}, {}, TestCluster());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
}

TEST(Pregel, MessageVolumeScalesWithLandmarks) {
  // The §2 story: the per-superstep shuffle grows linearly with the number
  // of landmarks, so landmarks = V costs O(n^2) per superstep.
  const graph::Graph g = graph::PaperErdosRenyi(64, 33);
  auto one = pregel::ShortestPaths(g, {0}, {}, TestCluster());
  std::vector<graph::VertexId> many;
  for (graph::VertexId v = 0; v < 32; ++v) many.push_back(v);
  auto thirty_two = pregel::ShortestPaths(g, many, {}, TestCluster());
  ASSERT_TRUE(one.status.ok());
  ASSERT_TRUE(thirty_two.status.ok());
  EXPECT_GT(thirty_two.metrics.shuffle_bytes,
            one.metrics.shuffle_bytes * 16);
}

TEST(Pregel, ModelSuperstepQuadraticInN) {
  const auto cluster = sparklet::ClusterConfig::Paper();
  const linalg::CostModel model;
  const double t1 = pregel::ModelSuperstepSeconds(65536, 12.0, cluster, model);
  const double t2 =
      pregel::ModelSuperstepSeconds(131072, 12.0, cluster, model);
  EXPECT_NEAR(t2 / t1, 4.0, 0.4);
}

// --- tuner ----------------------------------------------------------------

TEST(Tuner, RecommendsFeasibleConfiguration) {
  apsp::TuneRequest request;
  request.n = 131072;
  request.cluster = sparklet::ClusterConfig::Paper();
  auto choice = apsp::TuneConfiguration(request);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_TRUE(choice->feasible);
  // The paper's conclusion: Blocked-CB with MD at a mid-size block wins.
  EXPECT_EQ(choice->solver, apsp::SolverKind::kBlockedCollectBroadcast);
  EXPECT_GE(choice->block_size, 1024);
  EXPECT_LE(choice->block_size, 3072);
}

TEST(Tuner, FaultToleranceConstraintSelectsPureSolver) {
  apsp::TuneRequest request;
  request.n = 65536;
  request.cluster = sparklet::ClusterConfig::Paper();
  request.require_fault_tolerance = true;
  auto choice = apsp::TuneConfiguration(request);
  ASSERT_TRUE(choice.ok());
  EXPECT_TRUE(apsp::SolverIsPure(choice->solver));
}

TEST(Tuner, SweepMarksStorageInfeasibleEntries) {
  apsp::TuneRequest request;
  request.n = 131072;
  request.cluster = sparklet::ClusterConfig::Paper();
  request.block_sizes = {512, 2048};
  request.solvers = {apsp::SolverKind::kBlockedInMemory};
  const auto entries = apsp::SweepConfigurations(request);
  ASSERT_EQ(entries.size(), 4u);  // 2 block sizes x 2 partitioners
  bool found_infeasible = false, found_feasible = false;
  for (const auto& entry : entries) {
    if (entry.block_size == 512) {
      EXPECT_FALSE(entry.feasible);  // the Figure 3 storage cliff
      found_infeasible = true;
    }
    if (entry.block_size == 2048 && entry.feasible) found_feasible = true;
  }
  EXPECT_TRUE(found_infeasible);
  EXPECT_TRUE(found_feasible);
  // Best-first ordering: feasible entries come first.
  EXPECT_TRUE(entries.front().feasible);
  EXPECT_FALSE(entries.back().feasible);
}

TEST(Tuner, RejectsDegenerateN) {
  apsp::TuneRequest request;
  request.n = 1;
  EXPECT_FALSE(apsp::TuneConfiguration(request).ok());
}

// --- graph I/O ------------------------------------------------------------

TEST(GraphIo, TextRoundTrip) {
  const graph::Graph g = graph::PaperErdosRenyi(64, 40);
  std::stringstream stream;
  graph::WriteEdgeListText(g, stream);
  auto loaded = graph::ReadEdgeListText(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->edges(), g.edges());
  EXPECT_EQ(loaded->directed(), g.directed());
}

TEST(GraphIo, TextRejectsMalformedInput) {
  {
    std::stringstream s("1 2 3.0\n");  // no header
    EXPECT_FALSE(graph::ReadEdgeListText(s).ok());
  }
  {
    std::stringstream s("apsp 4 0\n1 2\n");  // missing weight
    EXPECT_FALSE(graph::ReadEdgeListText(s).ok());
  }
  {
    std::stringstream s("apsp 4 0\n1 9 1.0\n");  // endpoint out of range
    EXPECT_FALSE(graph::ReadEdgeListText(s).ok());
  }
}

TEST(GraphIo, TextToleratesCommentsAndBlankLines) {
  std::stringstream s("# hello\n\napsp 3 1\n# edge below\n0 2 1.5\n");
  auto g = graph::ReadEdgeListText(s);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->directed());
  EXPECT_EQ(g->num_edges(), 1u);
  EXPECT_EQ(g->edges()[0].weight, 1.5);
}

TEST(GraphIo, FileRoundTrip) {
  const graph::Graph g = graph::CycleGraph(10, 2.5);
  const std::string text_path = "/tmp/apspark_io_test.txt";
  ASSERT_TRUE(graph::WriteEdgeListTextFile(g, text_path).ok());
  auto text = graph::ReadEdgeListTextFile(text_path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->edges(), g.edges());
  std::remove(text_path.c_str());
  EXPECT_FALSE(graph::ReadEdgeListTextFile("/tmp/apspark_nope").ok());
}

// --- checkpoint / resume ----------------------------------------------

TEST(Checkpoint, SaveLoadRoundTrip) {
  const graph::Graph g = graph::PaperErdosRenyi(32, 50);
  const apsp::BlockLayout layout(32, 8);
  sparklet::SparkletContext ctx(TestCluster());
  auto records = layout.Decompose(g.ToDenseAdjacency());
  EXPECT_FALSE(apsp::HasCheckpoint(ctx));
  apsp::SaveCheckpoint(ctx, layout, records, 2);
  EXPECT_TRUE(apsp::HasCheckpoint(ctx));
  auto loaded = apsp::LoadCheckpoint(ctx, layout);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_round, 2);
  auto original = layout.Assemble(records);
  auto restored = layout.Assemble(loaded->blocks);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(*original));
  // Layout mismatch is rejected.
  const apsp::BlockLayout other(32, 16);
  EXPECT_FALSE(apsp::LoadCheckpoint(ctx, other).ok());
}

TEST(Checkpoint, LoadRejectsMisshapedBlocks) {
  // A checkpoint is durable bytes from outside the solve: a block whose
  // shape is not its layout shape must not reach Assemble or a solver.
  const graph::Graph g = graph::PaperErdosRenyi(30, 52);
  const apsp::BlockLayout layout(30, 8);  // ragged: last block row is 6
  sparklet::SparkletContext ctx(TestCluster());
  auto records = layout.Decompose(g.ToDenseAdjacency());
  ASSERT_EQ(records.back().first, (apsp::BlockKey{3, 3}));
  records.back().second = linalg::MakeBlock(linalg::DenseBlock(8, 8, 1.0));
  apsp::SaveCheckpoint(ctx, layout, records, 1);
  auto loaded = apsp::LoadCheckpoint(ctx, layout);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Checkpoint, ResumeProducesSameResultAsUninterruptedRun) {
  const graph::Graph g = graph::PaperErdosRenyi(48, 51);
  const apsp::BlockLayout layout(48, 12);  // q = 4 rounds
  const auto truth = graph::DijkstraAllPairs(g);
  const auto kind = apsp::SolverKind::kBlockedCollectBroadcast;

  // Phase 1: run with checkpointing but "crash" after 2 of 4 rounds.
  sparklet::SparkletContext ctx(TestCluster());
  apsp::ApspOptions options;
  options.block_size = 12;
  options.checkpoint_every = 1;
  options.max_rounds = 2;
  auto partial = apsp::SolveBlocks(
      ctx, layout, layout.Decompose(g.ToDenseAdjacency()), kind, options);
  ASSERT_TRUE(partial.status.ok());
  EXPECT_FALSE(partial.distances.has_value());  // not finished

  // Phase 2: a fresh job loads the checkpoint and resumes.
  auto checkpoint = apsp::LoadCheckpoint(ctx, layout);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->next_round, 2);
  apsp::ApspOptions resume;
  resume.block_size = 12;
  resume.start_round = checkpoint->next_round;
  auto finished =
      apsp::SolveBlocks(ctx, layout, checkpoint->blocks, kind, resume);
  ASSERT_TRUE(finished.status.ok());
  ASSERT_TRUE(finished.distances.has_value());
  EXPECT_TRUE(finished.distances->ApproxEquals(truth, 1e-9))
      << "max diff " << finished.distances->MaxAbsDiff(truth);
}

TEST(Checkpoint, ChargesSharedFsTime) {
  const graph::Graph g = graph::PaperErdosRenyi(32, 52);
  const apsp::BlockLayout layout(32, 8);
  const auto kind = apsp::SolverKind::kBlockedCollectBroadcast;
  apsp::ApspOptions with;
  with.block_size = 8;
  with.checkpoint_every = 1;
  apsp::ApspOptions without;
  without.block_size = 8;
  auto a = apsp::Solve(g, {.solver = kind, .options = with,
                           .cluster = TestCluster()})
               .run;
  auto b = apsp::Solve(g, {.solver = kind, .options = without,
                           .cluster = TestCluster()})
               .run;
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_GT(a.metrics.shared_fs_written_bytes,
            b.metrics.shared_fs_written_bytes);
  EXPECT_GT(a.sim_seconds, b.sim_seconds);  // durability costs time
  EXPECT_TRUE(a.distances->ApproxEquals(*b.distances, 1e-9));
}

}  // namespace
}  // namespace apspark
