// Property and consistency tests across the solver suite: metric axioms on
// the outputs, equivalence across configurations, phantom/real timing
// consistency, projection consistency, fault tolerance of pure solvers, and
// resource-failure behaviour.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "apsp/api.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "linalg/semiring.h"
#include "obs/trace.h"
#include "test_support.h"

namespace apspark {
namespace {

using apsp::ApspOptions;
using apsp::BlockLayout;
using apsp::SolverIsPure;
using apsp::PartitionerKind;
using apsp::Solve;
using apsp::SolveBlocks;
using apsp::SolveModel;
using apsp::SolverKind;
using test::TestCluster;

TEST(SolverMeta, PurityFlagsMatchPaper) {
  EXPECT_FALSE(SolverIsPure(SolverKind::kRepeatedSquaring));
  EXPECT_TRUE(SolverIsPure(SolverKind::kFloydWarshall2d));
  EXPECT_TRUE(SolverIsPure(SolverKind::kBlockedInMemory));
  EXPECT_FALSE(SolverIsPure(SolverKind::kBlockedCollectBroadcast));
}

TEST(SolverMeta, IterationCountsMatchTable2) {
  // n = 262144, p = 1024, B = 2 — the iteration counts in Table 2.
  const std::int64_t n = 262144;
  EXPECT_EQ(TotalRounds(SolverKind::kRepeatedSquaring, BlockLayout(n, 256)),
            18432);
  EXPECT_EQ(TotalRounds(SolverKind::kRepeatedSquaring, BlockLayout(n, 4096)),
            1152);
  EXPECT_EQ(TotalRounds(SolverKind::kFloydWarshall2d, BlockLayout(n, 1024)),
            262144);
  EXPECT_EQ(TotalRounds(SolverKind::kBlockedInMemory, BlockLayout(n, 1024)),
            256);
  EXPECT_EQ(
      TotalRounds(SolverKind::kBlockedCollectBroadcast, BlockLayout(n, 4096)),
      64);
}

struct PropertyCase {
  SolverKind solver;
  std::int64_t n;
  std::int64_t b;
  std::uint64_t seed;
};

class SolverProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SolverProperties, OutputIsAMetricAndMatchesReference) {
  const auto c = GetParam();
  APSPARK_SEEDED_CASE(c.seed);
  const graph::Graph g = graph::PaperErdosRenyi(c.n, c.seed);
  ApspOptions opts;
  opts.block_size = c.b;
  auto result =
      Solve(g, {.solver = c.solver, .options = opts, .cluster = TestCluster()})
          .run;
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.distances.has_value());
  const auto& d = *result.distances;
  // Metric axioms on the connected component(s).
  for (std::int64_t i = 0; i < c.n; ++i) {
    EXPECT_EQ(d.At(i, i), 0.0);
    for (std::int64_t j = i + 1; j < c.n; ++j) {
      EXPECT_EQ(d.At(i, j), d.At(j, i));
    }
  }
  // Triangle inequality on a deterministic sample of triples.
  Xoshiro256 rng(c.seed * 7 + 1);
  for (int t = 0; t < 200; ++t) {
    const auto i = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    const auto j = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    const auto k = static_cast<std::int64_t>(rng.NextBounded(
        static_cast<std::uint64_t>(c.n)));
    EXPECT_LE(d.At(i, j), d.At(i, k) + d.At(k, j) + 1e-9);
  }
  EXPECT_TRUE(d.ApproxEquals(graph::DijkstraAllPairs(g), 1e-9));
  // Timing/accounting sanity.
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_EQ(result.rounds_executed, result.rounds_total);
  EXPECT_DOUBLE_EQ(result.projected_seconds, result.sim_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperties,
    ::testing::Values(
        PropertyCase{SolverKind::kRepeatedSquaring, 48, 12, 1},
        PropertyCase{SolverKind::kFloydWarshall2d, 48, 12, 2},
        PropertyCase{SolverKind::kBlockedInMemory, 48, 12, 3},
        PropertyCase{SolverKind::kBlockedCollectBroadcast, 48, 12, 4},
        PropertyCase{SolverKind::kBlockedInMemory, 70, 16, 5},
        PropertyCase{SolverKind::kBlockedCollectBroadcast, 70, 32, 6}),
    [](const auto& info) {
      return std::string(1, "RFIC"[static_cast<int>(info.param.solver)]) +
             "_n" + std::to_string(info.param.n) + "_b" +
             std::to_string(info.param.b);
    });

TEST(SolverEquivalence, AllBlockSizesAgree) {
  const graph::Graph g = graph::PaperErdosRenyi(60, 9);
  const auto truth = graph::DijkstraAllPairs(g);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    for (std::int64_t b : {1, 5, 20, 60, 100}) {
      ApspOptions opts;
      opts.block_size = b;
      auto result =
          Solve(g, {.solver = kind, .options = opts, .cluster = TestCluster()})
              .run;
      ASSERT_TRUE(result.status.ok())
          << SolverKindName(kind) << " b=" << b << ": "
          << result.status.ToString();
      EXPECT_TRUE(result.distances->ApproxEquals(truth, 1e-9))
          << SolverKindName(kind) << " b=" << b;
    }
  }
}

TEST(SolverConsistency, PhantomRunChargesSameTimeAsRealRun) {
  // The virtual clock must not depend on whether payloads are materialized:
  // a phantom (model) run of the same shape reports identical time. This is
  // the invariant that justifies paper-scale projections.
  const std::int64_t n = 64;
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 16;
    opts.max_rounds = 2;
    const apsp::SolveRequest request{
        .solver = kind, .options = opts, .cluster = TestCluster()};
    const graph::Graph g = graph::PaperErdosRenyi(n, 13);
    auto real = Solve(g, request).run;
    auto phantom = SolveModel(n, request).run;
    ASSERT_TRUE(real.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(phantom.status.ok()) << SolverKindName(kind);
    EXPECT_NEAR(real.sim_seconds, phantom.sim_seconds,
                real.sim_seconds * 1e-9 + 1e-12)
        << SolverKindName(kind);
    EXPECT_EQ(real.metrics.shuffle_bytes, phantom.metrics.shuffle_bytes)
        << SolverKindName(kind);
    EXPECT_EQ(real.metrics.tasks, phantom.metrics.tasks)
        << SolverKindName(kind);
  }
}

TEST(SolverConsistency, ProjectionApproximatesFullRun) {
  // For the uniform-round solvers, projecting from a prefix of rounds must
  // land near the full-run simulated time.
  const std::int64_t n = 96;
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kBlockedInMemory}) {
    ApspOptions full_opts;
    full_opts.block_size = 16;
    auto full =
        SolveModel(n, {.solver = kind, .options = full_opts,
                       .cluster = TestCluster()})
            .run;
    ASSERT_TRUE(full.status.ok());
    ApspOptions partial_opts = full_opts;
    partial_opts.max_rounds = std::max<std::int64_t>(1, full.rounds_total / 3);
    auto partial = SolveModel(n, {.solver = kind, .options = partial_opts,
                                  .cluster = TestCluster()})
                       .run;
    ASSERT_TRUE(partial.status.ok());
    EXPECT_NEAR(partial.projected_seconds, full.sim_seconds,
                full.sim_seconds * 0.25)
        << SolverKindName(kind);
  }
}

TEST(SolverFaults, PureSolversSurviveInjectedTaskFailures) {
  const graph::Graph g = graph::PaperErdosRenyi(40, 21);
  const auto truth = graph::DijkstraAllPairs(g);
  for (SolverKind kind : {SolverKind::kFloydWarshall2d,
                          SolverKind::kBlockedInMemory}) {
    ASSERT_TRUE(SolverIsPure(kind));
    const BlockLayout layout(40, 10);
    sparklet::SparkletContext ctx(TestCluster());
    // Fail assorted tasks of the per-iteration operators a few times.
    const char* stage = kind == SolverKind::kFloydWarshall2d
                            ? "fw2d-update"
                            : "im-phase3-unpack";
    for (int partition = 0; partition < 4; ++partition) {
      ctx.fault_injector().FailTask(stage, partition, 1);
    }
    ApspOptions opts;
    opts.block_size = 10;
    auto result = SolveBlocks(
        ctx, layout, layout.Decompose(g.ToDenseAdjacency()), kind, opts);
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    EXPECT_GT(ctx.metrics().task_failures, 0u) << "no failure injected";
    ASSERT_TRUE(result.distances.has_value());
    EXPECT_TRUE(result.distances->ApproxEquals(truth, 1e-9))
        << SolverKindName(kind);
  }
}

TEST(SolverFaults, BlockedInMemoryDiesWhenLocalStorageTooSmall) {
  // The paper's §5.2 failure mode: shuffle spill grows every iteration and
  // eventually exceeds per-node local storage.
  auto cfg = sparklet::ClusterConfig::TinyTest();
  cfg.local_storage_bytes = 200 * kKiB;
  const graph::Graph g = graph::PaperErdosRenyi(64, 33);
  ApspOptions opts;
  opts.block_size = 8;
  auto result = Solve(g, {.solver = SolverKind::kBlockedInMemory,
                          .options = opts, .cluster = cfg})
                    .run;
  EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(result.distances.has_value());
  // Blocked-CB on the same budget survives: it shuffles far less data.
  auto cb = Solve(g, {.solver = SolverKind::kBlockedCollectBroadcast,
                      .options = opts, .cluster = cfg})
                .run;
  EXPECT_TRUE(cb.status.ok()) << cb.status.ToString();
}

TEST(SolverFaults, ImpureSolverBreaksIfSideChannelCleared) {
  // Demonstrates why the paper calls CB "impure": its correctness depends
  // on out-of-lineage state. Clearing the shared storage mid-run (as a lost
  // scratch directory would) aborts the solve rather than recovering.
  const graph::Graph g = graph::PaperErdosRenyi(32, 41);
  const BlockLayout layout(32, 8);
  sparklet::SparkletContext ctx(TestCluster());
  // Run one round, then clear storage and observe a later read fail when a
  // dropped partition forces recomputation against missing files.
  ApspOptions opts;
  opts.block_size = 8;
  auto result = SolveBlocks(ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
                            SolverKind::kBlockedCollectBroadcast, opts);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(ctx.shared_storage().object_count(), 0u);
  ctx.shared_storage().Clear();
  // The already-produced result is fine; the point is the dependency.
  EXPECT_TRUE(result.distances.has_value());
}

TEST(SolverScaling, LargeProblemsBenefitFromMoreCores) {
  // On a compute-heavy configuration, 16x the cores must cut the simulated
  // round time substantially. (On problems too small for the partition
  // count, extra cores can *hurt* via task overhead — the p < 256 dip the
  // paper mentions in §5.4 — so this intentionally uses a large n.)
  for (SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                          SolverKind::kBlockedInMemory}) {
    ApspOptions opts;
    opts.block_size = 2048;
    opts.max_rounds = 1;
    auto small =
        SolveModel(65536,
                   {.solver = kind,
                    .options = opts,
                    .cluster = sparklet::ClusterConfig::PaperWithCores(64)})
            .run;
    auto large =
        SolveModel(65536,
                   {.solver = kind,
                    .options = opts,
                    .cluster = sparklet::ClusterConfig::PaperWithCores(1024)})
            .run;
    ASSERT_TRUE(small.status.ok());
    ASSERT_TRUE(large.status.ok());
    EXPECT_LT(large.sim_seconds, small.sim_seconds * 0.5)
        << SolverKindName(kind);
  }
}

TEST(SolverDegenerate, SingleVertexAndSingleBlock) {
  graph::Graph g(1);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 4;
    auto result =
        Solve(g, {.solver = kind, .options = opts, .cluster = TestCluster()})
            .run;
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    ASSERT_TRUE(result.distances.has_value());
    EXPECT_EQ(result.distances->At(0, 0), 0.0);
  }
}

TEST(SolverDegenerate, BlockSizeLargerThanMatrix) {
  const graph::Graph g = graph::PathGraph(10, 3.0);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 64;  // single block
    auto result =
        Solve(g, {.solver = kind, .options = opts, .cluster = TestCluster()})
            .run;
    ASSERT_TRUE(result.status.ok()) << SolverKindName(kind);
    EXPECT_EQ(result.distances->At(0, 9), 27.0);
  }
}

TEST(SolverStructured, KnownDistancesOnFamilies) {
  // Cycle: d(0, k) = min(k, n-k) * w; star: 2w between leaves.
  const graph::Graph cycle = graph::CycleGraph(12, 2.0);
  const graph::Graph star = graph::StarGraph(9, 1.5);
  for (SolverKind kind : apsp::AllSolverKinds()) {
    ApspOptions opts;
    opts.block_size = 5;
    const apsp::SolveRequest request{
        .solver = kind, .options = opts, .cluster = TestCluster()};
    auto rc = Solve(cycle, request).run;
    ASSERT_TRUE(rc.status.ok());
    EXPECT_EQ(rc.distances->At(0, 6), 12.0);
    EXPECT_EQ(rc.distances->At(0, 11), 2.0);
    auto rs = Solve(star, request).run;
    ASSERT_TRUE(rs.status.ok());
    EXPECT_EQ(rs.distances->At(3, 7), 3.0);
    EXPECT_EQ(rs.distances->At(0, 8), 1.5);
  }
}


// --- golden: the modelled cluster of the two blocked data planes ----------
//
// Pins every modelled number of Blocked-CB and Blocked-IM runs — APSP and
// k-source, real and phantom, undirected and directed, plus the early-exit,
// checkpoint and executor-loss paths: every SimMetrics field, the run's
// sim_seconds and the ordered stage names of VirtualCluster::stage_trace().
// The modelled cluster is the contract a refactor of the pivot code must
// keep. (The distances are not pinned: the generated edge weights may differ
// in the last bit between builds with and without FMA contraction; the
// oracle tests lock them.) A deliberate model change updates
// the table from the failure output, which prints each run's actual row.

struct GoldenCase {
  std::string name;
  SolverKind kind;
  bool ksource = false;
  bool directed = false;
  bool phantom = false;
  /// K-source on a graph whose last block is its own component, so the
  /// early exit skips that pivot.
  bool disconnected = false;
  std::int64_t checkpoint_every = 0;
  std::vector<sparklet::NodeFailurePlan> fail_nodes{};
};

struct GoldenRow {
  const char* name;
  /// The integer SimMetrics fields, in declaration order.
  std::array<std::uint64_t, 20> counts;
  /// The seconds SimMetrics fields in declaration order, then sim_seconds.
  std::array<double, 10> seconds;
  std::uint64_t stages;       // stage_trace().size()
  std::uint64_t stage_names;  // FNV-1a over the '\n'-terminated names
};

std::array<std::uint64_t, 20> Counts(const sparklet::SimMetrics& m) {
  return {m.shuffle_bytes,        m.collect_bytes,
          m.broadcast_bytes,      m.shared_fs_written_bytes,
          m.shared_fs_read_bytes, m.stages,
          m.tasks,                m.task_failures,
          m.task_retries,         m.recomputed_tasks,
          m.executor_failures,    m.job_restarts,
          m.speculative_tasks,    m.migrated_partitions,
          m.migration_bytes,      m.node_joins,
          m.spilled_bytes,        m.local_storage_peak_bytes,
          m.driver_peak_bytes,    m.node_peak_bytes};
}

std::array<double, 10> Seconds(const sparklet::SimMetrics& m,
                               double sim_seconds) {
  return {m.compute_seconds,    m.shuffle_seconds,
          m.collect_seconds,    m.broadcast_seconds,
          m.shared_fs_seconds,  m.scheduling_seconds,
          m.recovery_seconds,   m.rebalance_seconds,
          m.admission_wait_seconds, sim_seconds};
}

std::uint64_t Fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// One golden-table row as C++ source, wrapped to 80 columns.
std::string FormatRow(const GoldenRow& row) {
  std::string out = std::string("    {\"") + row.name + "\",\n     {";
  char buf[64];
  for (std::size_t i = 0; i < row.counts.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%s%" PRIu64, i == 0 ? "" : ",",
                  i == 0 ? "" : i % 7 == 0 ? "\n      " : " ", row.counts[i]);
    out += buf;
  }
  out += "},\n     {";
  for (std::size_t i = 0; i < row.seconds.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%s%.17g", i == 0 ? "" : ",",
                  i == 0 ? "" : i % 3 == 0 ? "\n      " : " ", row.seconds[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "},\n     %" PRIu64 ", 0x%016" PRIx64 "ull},",
                row.stages, row.stage_names);
  return out + buf;
}

/// Runs one case through Solve/SolveModel with span tracing on, and again
/// through SolveBlocks on a caller-owned context (the same inputs Solve and
/// SolveModel build) to read the stage trace; the two runs must agree.
GoldenRow RunGoldenCase(const GoldenCase& c, std::string* stage_list) {
  const std::int64_t n = c.phantom ? 4096 : 40;
  const std::int64_t b = c.phantom ? 1024 : 10;
  apsp::SolveRequest request;
  request.solver = c.kind;
  request.options.block_size = b;
  request.options.directed = c.directed;
  request.options.checkpoint_every = c.checkpoint_every;
  request.options.fail_nodes = c.fail_nodes;
  if (c.ksource) request.sources = {0, 17, 33};
  request.cluster = TestCluster();

  graph::Graph g(0);
  if (c.disconnected) {
    g = graph::Graph(n);
    const graph::Graph big = graph::PaperErdosRenyi(n - b, 31);
    for (const auto& e : big.edges()) g.AddEdge(e.u, e.v, e.weight).CheckOk();
    const graph::Graph tail = graph::PaperErdosRenyi(b, 32);
    for (const auto& e : tail.edges()) {
      g.AddEdge(e.u + n - b, e.v + n - b, e.weight).CheckOk();
    }
  } else if (!c.phantom) {
    g = graph::ErdosRenyi(n, graph::PaperEdgeProbability(n), {1.0, 10.0}, 29,
                          c.directed);
  }

  obs::Tracer::Get().Start();
  const apsp::SolveReport report =
      c.phantom ? SolveModel(n, request) : Solve(g, request);
  obs::Tracer::Get().Stop();
  EXPECT_TRUE(report.ok()) << c.name << ": " << report.status().ToString();

  const BlockLayout layout(n, b, c.directed);
  std::vector<apsp::BlockRecord> blocks;
  std::vector<apsp::PanelRecord> frontier;
  if (c.phantom) {
    blocks = layout.DecomposePhantom();
    if (c.ksource) {
      frontier = layout.DecomposeFrontier(linalg::DenseBlock::Phantom(
          n, static_cast<std::int64_t>(request.sources.size())));
    }
  } else {
    linalg::DenseBlock adjacency = g.ToDenseAdjacency();
    if (c.ksource) {
      if (c.directed) adjacency = adjacency.Transposed();
      frontier = layout.DecomposeFrontier(
          linalg::FrontierPanel(n, request.sources));
    }
    blocks = layout.Decompose(adjacency);
  }
  sparklet::SparkletContext ctx(request.cluster, request.cost_model);
  ctx.cluster().EnableStageTrace();
  const apsp::ApspRunResult replay =
      SolveBlocks(ctx, layout, blocks, c.kind, request.options, frontier);
  EXPECT_TRUE(replay.metrics == report.metrics()) << c.name;
  EXPECT_EQ(replay.sim_seconds, report.run.sim_seconds) << c.name;

  GoldenRow row{c.name.c_str(), Counts(report.metrics()),
                Seconds(report.metrics(), report.run.sim_seconds),
                ctx.cluster().stage_trace().size(), kFnvBasis};
  for (const auto& stage : ctx.cluster().stage_trace()) {
    row.stage_names =
        Fnv1a(row.stage_names, stage.name.data(), stage.name.size());
    row.stage_names = Fnv1a(row.stage_names, "\n", 1);
    *stage_list += stage.name + "\n";
  }
  return row;
}

std::string PlaneName(SolverKind kind) {
  return kind == SolverKind::kBlockedCollectBroadcast ? "cb" : "im";
}

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  for (const bool phantom : {false, true}) {
    for (const SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                                  SolverKind::kBlockedInMemory}) {
      for (const bool ksource : {false, true}) {
        for (const bool directed : {false, true}) {
          GoldenCase c{PlaneName(kind) + (ksource ? "/ks" : "/apsp") +
                           (directed ? "/directed" : "/undirected") +
                           (phantom ? "/model" : ""),
                       kind};
          c.ksource = ksource;
          c.directed = directed;
          c.phantom = phantom;
          cases.push_back(c);
        }
      }
    }
  }
  for (const SolverKind kind : {SolverKind::kBlockedCollectBroadcast,
                                SolverKind::kBlockedInMemory}) {
    GoldenCase skip{PlaneName(kind) + "/ks/early-exit", kind};
    skip.ksource = true;
    skip.disconnected = true;
    cases.push_back(skip);
    GoldenCase lost{PlaneName(kind) + "/ks/fail-node", kind};
    lost.ksource = true;
    lost.checkpoint_every = 1;
    lost.fail_nodes = {{1, 3}};
    cases.push_back(lost);
  }
  GoldenCase checkpointed{"cb/apsp/checkpoint",
                          SolverKind::kBlockedCollectBroadcast};
  checkpointed.checkpoint_every = 1;
  cases.push_back(checkpointed);
  GoldenCase lost{"cb/apsp/fail-node", SolverKind::kBlockedCollectBroadcast};
  lost.checkpoint_every = 1;
  lost.fail_nodes = {{1, 3}};
  cases.push_back(lost);
  return cases;
}

// Generated from the runs themselves; see the comment above.
const GoldenRow kGolden[] = {
    {"cb/apsp/undirected",
     {33320, 13328, 0, 17974, 0, 16, 192,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 8321, 2499, 24990},
     {0.039501831367920549, 0.0096333200000000008, 0.0065466080000000024,
      0, 0.044001123375000013, 0.0079475612176008598,
      0, 0, 0,
      0.10759045996052138},
     17, 0xcaa6e721ee0c6dc9ull},
    {"cb/apsp/directed",
     {53312, 23324, 0, 22876, 0, 16, 192,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 13320, 4998, 39984},
     {0.066189018017745377, 0.0096533120000000007, 0.006656564000000002,
      0, 0.056001429750000019, 0.0079287863857110744,
      0, 0, 0,
      0.14635913815345639},
     17, 0xcaa6e721ee0c6dc9ull},
    {"cb/ks/undirected",
     {33320, 14484, 0, 19002, 0, 28, 256,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 8321, 2499, 25520},
     {0.069607312911273075, 0.0096333200000000008, 0.011359324000000002,
      0, 0.052001187625000007, 0.012347060120720526,
      0, 0, 0,
      0.15490475265699363},
     29, 0x7fdf10741f516b48ull},
    {"cb/ks/directed",
     {53312, 24576, 0, 23904, 0, 28, 256,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 13320, 4998, 40514},
     {0.097045770376644969, 0.0096533120000000007, 0.011470336000000003,
      0, 0.064001494000000006, 0.012328484963161225,
      0, 0, 0,
      0.19442566933980626},
     29, 0x7fdf10741f516b48ull},
    {"im/apsp/undirected",
     {200504, 0, 0, 0, 0, 40, 384,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 50120, 0, 191694},
     {0.00060036644335570812, 0.022600504, 0,
      0, 0, 0.041799633556644303,
      0, 0, 0,
      0.065000503999999987},
     41, 0xd565199c7275bf94ull},
    {"im/apsp/directed",
     {320864, 0, 0, 0, 0, 40, 384,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 80216, 0, 306768},
     {0.0009462596223748683, 0.022720863999999993, 0,
      0, 0, 0.041453740377625149,
      0, 0, 0,
      0.065120864000000001},
     41, 0xd565199c7275bf94ull},
    {"im/ks/undirected",
     {225904, 96, 0, 0, 0, 72, 624,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 56470, 1060, 219066},
     {0.0006904997897899277, 0.033825904000000011, 0.0032010559999999999,
      0, 0, 0.06890950021021007,
      0, 0, 0,
      0.10662667199999996},
     73, 0x0406fd518fa30f1aull},
    {"im/ks/directed",
     {346264, 192, 0, 0, 0, 72, 624,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 86566, 1060, 336639},
     {0.0010360564312233303, 0.033946263999999997, 0.003202112,
      0, 0, 0.068563943568776653,
      0, 0, 0,
      0.10674779999999996},
     73, 0x0406fd518fa30f1aull},
    {"cb/apsp/undirected/model",
     {335545640, 134218256, 0, 184549750, 0, 16, 192,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 83886401, 25165923, 251659230},
     {30.881114681482092, 0.34514563999999998, 1.4828008160000001,
      0, 0.055534359374999981, 0.0016000000000000005,
      0, 0, 0,
      32.363540728857089},
     16, 0xdd2959d27776b653ull},
    {"cb/apsp/directed/model",
     {536873024, 234881948, 0, 234881500, 0, 16, 192,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 134218248, 50331846, 402654768},
     {42.884550371145892, 0.54647302400000008, 2.5901014280000005,
      0, 0.070680093749999992, 0.0016000000000000005,
      0, 0, 0,
      45.388759072895873},
     16, 0xdd2959d27776b653ull},
    {"cb/ks/undirected/model",
     {335545640, 134316756, 0, 184648122, 0, 28, 256,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 83886401, 25165923, 251708432},
     {30.344776351511541, 0.34514563999999998, 1.4886843160000001,
      0, 0.063540507624999978, 0.0039346362474228834,
      0, 0, 0,
      31.843131183383949},
     28, 0x1454be53b5a29c6full},
    {"cb/ks/directed/model",
     {536873024, 234980544, 0, 234979872, 0, 28, 256,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 134218248, 50331846, 402703970},
     {42.21635171234616, 0.54647302400000008, 2.5959859839999999,
      0, 0.078686242000000003, 0.0027999999999999991,
      0, 0, 0,
      44.735355330346152},
     28, 0x1454be53b5a29c6full},
    {"im/apsp/undirected/model",
     {2013274424, 0, 0, 0, 0, 40, 384,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 503318600, 0, 1929387534},
     {29.186697715704483, 2.0356744239999998, 0,
      0, 0, 0.0039999999999999975,
      0, 0, 0,
      31.226372139704484},
     40, 0x96fce03736b57f13ull},
    {"im/apsp/directed/model",
     {3221239136, 0, 0, 0, 0, 40, 384,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 805309784, 0, 3087020112},
     {41.836194460110256, 3.2436391359999992, 0,
      0, 0, 0.0039999999999999975,
      0, 0, 0,
      45.083833596110246},
     40, 0x96fce03736b57f13ull},
    {"im/ks/undirected/model",
     {2148575536, 96, 0, 0, 0, 72, 624,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 537143878, 24, 2081514906},
     {36.743947913836806, 2.1821755359999999, 0.0032010559999999999,
      0, 0, 0.0083157688067580539,
      0, 0, 0,
      38.937639986643582},
     72, 0x3c76d0121bde4853ull},
    {"im/ks/directed/model",
     {3356540248, 192, 0, 0, 0, 72, 624,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 839135062, 48, 3264313407},
     {49.767548349715142, 3.3901402479999994, 0.003202112,
      0, 0, 0.0072000000000000059,
      0, 0, 0,
      53.168090133715168},
     72, 0x3c76d0121bde4853ull},
    {"cb/ks/early-exit",
     {33320, 11985, 0, 16551, 0, 27, 240,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 8322, 2499, 25520},
     {0.057247023728004713, 0.0088333200000000004, 0.010531835000000002,
      0, 0.046001034437500005, 0.013836914208074392,
      0, 0, 0,
      0.13641417237357908},
     28, 0x8e9103e05419caedull},
    {"cb/ks/fail-node",
     {33320, 52044, 0, 55958, 0, 38, 316,
      0, 0, 6, 1, 0, 0, 4,
      0, 0, 0, 16642, 8330, 51040},
     {0.12062117829048641, 0.0096000000000000009, 0.016572484000000002,
      0, 0.17200349737499995, 0.019315020368196274,
      0.0014000000000000002, 0, 0,
      0.3379560480336829},
     39, 0x87b1b8eb5758862full},
    {"im/ks/early-exit",
     {179688, 96, 0, 0, 0, 60, 520,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 44919, 1060, 171896},
     {0.00055041461780210141, 0.028179688000000005, 0.0032010559999999999,
      0, 0, 0.057449585382197903,
      0, 0, 0,
      0.089380455999999983},
     61, 0x304bbe7a7236ce87ull},
    {"im/ks/fail-node",
     {226452, 37656, 0, 36956, 0, 84, 700,
      0, 0, 14, 1, 0, 0, 6,
      0, 0, 0, 112940, 8330, 438132},
     {0.0011702028321379692, 0.034801930000000002, 0.0084142160000000021,
      0, 0.12000230974999988, 0.077229797167862033,
      0.0032000000000000002, 0, 0,
      0.24150548775000025},
     85, 0xc026e89b837a8397ull},
    {"cb/apsp/checkpoint",
     {33320, 46648, 0, 50818, 0, 20, 224,
      0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 8321, 8330, 24990},
     {0.040729959690289391, 0.0096333200000000008, 0.010113128000000002,
      0, 0.13200317612499987, 0.011548987298527717,
      0, 0, 0,
      0.20388862711381725},
     21, 0x39afe202fd1c9bc5ull},
    {"cb/apsp/fail-node",
     {41650, 49980, 0, 56537, 0, 25, 280,
      0, 0, 56, 1, 1, 0, 12,
      0, 0, 0, 18722, 8330, 49980},
     {0.086580464639012894, 0.012008330000000001, 0.011749780000000005,
      0, 0.14600353356249993, 0.014400535149197391,
      0.031103617157592342, 0, 0,
      0.27059270335071062},
     26, 0x6097dee4bf662a66ull},
};

TEST(ModelledBehaviourGolden, BlockedPlanesKeepEveryModelledNumber) {
  const std::vector<GoldenCase> cases = GoldenCases();
  EXPECT_EQ(std::size(kGolden), cases.size()) << "golden table out of date";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    std::string stage_list;
    const GoldenRow actual = RunGoldenCase(cases[i], &stage_list);
    bool same = i < std::size(kGolden);
    if (same) {
      const GoldenRow& expected = kGolden[i];
      same = std::string(expected.name) == actual.name &&
             expected.counts == actual.counts &&
             expected.stages == actual.stages &&
             expected.stage_names == actual.stage_names;
      for (std::size_t s = 0; s < expected.seconds.size(); ++s) {
        same = same && std::abs(actual.seconds[s] - expected.seconds[s]) <=
                           1e-12 * std::abs(expected.seconds[s]);
      }
    }
    EXPECT_TRUE(same) << "actual row:\n"
                      << FormatRow(actual) << "\nstages:\n"
                      << stage_list;
  }
}

}  // namespace
}  // namespace apspark
