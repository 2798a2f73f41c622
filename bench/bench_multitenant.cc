// Multi-tenant fair scheduling under membership churn — end-to-end bench.
//
// Two KSSP tenants share one elastic cluster: job A sweeps the frontier on
// the impure staged-storage plane (checkpointed), job B on the pure
// shuffle-replicated plane. Each tenant first runs SOLO on a 4-node,
// 2-rack cluster that loses a whole rack mid-sweep and receives a
// replacement node a few stages later; the solo run must stay bitwise-equal
// to the scalar Floyd-Warshall oracle (integer weights: exact path sums)
// while its stage trace is recorded. The FairScheduler then replays both
// traces onto the shared cluster twice: once with memory headroom (pure
// fair slot sharing — the gated record) and once with the admission budget
// squeezed below the fattest stage peak, so admission waits and
// force-admit spill fire deterministically from the modelled numbers.
//
// Machine-readable results go to BENCH_multitenant.json (override via
// APSPARK_BENCH_JSON); the "multitenant" record's fair_makespan_seconds
// carries the schedule-quality gate bench/check_gates.py evaluates. Exits non-zero if any tenant loses bitwise equality, if fairness
// accounting is inconsistent, or if the fair makespan exceeds the serial
// baseline (fair sharing must never be worse than running the jobs back to
// back).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apsp/solvers/ksource_blocked.h"
#include "bench_util.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "linalg/dense_block.h"
#include "linalg/kernels.h"
#include "sparklet/fair_scheduler.h"
#include "sparklet/rdd.h"

namespace {

using namespace apspark;
using apsp::BlockLayout;
using apsp::KsourceBlockedSolver;
using apsp::KsourceOptions;
using apsp::KsourceVariant;
using linalg::DenseBlock;
using sparklet::ClusterConfig;
using sparklet::FairScheduler;
using sparklet::SparkletContext;
using sparklet::TenantJob;

constexpr std::int64_t kN = 96;
constexpr std::int64_t kBlock = 16;
constexpr std::int64_t kSources = 8;

/// The shared elastic cluster both tenants see: 4 nodes over 2 racks.
ClusterConfig TenantCluster() {
  auto cfg = ClusterConfig::TinyTest();
  cfg.nodes = 4;
  cfg.racks = 2;
  cfg.local_storage_bytes = 16ULL * kGiB;
  return cfg;
}

struct SoloRun {
  std::string plane;
  bool bitwise_equal = true;
  double sim_seconds = 0;
  std::uint64_t executor_failures = 0;
  std::uint64_t node_joins = 0;
  std::uint64_t migrated_partitions = 0;
  std::uint64_t migration_bytes = 0;
  TenantJob job;
};

/// Solo tenant run under a rack loss + replacement join, stage trace on.
/// Mirrors KsourceBlockedSolver::SolveGraph, which owns its context — the
/// trace needs a caller-owned one.
SoloRun RunSolo(const graph::Graph& g,
                const std::vector<graph::VertexId>& sources,
                KsourceVariant variant, const DenseBlock& oracle) {
  SoloRun run;
  run.plane = apsp::KsourceVariantName(variant);
  KsourceOptions opts;
  opts.block_size = kBlock;
  opts.variant = variant;
  opts.fail_racks = {{0, 12}};
  opts.add_nodes = {16};
  if (!KsourceBlockedSolver::Pure(variant)) opts.checkpoint_every = 2;

  const BlockLayout layout(g.num_vertices(), opts.block_size, g.directed());
  const DenseBlock frontier = linalg::FrontierPanel(
      g.num_vertices(),
      std::vector<std::int64_t>(sources.begin(), sources.end()));
  SparkletContext ctx(TenantCluster());
  ctx.cluster().EnableStageTrace();
  KsourceBlockedSolver solver;
  auto result =
      solver.Solve(ctx, layout, layout.Decompose(g.ToDenseAdjacency()),
                   apsp::DecomposeFrontier(layout, frontier), opts);
  if (!result.status.ok()) {
    std::fprintf(stderr, "%s solo run failed: %s\n", run.plane.c_str(),
                 result.status.ToString().c_str());
    run.bitwise_equal = false;
    return run;
  }
  const DenseBlock& panel = *result.distances;
  run.bitwise_equal =
      panel.rows() == oracle.rows() && panel.cols() == oracle.cols() &&
      std::memcmp(panel.data(), oracle.data(),
                  static_cast<std::size_t>(panel.size()) * sizeof(double)) ==
          0;
  run.sim_seconds = result.sim_seconds;
  run.executor_failures = result.metrics.executor_failures;
  run.node_joins = result.metrics.node_joins;
  run.migrated_partitions = result.metrics.migrated_partitions;
  run.migration_bytes = result.metrics.migration_bytes;
  run.job = {run.plane, ctx.cluster().stage_trace()};
  return run;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Multi-tenant KSSP under rack loss: solo traces, bitwise lock, "
      "fair-share replay with memory admission");

  const graph::Graph raw = graph::PaperErdosRenyi(kN, 41);
  graph::Graph g(raw.num_vertices(), raw.directed());
  for (const auto& e : raw.edges()) {
    g.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  std::vector<graph::VertexId> sources;
  for (std::int64_t j = 0; j < kSources; ++j) {
    sources.push_back(j * kN / kSources);
  }
  DenseBlock all = g.ToDenseAdjacency();
  linalg::ReferenceFloydWarshall(all);
  DenseBlock oracle(kN, kSources, linalg::kInf);
  for (std::int64_t v = 0; v < kN; ++v) {
    for (std::int64_t j = 0; j < kSources; ++j) {
      oracle.Set(v, j, all.At(sources[static_cast<std::size_t>(j)], v));
    }
  }

  std::printf("%10s %10s %8s %8s %10s %8s\n", "plane", "solo-time", "losses",
              "joins", "migrated", "exact");
  std::vector<SoloRun> solos;
  bool ok = true;
  for (const KsourceVariant variant : {KsourceVariant::kStagedStorage,
                                       KsourceVariant::kShuffleReplicated}) {
    SoloRun run = RunSolo(g, sources, variant, oracle);
    std::printf("%10s %10s %8llu %8llu %10llu %8s\n", run.plane.c_str(),
                FormatDuration(run.sim_seconds).c_str(),
                static_cast<unsigned long long>(run.executor_failures),
                static_cast<unsigned long long>(run.node_joins),
                static_cast<unsigned long long>(run.migrated_partitions),
                run.bitwise_equal ? "yes" : "NO");
    ok &= run.bitwise_equal;
    ok &= run.executor_failures == 2 && run.node_joins == 1;
    solos.push_back(std::move(run));
  }

  // The tenants' stage peaks come from the modelled accountant, so both
  // replay scenarios are fully deterministic. "fair" gives memory headroom
  // (2x the fattest stage peak): pure slot sharing, the makespan the
  // regression gate tracks. "tight" halves the fattest peak: peak stages
  // block each other (admission waits) and oversized loners force-admit
  // with spill — the memory-pressure path, surfaced via SimMetrics.
  std::uint64_t max_peak = 0;
  for (const SoloRun& run : solos) {
    for (const auto& stage : run.job.stages) {
      max_peak = std::max(max_peak, stage.node_peak_bytes);
    }
  }

  auto replay = [&](const char* label, std::uint64_t budget,
                    sparklet::SimMetrics* metrics) {
    auto shared = TenantCluster();
    shared.executor_memory_bytes = budget;
    FairScheduler scheduler(shared);
    const auto report = scheduler.Run({solos[0].job, solos[1].job}, metrics);
    bench::PrintHeader(std::string("Fair-share replay (") + label +
                       " budget: " + FormatBytes(budget) + ")");
    std::printf("fair makespan:   %s\n",
                FormatDuration(report.makespan_seconds).c_str());
    std::printf("serial baseline: %s\n",
                FormatDuration(report.serial_seconds).c_str());
    std::printf("admission wait:  %s   spilled: %s\n",
                FormatDuration(report.admission_wait_seconds).c_str(),
                FormatBytes(report.spilled_bytes).c_str());
    for (std::size_t j = 0; j < solos.size(); ++j) {
      std::printf("  %10s: finish %s, waited %s, min slots %d\n",
                  solos[j].plane.c_str(),
                  FormatDuration(report.job_finish_seconds[j]).c_str(),
                  FormatDuration(report.job_admission_wait_seconds[j]).c_str(),
                  report.job_min_slots[j]);
    }
    return report;
  };

  sparklet::SimMetrics metrics;
  const auto report = replay("fair", 2 * max_peak, &metrics);
  const auto tight = replay("tight", max_peak / 2, &metrics);
  std::printf("engine: %s\n", metrics.Summary().c_str());

  // With headroom, fair sharing is work-conserving: never slower than
  // back-to-back, and every tenant both finishes and is accounted.
  ok &= report.makespan_seconds <= report.serial_seconds + 1e-9;
  ok &= report.makespan_seconds > 0;
  ok &= report.spilled_bytes == 0;
  for (const double finish : report.job_finish_seconds) ok &= finish > 0;
  // Under pressure, the admission path must actually fire: waits accrue,
  // oversized stages spill, and the run still terminates.
  ok &= tight.admission_wait_seconds > 0;
  ok &= tight.spilled_bytes > 0;
  ok &= tight.makespan_seconds >= report.makespan_seconds;

  std::vector<bench::Record> records;
  for (const SoloRun& run : solos) {
    records.push_back(
        {bench::Format(
            "\"section\": \"solo\", \"plane\": \"%s\", "
            "\"sim_seconds\": %.6f, \"executor_failures\": %llu, "
            "\"node_joins\": %llu, \"migrated_partitions\": %llu, "
            "\"migration_bytes\": %llu, "
            "\"bitwise_equal_to_reference\": %s",
            run.plane.c_str(), run.sim_seconds,
            static_cast<unsigned long long>(run.executor_failures),
            static_cast<unsigned long long>(run.node_joins),
            static_cast<unsigned long long>(run.migrated_partitions),
            static_cast<unsigned long long>(run.migration_bytes),
            run.bitwise_equal ? "true" : "false"),
         {}});
  }
  records.push_back(
      {bench::Format("\"section\": \"multitenant\", \"tenants\": 2, "
                     "\"fair_makespan_seconds\": %.6f, "
                     "\"serial_seconds\": %.6f, "
                     "\"admission_wait_seconds\": %.6f, "
                     "\"spilled_bytes\": %llu, "
                     "\"bitwise_equal_to_reference\": %s",
                     report.makespan_seconds, report.serial_seconds,
                     report.admission_wait_seconds,
                     static_cast<unsigned long long>(report.spilled_bytes),
                     ok ? "true" : "false"),
       // Modelled virtual time, identical on any runner, so 10% holds
       // everywhere: growth means the fair scheduler packs the two
       // tenants' stages worse.
       {bench::Relative("multitenant_fair_makespan", "fair_makespan_seconds",
                        bench::Better::kLower, 0.10, 0.10)}});
  records.push_back(
      {bench::Format("\"section\": \"multitenant_tight\", \"tenants\": 2, "
                     "\"tight_makespan_seconds\": %.6f, "
                     "\"admission_wait_seconds\": %.6f, "
                     "\"spilled_bytes\": %llu",
                     tight.makespan_seconds, tight.admission_wait_seconds,
                     static_cast<unsigned long long>(tight.spilled_bytes)),
       {}});
  if (!bench::WriteBenchJson("bench_multitenant", "BENCH_multitenant.json",
                             records)) {
    return 1;
  }

  if (!ok) {
    std::fprintf(stderr,
                 "\nFAIL: bitwise lock or fairness invariant violated\n");
    return 1;
  }
  std::printf("\nall multi-tenant invariants hold\n");
  return 0;
}
