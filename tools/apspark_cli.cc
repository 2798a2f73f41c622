// apspark — command-line driver for the library.
//
// Explicit subcommands, each with its own flag set and --help:
//
//   apspark solve   solve APSP (or k-source) on real data; optionally
//                   persist the result as a disk-backed block store
//   apspark plan    recommend a solver/block-size configuration
//   apspark model   paper-scale phantom run, projected time + metrics
//   apspark serve   answer distance/path queries from a persisted store
//
// Flags that do not apply to the chosen subcommand are rejected with a
// pointer to that subcommand's --help. Errors from the library surface
// uniformly as "apspark: <STATUS>: <message>".
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "apsp/tuner.h"
#include "common/rng.h"
#include "common/time_utils.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/kernel_registry.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "store/distance_service.h"

namespace {

using namespace apspark;

// ------------------------------------------------------------ subcommands

enum Cmd : unsigned {
  kSolve = 1u << 0,
  kPlan = 1u << 1,
  kModel = 1u << 2,
  kServe = 1u << 3,
};

struct CmdSpec {
  const char* name;
  Cmd bit;
};

constexpr CmdSpec kCommands[] = {
    {"solve", kSolve}, {"plan", kPlan}, {"model", kModel}, {"serve", kServe}};

/// Which subcommands accept each flag; parsing rejects a flag whose mask
/// does not include the chosen subcommand.
struct FlagSpec {
  const char* name;
  bool takes_value;
  unsigned mask;
};

constexpr FlagSpec kFlags[] = {
    {"--er", true, kSolve},
    {"--n", true, kSolve | kPlan | kModel},
    {"--seed", true, kSolve | kServe},
    {"--input", true, kSolve},
    {"--output", true, kSolve | kServe},
    {"--solver", true, kSolve | kModel},
    {"--partitioner", true, kSolve},
    {"--block", true, kSolve | kModel},
    {"--cores", true, kSolve | kPlan | kModel},
    {"--rounds", true, kModel},
    {"--sources", true, kSolve | kModel},
    {"--checkpoint-every", true, kSolve | kModel},
    {"--intra-task-cores", true, kSolve | kModel},
    {"--kernel", true, kSolve},
    {"--isa", true, kSolve | kPlan | kModel},
    {"--semiring", true, kSolve | kModel},
    {"--ksource-variant", true, kSolve | kModel},
    {"--no-early-exit", false, kSolve | kModel},
    {"--fail-node", true, kSolve | kModel},
    {"--fail-rack", true, kSolve | kModel},
    {"--add-node", true, kSolve | kModel},
    {"--racks", true, kSolve | kModel},
    {"--straggler-factor", true, kSolve | kModel},
    {"--straggler-every", true, kSolve | kModel},
    {"--speculate", false, kSolve | kModel},
    {"--directed", false, kSolve | kModel},
    {"--fault-tolerant", false, kSolve | kPlan | kModel},
    {"--persist", true, kSolve},
    {"--no-paths", false, kSolve},
    {"--store", true, kServe},
    {"--queries", true, kServe},
    {"--random", true, kServe},
    {"--zipf", true, kServe},
    {"--threads", true, kServe},
    {"--cache-mb", true, kServe},
    {"--path", true, kServe},
    {"--stats-every", true, kServe},
    {"--trace", true, kSolve | kPlan | kModel | kServe},
    {"--metrics-out", true, kSolve | kModel | kServe},
    {"--help", false, kSolve | kPlan | kModel | kServe},
};

struct Args {
  Cmd command = kSolve;
  std::string command_name;
  std::int64_t n = 0;
  std::uint64_t seed = 1;
  std::string input;
  std::string output;
  std::string solver;  // empty = cb; the k-source plane comes from
                       // --ksource-variant instead
  std::string partitioner = "md";
  std::int64_t block = 0;  // 0 = auto
  /// Absent: 4 modelled cores on solve and plan, the paper's 1024 on model.
  std::optional<int> cores;
  std::int64_t rounds = 0;
  std::int64_t sources = 0;  // > 0 selects the batched k-source workload
  std::int64_t checkpoint_every = 0;
  int intra_task_cores = 1;
  bool directed = false;
  bool fault_tolerant = false;
  std::string kernel = "tiled_parallel";
  /// Micro-kernel ISA: scalar|avx2|avx512|auto (auto = CPUID-detected best,
  /// or APSPARK_FORCE_ISA). Pin `--isa scalar` when bisecting a kernel bug.
  std::string isa = "auto";
  std::string semiring = "minplus";
  std::string ksource_variant = "staged";
  bool no_early_exit = false;
  /// Injected executor losses: --fail-node N@S (repeatable).
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  /// Correlated failures: --fail-rack R@S kills every node of rack R.
  std::vector<sparklet::RackFailurePlan> fail_racks;
  /// Elastic membership: --add-node @S joins a replacement node.
  std::vector<std::int64_t> add_nodes;
  /// Rack count for failure-domain mapping (--racks R).
  int racks = 1;
  double straggler_factor = 1.0;
  int straggler_every = 8;
  bool speculate = false;
  // solve: persistence
  std::string persist;
  bool no_paths = false;
  // serve
  std::string store_dir;
  std::string queries_file;
  std::int64_t random_queries = 0;
  double zipf_theta = 0.0;  // 0 = uniform
  std::size_t threads = 0;
  std::uint64_t cache_mb = 256;
  std::vector<std::pair<graph::VertexId, graph::VertexId>> path_queries;
  /// serve --random: print a progress/latency line every N queries (0 = off).
  std::int64_t stats_every = 0;
  /// Chrome trace-event JSON capture (all subcommands; empty = off).
  std::string trace_file;
  /// Metrics registry dump: JSON, or Prometheus text when FILE ends ".prom".
  std::string metrics_out;
  bool help = false;
};

void UsageSolve() {
  std::fprintf(
      stderr,
      "usage: apspark solve --er N [--seed S] | --input FILE\n"
      "  [--solver rs|fw2d|im|cb] [--block B]\n"
      "  [--partitioner md|ph] [--cores C] [--directed]\n"
      "  [--output FILE] [--checkpoint-every K]\n"
      "  [--persist DIR]  write the solved result as a disk-backed block\n"
      "          store DIR that `apspark serve` answers queries from\n"
      "  [--no-paths]  persist distances only (skip the successor plane)\n"
      "  [--sources K]  k-source mode (n x K frontier; not with\n"
      "          --solver or --persist)\n"
      "  [--ksource-variant staged|shuffle|auto]  pivot data plane:\n"
      "          Blocked-CB's shared-storage staging (impure), Blocked-IM's\n"
      "          pure shuffle, or the modelled cheaper of the two\n"
      "  [--no-early-exit]  disable the all-infinite pivot\n"
      "          early-exit sweep (k-source mode)\n"
      "  [--kernel naive|tiled|tiled_parallel]  host kernels (default\n"
      "          tiled_parallel: every core; tiled and naive are\n"
      "          single-thread baselines)\n"
      "  [--isa scalar|avx2|avx512|auto]  micro-kernel instruction set\n"
      "          (auto = CPUID-detected best; all choices are bitwise-\n"
      "          identical — pin scalar when bisecting a kernel bug)\n"
      "  [--semiring minplus|boolean|maxmin|maxtimes]\n"
      "          algebra the solve evaluates: shortest path,\n"
      "          reachability, bottleneck capacity, or widest path\n"
      "  [--intra-task-cores C]  modelled cores per task\n"
      "  [--fail-node N@S] [--fail-rack R@S] [--add-node @S] [--racks R]\n"
      "          injected failures / elastic membership (repeatable)\n"
      "  [--straggler-factor F] [--straggler-every K] [--speculate]\n"
      "  [--trace FILE]  capture a dual-clock Chrome trace-event JSON\n"
      "          (load in Perfetto / chrome://tracing)\n"
      "  [--metrics-out FILE]  dump the metrics registry after the run\n"
      "          (JSON, or Prometheus text when FILE ends in .prom)\n");
}

void UsagePlan() {
  std::fprintf(stderr,
               "usage: apspark plan --n N [--cores C] [--fault-tolerant]\n"
               "  [--isa scalar|avx2|avx512|auto] [--trace FILE]\n"
               "  also prints the resolved kernel tuning (detected ISA,\n"
               "  tile geometry)\n");
}

void UsageModel() {
  std::fprintf(
      stderr,
      "usage: apspark model --n N [--cores C] [--solver rs|fw2d|im|cb]\n"
      "  [--block B] [--rounds R] [--sources K] [--ksource-variant V]\n"
      "  [--semiring S] [--intra-task-cores C]\n"
      "  [--isa scalar|avx2|avx512|auto]\n"
      "  [--fail-node N@S] [--fail-rack R@S] [--add-node @S] [--racks R]\n"
      "  [--checkpoint-every K] [--straggler-factor F]\n"
      "  [--straggler-every K] [--speculate] [--directed]\n"
      "  [--trace FILE] [--metrics-out FILE]\n"
      "  --sources K runs k-source on the --ksource-variant plane\n"
      "  (not with --solver); auto picks the cheaper modelled plane\n");
}

void UsageServe() {
  std::fprintf(
      stderr,
      "usage: apspark serve --store DIR [options]\n"
      "  --queries FILE   answer one \"s t\" query per line\n"
      "  --random N       answer N random queries and report QPS\n"
      "  --zipf THETA     skew the random workload: vertices drawn\n"
      "                   Zipf(THETA) (hot-vertex traffic; 0 = uniform)\n"
      "  --path S:T       print a shortest S->T vertex path (repeatable)\n"
      "  --threads T      lookup worker threads (0 = hardware)\n"
      "  --cache-mb MB    resident block-cache cap (default 256)\n"
      "  --seed S         RNG seed for --random\n"
      "  --output FILE    write per-query answers here instead of stdout\n"
      "  --stats-every N  print a progress + latency-percentile line every\n"
      "                   N random queries (0 = only the final report)\n"
      "  --trace FILE     capture a Chrome trace-event JSON of the serve run\n"
      "  --metrics-out FILE  dump serve-path latency histograms and cache\n"
      "                   counters (JSON, or Prometheus when FILE ends .prom)\n");
}

int Usage(const Args& args) {
  switch (args.command) {
    case kSolve:
      UsageSolve();
      break;
    case kPlan:
      UsagePlan();
      break;
    case kModel:
      UsageModel();
      break;
    case kServe:
      UsageServe();
      break;
  }
  return args.help ? 0 : 2;
}

int UsageTop() {
  std::fprintf(stderr,
               "usage: apspark solve|plan|model|serve [options]\n"
               "  solve   solve APSP / k-source on real data ([--persist DIR]\n"
               "          writes a serving store)\n"
               "  plan    recommend a solver configuration\n"
               "  model   paper-scale phantom run\n"
               "  serve   answer distance/path queries from a store\n"
               "run `apspark <command> --help` for that command's flags\n");
  return 2;
}

/// Resolves --isa into the process-global kernel tuning before
/// a run (solvers pick it up through the registry). Returns false, after
/// printing an error, on an unknown ISA name.
bool ApplyKernelTuningFlags(const Args& args) {
  const auto isa = linalg::ParseSimdIsa(args.isa);
  if (!isa.has_value()) {
    std::fprintf(stderr,
                 "apspark: unknown --isa '%s' (want scalar|avx2|avx512|auto)\n",
                 args.isa.c_str());
    return false;
  }
  linalg::KernelTuning tuning = linalg::GetKernelTuning();
  tuning.isa = *isa;
  linalg::SetKernelTuning(tuning);
  return true;
}

/// The solve-banner / plan line recording what geometry and ISA actually
/// ran. `variant` overrides the registry variant in the rendering when the
/// caller selects one per run (--kernel), which solvers apply at solve time.
void PrintKernelTuning(
    std::optional<linalg::KernelVariant> variant = std::nullopt) {
  linalg::KernelTuning tuning = linalg::GetKernelTuning();
  if (variant.has_value()) tuning.variant = *variant;
  std::printf("kernels: %s\n", linalg::DescribeKernelTuning(tuning).c_str());
}

/// Uniform error surface: every library Status prints the same way.
int Fail(const Status& status) {
  std::fprintf(stderr, "apspark: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

/// --metrics-out: dumps the global registry. The format follows the file
/// name — Prometheus text exposition for ".prom", JSON otherwise — so the
/// same flag feeds both jq pipelines and a node-exporter textfile collector.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "apspark: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  const bool prometheus =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  out << (prometheus ? obs::Registry::Global().ToPrometheus()
                     : obs::Registry::Global().ToJson());
  if (!prometheus) out << '\n';
  std::printf("metrics written to %s\n", path.c_str());
  return true;
}

/// Publishes a finished run's SimMetrics into the registry and honours
/// --metrics-out. Returns false only on a write failure.
bool EmitRunMetrics(const Args& args, const sparklet::SimMetrics& metrics) {
  if (args.metrics_out.empty()) return true;
  metrics.Publish();
  return WriteMetricsFile(args.metrics_out);
}

/// Serve latencies live in the ns..ms range FormatDuration (built for the
/// paper's minutes-scale tables) floors to "0ms"; render adaptively.
std::string FormatLatency(double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.0fns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", seconds);
  }
  return buf;
}

/// One serve-path latency line per histogram that actually saw traffic:
/// real measured percentiles from the always-on log-bucketed histograms.
void PrintServeLatency(const store::DistanceService& svc) {
  const struct {
    const char* what;
    store::DistanceService::LatencySnapshot snap;
  } rows[] = {{"point", svc.PointLatency()},
              {"batch", svc.BatchLatency()},
              {"path", svc.PathLatency()}};
  for (const auto& row : rows) {
    if (row.snap.count == 0) continue;
    std::printf("latency[%s]: p50 %s, p95 %s, p99 %s, p99.9 %s (%llu ops)\n",
                row.what, FormatLatency(row.snap.p50_seconds).c_str(),
                FormatLatency(row.snap.p95_seconds).c_str(),
                FormatLatency(row.snap.p99_seconds).c_str(),
                FormatLatency(row.snap.p999_seconds).c_str(),
                static_cast<unsigned long long>(row.snap.count));
  }
}

const FlagSpec* FindFlag(const std::string& flag) {
  for (const auto& spec : kFlags) {
    if (flag == spec.name) return &spec;
  }
  return nullptr;
}

/// Parses all of `text` as a T no smaller than `min` (std::from_chars: no
/// sign for unsigned types, no whitespace or trailing characters, in range,
/// finite). On error prints which flag was wrong and returns false.
template <typename T>
bool ParseNumber(const std::string& flag, std::string_view text, T min,
                 T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (text.empty() || ec != std::errc() || ptr != end || !(out >= min) ||
      !std::isfinite(static_cast<double>(out))) {
    std::fprintf(stderr,
                 "apspark: %s expects a finite number >= %g, got '%s'\n",
                 flag.c_str(), static_cast<double>(min),
                 std::string(text).c_str());
    return false;
  }
  return true;
}

/// Parses "A<sep>B" into two non-negative integers.
template <typename A, typename B>
bool ParsePair(const std::string& flag, std::string_view text, char sep,
               A& first, B& second) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) {
    std::fprintf(stderr, "apspark: %s expects X%cY, got '%s'\n",
                 flag.c_str(), sep, std::string(text).c_str());
    return false;
  }
  return ParseNumber(flag, text.substr(0, at), A{0}, first) &&
         ParseNumber(flag, text.substr(at + 1), B{0}, second);
}

bool ParseArgs(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  const std::string cmd = argv[1];
  bool known_command = false;
  for (const auto& spec : kCommands) {
    if (cmd == spec.name) {
      args.command = spec.bit;
      args.command_name = spec.name;
      known_command = true;
      break;
    }
  }
  if (!known_command) {
    if (cmd != "--help" && cmd != "-h") {
      std::fprintf(stderr, "apspark: unknown command '%s'\n", cmd.c_str());
    }
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const FlagSpec* spec = FindFlag(flag);
    if (spec == nullptr) {
      std::fprintf(stderr, "apspark: unknown flag %s\n", flag.c_str());
      std::fprintf(stderr, "see `apspark %s --help`\n",
                   args.command_name.c_str());
      return false;
    }
    if ((spec->mask & args.command) == 0) {
      std::fprintf(stderr, "apspark: %s does not apply to '%s'\n",
                   flag.c_str(), args.command_name.c_str());
      std::fprintf(stderr, "see `apspark %s --help`\n",
                   args.command_name.c_str());
      return false;
    }
    const char* v = nullptr;
    if (spec->takes_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "apspark: %s expects a value\n", flag.c_str());
        return false;
      }
      v = argv[++i];
    }
    bool ok = true;
    if (flag == "--er" || flag == "--n") {
      ok = ParseNumber<std::int64_t>(flag, v, 1, args.n);
    } else if (flag == "--seed") {
      ok = ParseNumber<std::uint64_t>(flag, v, 0, args.seed);
    } else if (flag == "--input") {
      args.input = v;
    } else if (flag == "--output") {
      args.output = v;
    } else if (flag == "--solver") {
      args.solver = v;
    } else if (flag == "--partitioner") {
      args.partitioner = v;
    } else if (flag == "--block") {
      ok = ParseNumber<std::int64_t>(flag, v, 1, args.block);
    } else if (flag == "--cores") {
      ok = ParseNumber(flag, v, 1, args.cores.emplace());
    } else if (flag == "--rounds") {
      ok = ParseNumber<std::int64_t>(flag, v, 1, args.rounds);
    } else if (flag == "--sources") {
      ok = ParseNumber<std::int64_t>(flag, v, 1, args.sources);
    } else if (flag == "--checkpoint-every") {
      ok = ParseNumber<std::int64_t>(flag, v, 0, args.checkpoint_every);
    } else if (flag == "--intra-task-cores") {
      ok = ParseNumber(flag, v, 1, args.intra_task_cores);
    } else if (flag == "--kernel") {
      args.kernel = v;
    } else if (flag == "--isa") {
      args.isa = v;
    } else if (flag == "--semiring") {
      args.semiring = v;
    } else if (flag == "--ksource-variant") {
      args.ksource_variant = v;
    } else if (flag == "--no-early-exit") {
      args.no_early_exit = true;
    } else if (flag == "--fail-node") {
      sparklet::NodeFailurePlan plan;
      ok = ParsePair(flag, v, '@', plan.node, plan.at_stage);
      args.fail_nodes.push_back(plan);
    } else if (flag == "--fail-rack") {
      sparklet::RackFailurePlan plan;
      ok = ParsePair(flag, v, '@', plan.rack, plan.at_stage);
      args.fail_racks.push_back(plan);
    } else if (flag == "--add-node") {
      std::int64_t at_stage = 0;
      if (v[0] != '@') {
        std::fprintf(stderr, "--add-node expects @STAGE, got '%s'\n", v);
        return false;
      }
      ok = ParseNumber<std::int64_t>(flag, v + 1, 0, at_stage);
      args.add_nodes.push_back(at_stage);
    } else if (flag == "--racks") {
      ok = ParseNumber(flag, v, 1, args.racks);
    } else if (flag == "--straggler-factor") {
      ok = ParseNumber(flag, v, 1.0, args.straggler_factor);
    } else if (flag == "--straggler-every") {
      ok = ParseNumber(flag, v, 1, args.straggler_every);
    } else if (flag == "--speculate") {
      args.speculate = true;
    } else if (flag == "--directed") {
      args.directed = true;
    } else if (flag == "--fault-tolerant") {
      args.fault_tolerant = true;
    } else if (flag == "--persist") {
      args.persist = v;
    } else if (flag == "--no-paths") {
      args.no_paths = true;
    } else if (flag == "--store") {
      args.store_dir = v;
    } else if (flag == "--queries") {
      args.queries_file = v;
    } else if (flag == "--random") {
      ok = ParseNumber<std::int64_t>(flag, v, 0, args.random_queries);
    } else if (flag == "--zipf") {
      ok = ParseNumber(flag, v, 0.0, args.zipf_theta);
    } else if (flag == "--threads") {
      ok = ParseNumber<std::size_t>(flag, v, 0, args.threads);
    } else if (flag == "--cache-mb") {
      ok = ParseNumber<std::uint64_t>(flag, v, 1, args.cache_mb);
    } else if (flag == "--path") {
      std::pair<graph::VertexId, graph::VertexId> query;
      ok = ParsePair(flag, v, ':', query.first, query.second);
      args.path_queries.push_back(query);
    } else if (flag == "--stats-every") {
      ok = ParseNumber<std::int64_t>(flag, v, 0, args.stats_every);
    } else if (flag == "--trace") {
      args.trace_file = v;
    } else if (flag == "--metrics-out") {
      args.metrics_out = v;
    } else if (flag == "--help") {
      args.help = true;
      return false;  // routes to the subcommand usage, exit 0
    }
    if (!ok) return false;
  }
  // A k-source run's data plane comes from --ksource-variant, and its n x k
  // panel is not a servable store.
  if (args.sources > 0 && (!args.solver.empty() || !args.persist.empty())) {
    std::fprintf(stderr, "apspark: %s does not apply with --sources\n",
                 args.solver.empty() ? "--persist" : "--solver");
    return false;
  }
  return true;
}

/// Writes a matrix/panel as whitespace-separated rows with full double
/// precision (the --output format of both the APSP and k-source modes).
bool WriteDenseBlock(const std::string& path, const linalg::DenseBlock& d) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out.precision(17);
  for (std::int64_t i = 0; i < d.rows(); ++i) {
    for (std::int64_t j = 0; j < d.cols(); ++j) {
      out << d.At(i, j) << (j + 1 == d.cols() ? '\n' : ' ');
    }
  }
  return true;
}

/// Deterministic source set for --sources K: evenly spread over the vertex
/// range (duplicates appear when K > n, which the solver permits).
std::vector<graph::VertexId> PickSources(std::int64_t n, std::int64_t k) {
  std::vector<graph::VertexId> sources;
  sources.reserve(static_cast<std::size_t>(k));
  for (std::int64_t j = 0; j < k; ++j) sources.push_back(j * n / k);
  return sources;
}

Result<apsp::SolverKind> ParseSolver(const std::string& name) {
  if (name == "rs") return apsp::SolverKind::kRepeatedSquaring;
  if (name == "fw2d") return apsp::SolverKind::kFloydWarshall2d;
  if (name == "im") return apsp::SolverKind::kBlockedInMemory;
  if (name == "cb") return apsp::SolverKind::kBlockedCollectBroadcast;
  return InvalidArgumentError("unknown solver '" + name + "'");
}

Result<apsp::PartitionerKind> ParsePartitioner(const std::string& name) {
  if (name == "md") return apsp::PartitionerKind::kMultiDiagonal;
  if (name == "ph") return apsp::PartitionerKind::kPortableHash;
  return InvalidArgumentError("unknown partitioner '" + name + "'");
}

/// Sets the durability/fault/membership schedule all workloads share.
void BuildRunPlan(const Args& args, apsp::ApspOptions& options) {
  options.checkpoint_every = args.checkpoint_every;
  options.fail_nodes = args.fail_nodes;
  options.fail_racks = args.fail_racks;
  options.add_nodes = args.add_nodes;
}

/// --intra-task-cores spends an executor's own cores on one task; it cannot
/// ask for more cores than a node has. Rejected here instead of modelling a
/// task wider than its executor.
bool ValidateIntraTaskCores(const sparklet::ClusterConfig& cluster) {
  if (cluster.intra_task_cores <= cluster.cores_per_node) return true;
  std::fprintf(stderr,
               "--intra-task-cores %d: exceeds the %d cores of a node\n",
               cluster.intra_task_cores, cluster.cores_per_node);
  return false;
}

/// Membership plans that parse fine can still be nonsense for the actual
/// cluster: a node or rack id past the config, or the same plan armed twice
/// at one stage boundary (it would silently be a no-op — the second loss
/// finds the node already dead). Rejected here with a clear error instead.
bool ValidateMembershipPlans(const Args& args,
                             const sparklet::ClusterConfig& cluster) {
  for (std::size_t i = 0; i < args.fail_nodes.size(); ++i) {
    const auto& plan = args.fail_nodes[i];
    if (plan.node >= cluster.nodes) {
      std::fprintf(stderr,
                   "--fail-node %d@%lld: node out of range for a %d-node "
                   "cluster (valid: 0..%d)\n",
                   plan.node, static_cast<long long>(plan.at_stage),
                   cluster.nodes, cluster.nodes - 1);
      return false;
    }
    for (std::size_t j = i + 1; j < args.fail_nodes.size(); ++j) {
      if (args.fail_nodes[j].node == plan.node &&
          args.fail_nodes[j].at_stage == plan.at_stage) {
        std::fprintf(stderr,
                     "--fail-node %d@%lld given twice: a node dies once per "
                     "stage boundary\n",
                     plan.node, static_cast<long long>(plan.at_stage));
        return false;
      }
    }
  }
  for (std::size_t i = 0; i < args.fail_racks.size(); ++i) {
    const auto& plan = args.fail_racks[i];
    if (plan.rack >= args.racks) {
      std::fprintf(stderr,
                   "--fail-rack %d@%lld: rack out of range for --racks %d "
                   "(valid: 0..%d)\n",
                   plan.rack, static_cast<long long>(plan.at_stage),
                   args.racks, args.racks - 1);
      return false;
    }
    for (std::size_t j = i + 1; j < args.fail_racks.size(); ++j) {
      if (args.fail_racks[j].rack == plan.rack &&
          args.fail_racks[j].at_stage == plan.at_stage) {
        std::fprintf(stderr,
                     "--fail-rack %d@%lld given twice: a rack dies once per "
                     "stage boundary\n",
                     plan.rack, static_cast<long long>(plan.at_stage));
        return false;
      }
    }
  }
  return true;
}

/// Fault-tolerance report: printed whenever the run saw failures, replays,
/// restarts, speculation, or membership churn.
void PrintRecovery(const sparklet::SimMetrics& m) {
  if (m.executor_failures == 0 && m.recomputed_tasks == 0 &&
      m.task_retries == 0 && m.job_restarts == 0 &&
      m.speculative_tasks == 0 && m.migrated_partitions == 0 &&
      m.node_joins == 0) {
    return;
  }
  std::printf(
      "recovery: %llu executor losses, %llu recomputed tasks, "
      "%llu task retries, %llu checkpoint restarts, %llu speculative "
      "copies, %s of redone work\n",
      static_cast<unsigned long long>(m.executor_failures),
      static_cast<unsigned long long>(m.recomputed_tasks),
      static_cast<unsigned long long>(m.task_retries),
      static_cast<unsigned long long>(m.job_restarts),
      static_cast<unsigned long long>(m.speculative_tasks),
      FormatDuration(m.recovery_seconds).c_str());
  if (m.migrated_partitions > 0 || m.node_joins > 0) {
    std::printf(
        "rebalance: %llu node joins, %llu partitions rehomed, %s migrated "
        "in %s\n",
        static_cast<unsigned long long>(m.node_joins),
        static_cast<unsigned long long>(m.migrated_partitions),
        FormatBytes(m.migration_bytes).c_str(),
        FormatDuration(m.rebalance_seconds).c_str());
  }
}

/// The k-source data plane a solver kind runs (--ksource-variant spelling).
const char* PlaneName(apsp::SolverKind kind) {
  return kind == apsp::SolverKind::kBlockedInMemory ? "shuffle" : "staged";
}

/// The solver a run uses. With --sources it is the data plane from
/// --ksource-variant: staged is Blocked-CB's, shuffle Blocked-IM's, and
/// auto the kind the tuner models as cheaper at this n, k and b
/// (apsp/tuner.h); --partitioner still decides the partitioner.
Result<apsp::SolverKind> ResolveSolver(const Args& args, std::int64_t n,
                                       std::int64_t block_size,
                                       const sparklet::ClusterConfig& cluster) {
  if (args.sources == 0) {
    return ParseSolver(args.solver.empty() ? "cb" : args.solver);
  }
  if (args.ksource_variant == "staged") {
    return apsp::SolverKind::kBlockedCollectBroadcast;
  }
  if (args.ksource_variant == "shuffle") {
    return apsp::SolverKind::kBlockedInMemory;
  }
  if (args.ksource_variant != "auto") {
    return InvalidArgumentError("unknown ksource variant '" +
                                args.ksource_variant + "'");
  }
  apsp::TuneRequest request;
  request.n = n;
  request.num_sources = args.sources;
  request.cluster = cluster;
  request.block_sizes = {block_size};
  request.require_fault_tolerance = args.fault_tolerant;
  request.directed = args.directed;
  auto chosen = apsp::TuneConfiguration(request);
  if (!chosen.ok()) return chosen.status();
  std::printf("auto-selected ksource data plane: %s\n",
              PlaneName(chosen->solver));
  return chosen->solver;
}

/// The banner's note that a boolean APSP solve runs on the bit-packed plane
/// (k-source panels stay dense).
const char* PackedLabel(const Args& args, const apsp::ApspOptions& options) {
  return args.sources == 0 && options.semiring == linalg::SemiringId::kBoolean
             ? " bit-packed"
             : "";
}

/// The banner's k-source clause ("" for APSP).
std::string KsourceLabel(const Args& args, apsp::SolverKind kind) {
  if (args.sources == 0) return "";
  return " k-source (k = " + std::to_string(args.sources) + ", " +
         PlaneName(kind) + " plane)";
}

/// K-source runs also report their memory high water, which includes the
/// final panel collect (see SolveBlocks).
void PrintKsourceMemory(const Args& args, const sparklet::SimMetrics& m) {
  if (args.sources == 0) return;
  std::printf("memory: driver high-water %s, node high-water %s\n",
              FormatBytes(m.driver_peak_bytes).c_str(),
              FormatBytes(m.node_peak_bytes).c_str());
}

/// The process's minor page faults so far and its peak RSS in bytes, from
/// getrusage: what the host actually paid next to the modelled mem-peak.
struct HostUsage {
  std::uint64_t minor_faults = 0;
  std::uint64_t peak_rss_bytes = 0;
};

HostUsage ReadHostUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<std::uint64_t>(ru.ru_minflt),
          static_cast<std::uint64_t>(ru.ru_maxrss) * 1024};  // KiB on Linux
}

int RunSolve(const Args& args) {
  graph::Graph g(0);
  if (!args.input.empty()) {
    auto loaded = graph::ReadEdgeListTextFile(args.input);
    if (!loaded.ok()) return Fail(loaded.status());
    g = *loaded;
  } else if (args.n > 0) {
    g = graph::ErdosRenyi(args.n, graph::PaperEdgeProbability(args.n),
                          {1.0, 10.0}, args.seed, args.directed);
  } else {
    return Usage(args);
  }
  auto partitioner = ParsePartitioner(args.partitioner);
  if (!partitioner.ok()) return Fail(partitioner.status());
  const auto semiring = linalg::ParseSemiring(args.semiring);
  if (!semiring.has_value()) {
    return Fail(InvalidArgumentError("unknown semiring '" + args.semiring +
                                     "'"));
  }

  apsp::SolveRequest request;
  auto& options = request.options;
  options.semiring = *semiring;
  options.block_size =
      args.block > 0 ? args.block
                     : std::max<std::int64_t>(1, g.num_vertices() / 4);
  options.partitioner = *partitioner;
  options.directed = args.directed;
  options.early_exit_infinite = !args.no_early_exit;
  BuildRunPlan(args, options);
  request.sources = PickSources(g.num_vertices(), args.sources);
  auto& cluster = request.cluster;
  cluster.nodes = std::max(1, args.cores.value_or(4) / 2);
  cluster.cores_per_node = 2;
  cluster.local_storage_bytes = 64ULL * kGiB;
  const auto kernel = linalg::ParseKernelVariant(args.kernel);
  if (!kernel.has_value()) {
    return Fail(InvalidArgumentError("unknown kernel variant '" + args.kernel +
                                     "'"));
  }
  cluster.kernel_variant = *kernel;
  // The host work after the solve (successor plane, store writes) follows
  // the same selection.
  linalg::SetKernelVariant(*kernel);
  cluster.intra_task_cores = args.intra_task_cores;
  cluster.straggler_factor = args.straggler_factor;
  cluster.straggler_every = args.straggler_every;
  cluster.speculation = args.speculate;
  cluster.racks = args.racks;
  if (!ValidateIntraTaskCores(cluster) ||
      !ValidateMembershipPlans(args, cluster)) {
    return 2;
  }

  auto kind = ResolveSolver(args, g.num_vertices(), options.block_size,
                            cluster);
  if (!kind.ok()) return Fail(kind.status());
  request.solver = *kind;

  const HostUsage before = ReadHostUsage();
  auto report = apsp::Solve(g, request);
  const HostUsage after = ReadHostUsage();
  if (!report.ok()) return Fail(report.status());
  std::printf("solving %s%s with %s (b = %lld%s, %s%s)\n",
              g.Summary().c_str(), KsourceLabel(args, *kind).c_str(),
              report.solver_name.c_str(),
              static_cast<long long>(options.block_size),
              report.pure ? ", pure" : ", impure",
              linalg::SemiringName(options.semiring),
              PackedLabel(args, options));
  PrintKernelTuning(*kernel);
  std::printf("done: %lld %s, simulated cluster time %s\n",
              static_cast<long long>(report.run.rounds_executed),
              args.sources > 0 ? "pivots" : "rounds",
              FormatDuration(report.run.sim_seconds).c_str());
  std::printf("engine: %s\n", report.metrics().Summary().c_str());
  std::printf("host: solve minor-faults=%llu peak-rss=%s\n",
              static_cast<unsigned long long>(after.minor_faults -
                                              before.minor_faults),
              FormatBytes(after.peak_rss_bytes).c_str());
  PrintKsourceMemory(args, report.metrics());
  PrintRecovery(report.metrics());
  if (!EmitRunMetrics(args, report.metrics())) return 1;
  if (!args.output.empty()) {
    if (!WriteDenseBlock(args.output, *report.distances())) return 1;
    std::printf(args.sources > 0 ? "distance panel (n x k) written to %s\n"
                                 : "distances written to %s\n",
                args.output.c_str());
  }
  if (!args.persist.empty()) {
    apsp::PersistOptions popts;
    popts.block_size = options.block_size;
    popts.with_paths = !args.no_paths;
    auto status = apsp::PersistSolve(args.persist, *report.distances(), &g,
                                     args.directed, options.semiring, popts);
    if (!status.ok()) return Fail(status);
    auto opened = store::BlockStore::Open(args.persist);
    if (!opened.ok()) return Fail(opened.status());
    std::printf("persisted %zu blocks (%s) to %s%s\n",
                (*opened)->manifest().entries.size(),
                FormatBytes((*opened)->total_payload_bytes()).c_str(),
                args.persist.c_str(),
                (*opened)->manifest().has_paths ? " with successor plane"
                                                : "");
  }
  return 0;
}

int RunPlan(const Args& args) {
  if (args.n <= 1) return Usage(args);
  apsp::TuneRequest request;
  request.n = args.n;
  request.cluster =
      sparklet::ClusterConfig::PaperWithCores(args.cores.value_or(4));
  request.require_fault_tolerance = args.fault_tolerant;
  auto choice = apsp::TuneConfiguration(request);
  if (!choice.ok()) return Fail(choice.status());
  PrintKernelTuning();
  std::printf("recommended: %s, b = %lld, %s partitioner -> ~%s\n",
              apsp::SolverKindName(choice->solver),
              static_cast<long long>(choice->block_size),
              apsp::PartitionerKindName(choice->partitioner),
              FormatDuration(choice->projected_seconds).c_str());
  return 0;
}

int RunModel(const Args& args) {
  if (args.n <= 1) return Usage(args);
  const auto semiring = linalg::ParseSemiring(args.semiring);
  if (!semiring.has_value()) {
    return Fail(InvalidArgumentError("unknown semiring '" + args.semiring +
                                     "'"));
  }
  apsp::SolveRequest request;
  auto& options = request.options;
  BuildRunPlan(args, options);
  options.block_size = args.block > 0 ? args.block : 1024;
  options.semiring = *semiring;
  options.max_rounds = args.rounds > 0 ? args.rounds : 1;
  options.directed = args.directed;
  options.early_exit_infinite = !args.no_early_exit;
  request.sources = PickSources(args.n, args.sources);
  request.cluster =
      sparklet::ClusterConfig::PaperWithCores(args.cores.value_or(1024));
  auto& cluster = request.cluster;
  cluster.intra_task_cores = args.intra_task_cores;
  cluster.straggler_factor = args.straggler_factor;
  cluster.straggler_every = args.straggler_every;
  cluster.speculation = args.speculate;
  cluster.racks = args.racks;
  if (!ValidateIntraTaskCores(cluster) ||
      !ValidateMembershipPlans(args, cluster)) {
    return 2;
  }
  auto kind = ResolveSolver(args, args.n, options.block_size, cluster);
  if (!kind.ok()) return Fail(kind.status());
  request.solver = *kind;
  auto report = apsp::SolveModel(args.n, request);
  const auto& result = report.run;
  std::printf("%s%s, n = %lld, b = %lld, %s%s on %s\n",
              report.solver_name.c_str(), KsourceLabel(args, *kind).c_str(),
              static_cast<long long>(args.n),
              static_cast<long long>(options.block_size),
              linalg::SemiringName(options.semiring),
              PackedLabel(args, options), cluster.Summary().c_str());
  if (args.sources > 0) {
    std::printf("pivots: %lld of %lld, projected %s\n",
                static_cast<long long>(result.rounds_executed),
                static_cast<long long>(result.rounds_total),
                FormatDuration(result.projected_seconds).c_str());
  } else {
    std::printf("rounds: %lld of %lld, per-round %s, projected %s%s\n",
                static_cast<long long>(result.rounds_executed),
                static_cast<long long>(result.rounds_total),
                FormatDuration(result.SecondsPerRound()).c_str(),
                FormatDuration(result.projected_seconds).c_str(),
                result.projected_storage_exceeded
                    ? "  [would exhaust storage]"
                    : "");
  }
  std::printf("engine: %s\n", report.metrics().Summary().c_str());
  PrintKsourceMemory(args, report.metrics());
  PrintRecovery(report.metrics());
  if (!EmitRunMetrics(args, report.metrics())) return 1;
  return report.ok() ? 0 : 1;
}

int RunServe(const Args& args) {
  if (args.store_dir.empty()) return Usage(args);

  store::DistanceService::Options options;
  options.num_threads = args.threads;
  options.store_options.cache_capacity_bytes = args.cache_mb << 20;
  auto service = store::DistanceService::Open(args.store_dir, options);
  if (!service.ok()) return Fail(service.status());
  store::DistanceService& svc = **service;
  const auto& manifest = svc.store().manifest();
  std::printf("serving %s: n = %lld, b = %lld, %s, %zu blocks (%s)%s\n",
              args.store_dir.c_str(), static_cast<long long>(manifest.n),
              static_cast<long long>(manifest.block_size),
              manifest.directed ? "directed" : "undirected",
              manifest.entries.size(),
              FormatBytes(svc.store().total_payload_bytes()).c_str(),
              manifest.has_paths ? ", with paths" : "");

  std::ofstream out_file;
  std::FILE* out = stdout;
  if (!args.output.empty()) {
    out_file.open(args.output);
    if (!out_file) {
      return Fail(InternalError("cannot write " + args.output));
    }
  }
  auto emit = [&](const std::string& line) {
    if (out_file.is_open()) {
      out_file << line << '\n';
    } else {
      std::fprintf(out, "%s\n", line.c_str());
    }
  };

  if (!args.queries_file.empty()) {
    std::ifstream in(args.queries_file);
    if (!in) {
      return Fail(NotFoundError("cannot read " + args.queries_file));
    }
    std::vector<store::DistanceService::Query> queries;
    graph::VertexId s = 0, t = 0;
    while (in >> s >> t) queries.push_back({s, t});
    auto answers = svc.DistanceBatch(queries);
    if (!answers.ok()) return Fail(answers.status());
    char line[96];
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::snprintf(line, sizeof line, "%lld %lld %.17g",
                    static_cast<long long>(queries[i].s),
                    static_cast<long long>(queries[i].t), (*answers)[i]);
      emit(line);
    }
  }

  if (args.random_queries > 0) {
    Xoshiro256 rng(args.seed);
    const auto nn = static_cast<std::uint64_t>(svc.n());
    std::vector<store::DistanceService::Query> queries;
    queries.reserve(static_cast<std::size_t>(args.random_queries));
    if (args.zipf_theta > 0) {
      ZipfSampler zipf(nn, args.zipf_theta);
      for (std::int64_t i = 0; i < args.random_queries; ++i) {
        queries.push_back(
            {static_cast<graph::VertexId>(zipf.Sample(rng)),
             static_cast<graph::VertexId>(zipf.Sample(rng))});
      }
    } else {
      for (std::int64_t i = 0; i < args.random_queries; ++i) {
        queries.push_back({static_cast<graph::VertexId>(rng.NextBounded(nn)),
                           static_cast<graph::VertexId>(rng.NextBounded(nn))});
      }
    }
    // --stats-every N slices the workload so a progress + live-percentile
    // line appears mid-run; N = 0 keeps the original single batch. The
    // answers and checksum are the same either way. Each slice is grouped
    // by stored block on its own, so slicing changes how many fetches (and
    // cache hits, misses and evictions) the run makes, and when the
    // batch-level histogram samples land.
    const std::int64_t chunk =
        args.stats_every > 0 ? args.stats_every : args.random_queries;
    double sum = 0;
    std::int64_t reachable = 0;
    std::int64_t done = 0;
    const auto start = std::chrono::steady_clock::now();
    while (done < args.random_queries) {
      const std::int64_t take =
          std::min(chunk, args.random_queries - done);
      const std::vector<store::DistanceService::Query> slice(
          queries.begin() + done, queries.begin() + done + take);
      auto answers = svc.DistanceBatch(slice);
      if (!answers.ok()) return Fail(answers.status());
      for (double d : *answers) {
        if (d < std::numeric_limits<double>::infinity()) {
          sum += d;
          ++reachable;
        }
      }
      done += take;
      if (args.stats_every > 0 && done < args.random_queries) {
        const double so_far = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
        const auto p = svc.PointLatency();
        std::printf("progress: %lld/%lld queries, %.0f qps, point p50 %s "
                    "p99 %s\n",
                    static_cast<long long>(done),
                    static_cast<long long>(args.random_queries),
                    static_cast<double>(done) / so_far,
                    FormatLatency(p.p50_seconds).c_str(),
                    FormatLatency(p.p99_seconds).c_str());
      }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const auto stats = svc.store().stats();
    std::printf(
        "%lld queries (%s) in %s: %.0f qps; %lld reachable, checksum "
        "%.17g\n",
        static_cast<long long>(args.random_queries),
        args.zipf_theta > 0 ? "zipf" : "uniform",
        FormatDuration(elapsed).c_str(),
        static_cast<double>(args.random_queries) / elapsed,
        static_cast<long long>(reachable), sum);
    std::printf(
        "cache: %llu hits, %llu misses, %llu evictions, resident %s "
        "(peak %s, cap %s)\n",
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        FormatBytes(stats.resident_bytes).c_str(),
        FormatBytes(stats.peak_resident_bytes).c_str(),
        FormatBytes(options.store_options.cache_capacity_bytes).c_str());
  }

  for (const auto& [s, t] : args.path_queries) {
    auto path = svc.Path(s, t);
    if (!path.ok()) return Fail(path.status());
    std::string line = "path " + std::to_string(s) + "->" + std::to_string(t) +
                       ":";
    for (auto v : *path) line += " " + std::to_string(v);
    emit(line);
  }

  if (args.queries_file.empty() && args.random_queries == 0 &&
      args.path_queries.empty()) {
    std::fprintf(stderr,
                 "nothing to do: give --queries, --random, or --path\n");
    return 2;
  }
  PrintServeLatency(svc);
  if (!args.metrics_out.empty()) {
    svc.store().stats().Publish();
    if (!WriteMetricsFile(args.metrics_out)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    if (args.command_name.empty()) return UsageTop();
    return Usage(args);
  }
  if (args.command != kServe && !ApplyKernelTuningFlags(args)) return 2;
  if (!args.trace_file.empty()) obs::Tracer::Get().Start();
  int rc = 2;
  switch (args.command) {
    case kSolve:
      rc = RunSolve(args);
      break;
    case kPlan:
      rc = RunPlan(args);
      break;
    case kModel:
      rc = RunModel(args);
      break;
    case kServe:
      rc = RunServe(args);
      break;
  }
  if (!args.trace_file.empty()) {
    auto& tracer = obs::Tracer::Get();
    tracer.Stop();
    if (!tracer.WriteChromeJson(args.trace_file)) {
      std::fprintf(stderr, "apspark: cannot write trace to %s\n",
                   args.trace_file.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("trace: %zu events written to %s\n", tracer.EventCount(),
                  args.trace_file.c_str());
    }
  }
  return rc;
}
