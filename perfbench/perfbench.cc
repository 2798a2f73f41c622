// End-to-end benchmark of the public APSP surface — solve, persist, serve
// and paper-scale model runs — with per-layer attribution.
//
//   apsp_perfbench --workload serve_uniform|serve_zipf --seed N --seconds S
//                  --trace 0|1 --scratch DIR [--smoke] [--source-id ID]
//
// perfbench/run.py builds this binary and is the supported entry point;
// perfbench/README.md defines every metric and the predictions table.
//
// One measured round calls every front door once, in the order a
// deployment meets them:
//   apsp::Solve             Blocked Collect/Broadcast solve of an integer
//                           weight G(n, p) graph at library defaults
//   apsp::PersistSolve      distance + successor planes into a fresh store
//   store::DistanceService  closed loop, one client, against a service
//                           opened at set-up with its cache capped at a
//                           quarter of the payload: one DistanceBatch
//                           (throughput), single-client Distance() calls
//                           (latency) and Path() walks
//   apsp::SolveModel        paper-scale phantom runs, IM then CB (traced
//                           runs only, see below)
// The workloads differ only in the served pairs: uniform pairs miss the
// store cache about a quarter of the time, Zipf(0.99) pairs almost never.
//
// Every output is checked outside the timed regions, and each failed check
// counts in the result's `failed`: solved and served distances are
// bitwise-equal to graph::DijkstraAllPairs (integer weights make every path
// sum exact), paths are real edge walks of exactly the oracle length, and
// model runs return OK with their expected stage and task counts.
//
// --trace 0 reports the end-to-end metrics. The model runs' wall time swings
// by up to 2x with the load of a shared host, more than any bound could
// absorb, so they are per-layer metrics and run only with --trace 1.
// --trace 1 alternates untraced
// and traced rounds (obs.trace_overhead compares the two), folds the
// benchmark's spans around each layer call plus the program's own spans
// (parallel_for, store-load, virtual rounds/stages/tasks) into a per-layer
// self-time table, and reports the per-layer metrics.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "apsp/api.h"
#include "apsp/block_layout.h"
#include "apsp/persist.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "graph/path_reconstruction.h"
#include "graph/shortest_paths.h"
#include "linalg/autotune.h"
#include "linalg/kernels.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "store/block_store.h"
#include "store/distance_service.h"

namespace {

using namespace apspark;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Query = store::DistanceService::Query;

constexpr double kZipfTheta = 0.99;
// Set-up is repeated and its median reported, so one slow repetition cannot
// move setup_s.
constexpr int kSetupReps = 3;
// Repetitions of each standalone layer probe (trace mode).
constexpr int kProbeReps = 9;

// Problem sizes. The full sizes are the ones the benchmark reports; --smoke
// shrinks everything so the self-test finishes in seconds.
struct Sizes {
  std::int64_t n;              // vertices of the real-data graph
  std::int64_t solve_block;    // b of the real solve
  std::int64_t store_block;    // b of the persisted store
  std::int64_t warm_queries;   // DistanceBatch that warms the cache at set-up
  std::int64_t batch_queries;  // DistanceBatch per round (throughput)
  std::int64_t point_queries;  // single-client Distance() calls per round
  std::int64_t path_walks;     // Path() calls per round
  std::int64_t model_n;        // paper-scale phantom runs
  std::int64_t model_block;
  int model_cores;
  // What the model runs must report; fixed by model_n, model_block and
  // model_cores.
  std::uint64_t im_stages, im_tasks, cb_stages, cb_tasks;
  int min_rounds;
};

constexpr Sizes kFull{2048,   256,  64,  50'000, 100'000, 10'000, 256,
                      131072, 4096, 1024, 320,   786'432, 128,    393'216,
                      3};
constexpr Sizes kSmoke{256,  64,   32, 2'000, 5'000,  1'000, 32,
                       8192, 1024, 64, 80,    12'288, 32,    6'144,
                       2};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool smoke = false;
  std::string scratch;
  std::string source_id = "unknown";
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool SameMatrix(const linalg::DenseBlock& a, const linalg::DenseBlock& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() && !a.is_phantom() &&
         !b.is_phantom() && !a.is_packed() && !b.is_packed() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.size())) ==
             0;
}

/// Operations attempted and failed; every correctness check feeds it.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
};

/// G(n, p) at the paper's edge probability, weights floored to integers in
/// [1, 9] so every path sum is exact in double arithmetic.
graph::Graph MakeGraph(std::int64_t n, std::uint64_t seed) {
  const graph::Graph real = graph::ErdosRenyi(
      n, graph::PaperEdgeProbability(n), {1.0, 10.0}, seed);
  graph::Graph g(n, false);
  for (const auto& e : real.edges()) {
    g.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return g;
}

std::vector<Query> MakeQueries(std::int64_t count, std::int64_t n,
                               const ZipfSampler* zipf, Xoshiro256& rng) {
  std::vector<Query> queries(static_cast<std::size_t>(count));
  for (Query& q : queries) {
    if (zipf != nullptr) {
      q.s = static_cast<graph::VertexId>(zipf->Sample(rng));
      q.t = static_cast<graph::VertexId>(zipf->Sample(rng));
    } else {
      q.s = static_cast<graph::VertexId>(rng.NextBounded(n));
      q.t = static_cast<graph::VertexId>(rng.NextBounded(n));
    }
  }
  return queries;
}

// ------------------------------------------------------------- trace fold

std::optional<std::int64_t> IntField(std::string_view line,
                                     std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return std::nullopt;
  std::int64_t value = 0;
  const char* first = line.data() + at + key.size();
  const auto [ptr, ec] =
      std::from_chars(first, line.data() + line.size(), value);
  if (ec != std::errc() || ptr == first) return std::nullopt;
  return value;
}

std::optional<std::string_view> NameField(std::string_view line) {
  constexpr std::string_view kKey = "\"name\":\"";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + kKey.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return std::nullopt;
  return line.substr(begin, end - begin);
}

constexpr int kHostPid = 1;     // obs::Tracer's wall-clock process
constexpr int kClusterPid = 2;  // obs::Tracer's sim-clock process

/// Per-span totals folded from obs::Tracer captures. A span's self time is
/// its duration minus the durations of the spans nested directly inside it
/// on the same lane — the Chrome trace nesting the tracer exports.
class LayerTable {
 public:
  struct Row {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };

  /// Stops the tracer and folds everything it captured since Start().
  void FoldCapture() {
    obs::Tracer& tracer = obs::Tracer::Get();
    tracer.Stop();
    const std::string json = tracer.ToChromeJson();
    struct Open {
      Row* row;
      std::int64_t end;
      std::int64_t dur;
      std::int64_t child;
    };
    std::vector<Open> stack;
    auto close = [](const Open& o) {
      o.row->self_us += static_cast<double>(std::max<std::int64_t>(
          0, o.dur - o.child));
    };
    std::pair<std::int64_t, std::int64_t> lane{-1, -1};
    std::size_t pos = 0;
    while (pos < json.size()) {
      std::size_t eol = json.find('\n', pos);
      if (eol == std::string::npos) eol = json.size();
      const std::string_view line(json.data() + pos, eol - pos);
      pos = eol + 1;
      if (line.find("\"ph\":\"X\"") == std::string_view::npos) continue;
      const auto name = NameField(line);
      const auto pid = IntField(line, "\"pid\":");
      const auto tid = IntField(line, "\"tid\":");
      const auto ts = IntField(line, "\"ts\":");
      const auto dur = IntField(line, "\"dur\":");
      if (!name || !pid || !tid || !ts || !dur) continue;
      // Events arrive sorted by lane, then start, longest first.
      if (lane != std::make_pair(*pid, *tid)) {
        for (const Open& o : stack) close(o);
        stack.clear();
        lane = {*pid, *tid};
      }
      while (!stack.empty() && stack.back().end <= *ts) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child += *dur;
      Row& row = rows_[{static_cast<int>(*pid), std::string(*name)}];
      ++row.count;
      row.total_us += static_cast<double>(*dur);
      stack.push_back({&row, *ts + *dur, *dur, 0});
    }
    for (const Open& o : stack) close(o);
  }

  Row Get(int pid, const std::string& name) const {
    const auto it = rows_.find({pid, name});
    return it == rows_.end() ? Row{} : it->second;
  }

  void Print(const std::string& workload, int traced_rounds) const {
    std::printf(
        "\nper-layer self time, workload %s: %d traced round(s) plus the "
        "layer probes\n(host = wall-clock seconds, cluster = simulated "
        "seconds; self = span minus directly nested spans on its lane)\n",
        workload.c_str(), traced_rounds);
    std::printf("%-8s %-9s %-26s %10s %14s %14s\n", "clock", "layer", "span",
                "count", "total_s", "self_s");
    std::vector<std::pair<std::pair<int, std::string>, Row>> rows(
        rows_.begin(), rows_.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first.first != b.first.first) {
                         return a.first.first < b.first.first;
                       }
                       return a.second.self_us > b.second.self_us;
                     });
    for (const auto& [key, row] : rows) {
      std::printf("%-8s %-9s %-26s %10llu %14.6f %14.6f\n",
                  key.first == kClusterPid ? "cluster" : "host",
                  LayerOf(key.first, key.second).c_str(), key.second.c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.total_us * 1e-6, row.self_us * 1e-6);
    }
  }

 private:
  /// Module a span belongs to: the benchmark names its own spans
  /// "<module>.<call>"; the program's spans are mapped by where they are
  /// emitted.
  static std::string LayerOf(int pid, const std::string& name) {
    if (pid == kClusterPid) return "sparklet";
    if (name == "parallel_for") return "common";
    if (name == "store-load") return "store";
    const std::size_t dot = name.find('.');
    return dot == std::string::npos ? "other" : name.substr(0, dot);
  }

  std::map<std::pair<int, std::string>, Row> rows_;
};

// ------------------------------------------------------- kernel counters

/// Block-level kernel calls, read from the registry's
/// kernel_invocations_total counters.
struct KernelCounts {
  double accumulate_simd = 0;
  double accumulate_scalar = 0;
  double closure = 0;

  double accumulate() const { return accumulate_simd + accumulate_scalar; }

  KernelCounts operator-(const KernelCounts& o) const {
    return {accumulate_simd - o.accumulate_simd,
            accumulate_scalar - o.accumulate_scalar, closure - o.closure};
  }
  KernelCounts Scaled(double f) const {
    return {accumulate_simd * f, accumulate_scalar * f, closure * f};
  }
};

KernelCounts ReadKernelCounts() {
  const std::string json = obs::Registry::Global().ToJson();
  KernelCounts counts;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    const std::string_view line(json.data() + pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"name\":\"kernel_invocations_total\"") ==
        std::string_view::npos) {
      continue;
    }
    const auto value = IntField(line, "\"value\":");
    if (!value) continue;
    const auto v = static_cast<double>(*value);
    if (line.find("kernel=\\\"closure\\\"") != std::string_view::npos) {
      counts.closure += v;
    } else if (line.find("kernel=\\\"accumulate\\\"") !=
               std::string_view::npos) {
      if (line.find("isa=\\\"scalar\\\"") != std::string_view::npos) {
        counts.accumulate_scalar += v;
      } else {
        counts.accumulate_simd += v;
      }
    }
  }
  return counts;
}

// ------------------------------------------------------------------ run

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class BenchRun {
 public:
  BenchRun(Options options, const Sizes& sizes)
      : opt_(std::move(options)),
        sz_(sizes),
        scratch_(opt_.scratch),
        store_dir_(scratch_ / "store"),
        graph_(MakeGraph(sz_.n, opt_.seed)) {
    if (opt_.workload == "serve_zipf") {
      zipf_.emplace(static_cast<std::uint64_t>(sz_.n), kZipfTheta);
    }
    solve_request_.solver = apsp::SolverKind::kBlockedCollectBroadcast;
    solve_request_.options.block_size = sz_.solve_block;
    persist_options_.block_size = sz_.store_block;
    auto model_request = [this](apsp::SolverKind kind) {
      apsp::SolveRequest r;
      r.solver = kind;
      r.options.block_size = sz_.model_block;
      r.cluster = sparklet::ClusterConfig::PaperWithCores(sz_.model_cores);
      return r;
    };
    im_request_ = model_request(apsp::SolverKind::kBlockedInMemory);
    cb_request_ = model_request(apsp::SolverKind::kBlockedCollectBroadcast);
  }

  ~BenchRun() {
    service_.reset();
    std::error_code ec;
    if (owns_scratch_) fs::remove_all(scratch_, ec);
  }

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  void PrintFingerprint() const {
    linalg::KernelTuning tuning = linalg::GetKernelTuning();
    tuning.variant = solve_request_.cluster.kernel_variant;
    const linalg::CacheHierarchy caches = linalg::DetectCacheHierarchy(42);
    std::printf(
        "fingerprint {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
        "\"trace\":%d,\"smoke\":%s,\"isa\":\"%s\",\"kernel_tuning\":\"%s\","
        "\"nproc\":%u,\"l1d_bytes\":%lld,\"l2_bytes\":%lld,"
        "\"l3_bytes\":%lld,\"caches_from_sysfs\":%s,\"build_type\":\"%s\","
        "\"source\":\"%s\"}\n",
        opt_.workload.c_str(), static_cast<unsigned long long>(opt_.seed),
        opt_.seconds, opt_.trace ? 1 : 0, opt_.smoke ? "true" : "false",
        linalg::SimdIsaName(linalg::ResolveSimdIsa(tuning.isa)),
        linalg::DescribeKernelTuning(tuning).c_str(),
        std::thread::hardware_concurrency(),
        static_cast<long long>(caches.l1d_bytes),
        static_cast<long long>(caches.l2_bytes),
        static_cast<long long>(caches.l3_bytes),
        caches.from_sysfs ? "true" : "false", PERFBENCH_BUILD_TYPE,
        opt_.source_id.c_str());
  }

  /// Untimed preparation (oracle, the served store), then the timed set-up
  /// a serving deployment pays: generate the input, open the service,
  /// warm its cache.
  void SetUp() {
    // The destructor deletes the scratch directory, so it must be ours.
    if (fs::exists(scratch_) && !fs::is_empty(scratch_)) {
      throw std::runtime_error("scratch directory " + scratch_.string() +
                               " is not empty");
    }
    fs::create_directories(scratch_);
    owns_scratch_ = true;
    oracle_ = graph::DijkstraAllPairs(graph_);
    adjacency_ = graph_.ToDenseAdjacency();

    const apsp::SolveReport report = apsp::Solve(graph_, solve_request_);
    const bool solved = report.ok() && report.distances().has_value() &&
                        SameMatrix(*report.distances(), oracle_);
    tally_.Record(solved, "set-up solve: " + report.status().ToString());
    if (!solved) throw std::runtime_error("set-up solve failed");
    const Status persisted = apsp::PersistSolve(
        store_dir_.string(), *report.distances(), &graph_, false,
        linalg::SemiringId::kMinPlus, persist_options_);
    tally_.Record(persisted.ok(), "set-up persist: " + persisted.ToString());
    if (!persisted.ok()) throw std::runtime_error("set-up persist failed");

    {
      auto probe = store::BlockStore::Open(store_dir_.string());
      if (!probe.ok()) {
        throw std::runtime_error("open store: " + probe.status().ToString());
      }
      // A quarter of the payload: uniform traffic churns the cache, Zipf
      // traffic mostly hits.
      service_options_.store_options.cache_capacity_bytes =
          (*probe)->total_payload_bytes() / 4;
    }

    Xoshiro256 rng(opt_.seed ^ 0x5e7a9ULL);
    const std::vector<Query> warm = MakeQueries(
        sz_.warm_queries, sz_.n, zipf_ ? &*zipf_ : nullptr, rng);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      service_.reset();
      const auto start = Clock::now();
      const graph::Graph input = MakeGraph(sz_.n, opt_.seed);
      auto service =
          store::DistanceService::Open(store_dir_.string(), service_options_);
      if (!service.ok()) {
        throw std::runtime_error("open service: " +
                                 service.status().ToString());
      }
      auto answers = (*service)->DistanceBatch(warm);
      setup_s_.push_back(SecondsSince(start));
      tally_.Record(input.edges() == graph_.edges(),
                    "graph generation is not deterministic");
      CheckAnswers(warm, answers, "warm-up batch");
      service_ = std::move(*service);
    }
    obs::Registry::Global().GetHistogram("serve_point_latency_ns").Reset();
    stats_before_ = service_->store().stats();
  }

  void MeasureRounds() {
    const auto start = Clock::now();
    std::vector<double> round_s;
    for (int r = 0;; ++r) {
      if (r >= sz_.min_rounds &&
          SecondsSince(start) + Median(round_s) > opt_.seconds) {
        break;
      }
      traced_ = opt_.trace && r % 2 == 1;
      const auto round_start = Clock::now();
      Round(r);
      round_s.push_back(SecondsSince(round_start));
    }
    traced_ = false;
    parallel_for_self_s_ = table_.Get(kHostPid, "parallel_for").self_us * 1e-6;
    store_load_s_ = table_.Get(kHostPid, "store-load").total_us * 1e-6;
  }

  /// Standalone calls into single layers (trace mode): kernels at the
  /// solve's block size under its tuning, the write path's two halves, and
  /// cold and hot store fetches.
  void Probe() {
    traced_ = true;
    ProbeKernels();
    ProbeWritePath();
    ProbeFetch();
    traced_ = false;
  }

  void Report() const {
    std::vector<Metric> metrics =
        opt_.trace ? PerLayerMetrics() : EndToEndMetrics();
    bool finite = true;
    for (Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        finite = false;
        m.value = 0;
      }
    }
    if (opt_.trace) table_.Print(opt_.workload, traced_rounds_);
    const double error_rate =
        tally_.attempted > 0 ? static_cast<double>(tally_.failed) /
                                   static_cast<double>(tally_.attempted)
                             : 0.0;
    std::printf(
        "\nsummary: workload %s, %d round(s) (%d untraced), %zu point "
        "latency samples, %zu path samples, error_rate %g (%lld failed of "
        "%lld attempted)\n",
        opt_.workload.c_str(), rounds_, untraced_rounds_,
        point_latency_us_.size(), path_latency_us_.size(), error_rate,
        static_cast<long long>(tally_.failed),
        static_cast<long long>(tally_.attempted));
    for (const Metric& m : metrics) {
      std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string out = "{\"correct\": ";
    out += tally_.failed == 0 && finite ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally_.attempted);
    out += ", \"failed\": " + std::to_string(tally_.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  /// Runs `fn` as one timed layer call inside a benchmark span. In a traced
  /// round the tracer captures just this call and is folded right after, so
  /// a capture never holds more than one call's events.
  template <typename Fn>
  double Phase(const char* span, Fn&& fn) {
    if (traced_) obs::Tracer::Get().Start();
    const auto start = Clock::now();
    {
      obs::RealSpanScope scope(span);
      fn();
    }
    const double seconds = SecondsSince(start);
    if (traced_) table_.FoldCapture();
    return seconds;
  }

  void CheckAnswers(const std::vector<Query>& queries,
                    const Result<std::vector<double>>& answers,
                    const char* what) {
    if (!answers.ok() || answers->size() != queries.size()) {
      tally_.attempted += static_cast<std::int64_t>(queries.size());
      tally_.failed += static_cast<std::int64_t>(queries.size());
      std::fprintf(stderr, "check failed: %s: %s\n", what,
                   answers.status().ToString().c_str());
      return;
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      tally_.Record(SameBits((*answers)[i],
                             oracle_.At(queries[i].s, queries[i].t)),
                    std::string(what) + ": served distance differs");
    }
  }

  /// A real edge walk from s to t of exactly the oracle length, or
  /// kNotFound exactly when t is unreachable.
  bool PathIsExact(const Result<std::vector<graph::VertexId>>& path,
                   const Query& q) const {
    const double want = oracle_.At(q.s, q.t);
    if (std::isinf(want)) return path.status().code() == StatusCode::kNotFound;
    if (!path.ok() || path->empty() || path->front() != q.s ||
        path->back() != q.t) {
      return false;
    }
    double total = 0;
    for (std::size_t h = 0; h + 1 < path->size(); ++h) {
      const double w = adjacency_.At((*path)[h], (*path)[h + 1]);
      if (std::isinf(w)) return false;
      total += w;
    }
    return SameBits(total, want);
  }

  void CheckModel(const apsp::SolveReport& report, std::uint64_t stages,
                  std::uint64_t tasks, const char* what) {
    const auto& m = report.metrics();
    const bool ok =
        report.ok() && m.stages == stages && m.tasks == tasks;
    tally_.Record(ok, std::string(what) + ": " + report.status().ToString() +
                          ", " + std::to_string(m.stages) + " stages, " +
                          std::to_string(m.tasks) + " tasks");
  }

  void Round(int r) {
    Xoshiro256 rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 1 +
                   static_cast<std::uint64_t>(r));
    const ZipfSampler* zipf = zipf_ ? &*zipf_ : nullptr;
    double wall = 0;

    // Solve.
    std::optional<apsp::SolveReport> report;
    const KernelCounts kernels_before = ReadKernelCounts();
    const double solve_s = Phase("apsp.solve", [&] {
      report = apsp::Solve(graph_, solve_request_);
    });
    kernels_per_solve_ = ReadKernelCounts() - kernels_before;
    wall += solve_s;
    const bool solved = report->ok() && report->distances().has_value() &&
                        SameMatrix(*report->distances(), oracle_);
    tally_.Record(solved, "solve: " + report->status().ToString());
    solve_metrics_ = report->metrics();

    // Persist into a fresh directory.
    const fs::path dir = scratch_ / ("persist-" + std::to_string(r));
    fs::remove_all(dir);
    Status persisted = InternalError("solve failed; nothing to persist");
    double persist_s = 0;
    if (solved) {
      persist_s = Phase("apsp.persist", [&] {
        persisted = apsp::PersistSolve(dir.string(), *report->distances(),
                                       &graph_, false,
                                       linalg::SemiringId::kMinPlus,
                                       persist_options_);
      });
    }
    wall += persist_s;
    tally_.Record(persisted.ok(), "persist: " + persisted.ToString());
    report.reset();
    fs::remove_all(dir);

    // Serve: throughput.
    const std::vector<Query> batch =
        MakeQueries(sz_.batch_queries, sz_.n, zipf, rng);
    Result<std::vector<double>> answers = std::vector<double>{};
    const double batch_s = Phase("store.serve_batch", [&] {
      answers = service_->DistanceBatch(batch);
    });
    wall += batch_s;
    CheckAnswers(batch, answers, "batch");

    // Serve: single-client latency.
    const std::vector<Query> points =
        MakeQueries(sz_.point_queries, sz_.n, zipf, rng);
    std::vector<double> point_us(points.size());
    std::vector<double> got(points.size());
    std::vector<char> got_ok(points.size());
    const double point_s = Phase("store.serve_point", [&] {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto t0 = Clock::now();
        const Result<double> d = service_->Distance(points[i].s, points[i].t);
        point_us[i] = SecondsSince(t0) * 1e6;
        got_ok[i] = d.ok();
        if (d.ok()) got[i] = *d;
      }
    });
    wall += point_s;
    for (std::size_t i = 0; i < points.size(); ++i) {
      tally_.Record(got_ok[i] != 0 &&
                        SameBits(got[i], oracle_.At(points[i].s, points[i].t)),
                    "point query differs");
    }

    // Serve: path walks. A walk costs one fetch per hop, so its pairs are
    // uniform on both workloads: Zipf pairs would concentrate on a few hot
    // pairs whose hop counts depend on the graph seed.
    const std::vector<Query> walks =
        MakeQueries(sz_.path_walks, sz_.n, nullptr, rng);
    std::vector<double> path_us(walks.size());
    std::vector<Result<std::vector<graph::VertexId>>> paths;
    paths.reserve(walks.size());
    const double path_s = Phase("store.serve_path", [&] {
      for (std::size_t i = 0; i < walks.size(); ++i) {
        const auto t0 = Clock::now();
        paths.push_back(service_->Path(walks[i].s, walks[i].t));
        path_us[i] = SecondsSince(t0) * 1e6;
      }
    });
    wall += path_s;
    for (std::size_t i = 0; i < walks.size(); ++i) {
      tally_.Record(PathIsExact(paths[i], walks[i]), "path walk is not exact");
    }

    // Paper-scale model runs.
    double im_s = 0;
    double cb_s = 0;
    if (opt_.trace) RunModels(im_s, cb_s);
    wall += im_s + cb_s;

    std::printf(
        "round %d%s: solve %.4fs persist %.4fs batch %.4fs point %.4fs "
        "path %.4fs model_im %.4fs model_cb %.4fs\n",
        r, traced_ ? " (traced)" : "", solve_s, persist_s, batch_s, point_s,
        path_s, im_s, cb_s);
    ++rounds_;
    if (traced_) {
      ++traced_rounds_;
      traced_wall_s_.push_back(wall);
      return;
    }
    ++untraced_rounds_;
    untraced_wall_s_.push_back(wall);
    solve_s_.push_back(solve_s);
    persist_s_.push_back(persist_s);
    qps_.push_back(static_cast<double>(batch.size()) / batch_s);
    point_latency_us_.insert(point_latency_us_.end(), point_us.begin(),
                             point_us.end());
    path_latency_us_.insert(path_latency_us_.end(), path_us.begin(),
                            path_us.end());
    model_im_s_.push_back(im_s);
    model_cb_s_.push_back(cb_s);
  }

  /// One IM and one CB paper-scale model run, timed and checked.
  void RunModels(double& im_s, double& cb_s) {
    std::optional<apsp::SolveReport> im;
    im_s = Phase("sparklet.model_im", [&] {
      im = apsp::SolveModel(sz_.model_n, im_request_);
    });
    CheckModel(*im, sz_.im_stages, sz_.im_tasks, "model IM");
    std::optional<apsp::SolveReport> cb;
    cb_s = Phase("sparklet.model_cb", [&] {
      cb = apsp::SolveModel(sz_.model_n, cb_request_);
    });
    CheckModel(*cb, sz_.cb_stages, sz_.cb_tasks, "model CB");
    model_tasks_ =
        static_cast<double>(im->metrics().tasks + cb->metrics().tasks);
    model_sim_s_ = im->run.sim_seconds + cb->run.sim_seconds;
  }

  static linalg::DenseBlock RandomBlock(std::int64_t b, Xoshiro256& rng) {
    linalg::DenseBlock m(b, b);
    for (std::int64_t i = 0; i < b; ++i) {
      for (std::int64_t j = 0; j < b; ++j) {
        m.Set(i, j, std::floor(rng.NextDouble(1.0, 10.0)));
      }
    }
    return m;
  }

  void ProbeKernels() {
    linalg::ScopedKernelVariant variant(
        solve_request_.cluster.kernel_variant);
    Xoshiro256 rng(opt_.seed + 17);
    const std::int64_t b = sz_.solve_block;
    const linalg::DenseBlock a = RandomBlock(b, rng);
    const linalg::DenseBlock bb = RandomBlock(b, rng);
    linalg::DenseBlock c = RandomBlock(b, rng);
    const linalg::DenseBlock closure_input = RandomBlock(b, rng);

    std::vector<double> update_s;
    const KernelCounts k0 = ReadKernelCounts();
    Phase("linalg.minplus_update", [&] {
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const auto t0 = Clock::now();
        linalg::MinPlusUpdate(a, bb, c);
        update_s.push_back(SecondsSince(t0));
      }
    });
    const KernelCounts k1 = ReadKernelCounts();
    std::vector<double> closure_s;
    Phase("linalg.floyd_warshall", [&] {
      for (int rep = 0; rep < kProbeReps; ++rep) {
        linalg::DenseBlock m = closure_input;
        const auto t0 = Clock::now();
        linalg::FloydWarshallInPlace(m);
        closure_s.push_back(SecondsSince(t0));
      }
    });
    const KernelCounts k2 = ReadKernelCounts();

    // Counter increments of one block-level call of each kind turn the
    // solve's counters back into block-level calls: a closure call also
    // counts the tile closures and accumulates it runs internally.
    const KernelCounts per_update = (k1 - k0).Scaled(1.0 / kProbeReps);
    const KernelCounts per_closure = (k2 - k1).Scaled(1.0 / kProbeReps);
    const double closure_calls =
        per_closure.closure > 0
            ? kernels_per_solve_.closure / per_closure.closure
            : 0;
    const double update_calls =
        per_update.accumulate() > 0
            ? std::max(0.0, kernels_per_solve_.accumulate() -
                                closure_calls * per_closure.accumulate()) /
                  per_update.accumulate()
            : 0;

    const double ops_per_call = 2.0 * static_cast<double>(b * b * b);
    const double update_s_median = Median(update_s);
    const double closure_s_median = Median(closure_s);
    kernel_s_ =
        update_calls * update_s_median + closure_calls * closure_s_median;
    kernel_ops_ = ops_per_call * (update_calls + closure_calls);
    // Computed traffic: an update reads A, B and C and writes C; a closure
    // reads and writes its block.
    const double block_bytes = 8.0 * static_cast<double>(b * b);
    kernel_bytes_ = update_calls * 4 * block_bytes +
                    closure_calls * 2 * block_bytes;
    minplus_gops_ = ops_per_call / update_s_median * 1e-9;
    closure_gops_ = ops_per_call / closure_s_median * 1e-9;
  }

  void ProbeWritePath() {
    linalg::DenseBlock next;
    std::vector<double> successors_s;
    for (int rep = 0; rep < 3; ++rep) {
      successors_s.push_back(Phase("graph.successors", [&] {
        next = graph::SuccessorsFromDistances(graph_, oracle_);
      }));
    }
    successors_s_ = Median(successors_s);

    const auto dist_blocks =
        apsp::BlockLayout(sz_.n, sz_.store_block, false).Decompose(oracle_);
    const auto next_blocks =
        apsp::BlockLayout(sz_.n, sz_.store_block, true).Decompose(next);
    store::StoreManifest manifest;
    manifest.n = sz_.n;
    manifest.block_size = sz_.store_block;
    manifest.directed = false;
    manifest.semiring = linalg::SemiringId::kMinPlus;
    manifest.has_paths = true;
    const fs::path dir = scratch_ / "put-probe";
    std::vector<double> put_s;
    for (int rep = 0; rep < 3; ++rep) {
      fs::remove_all(dir);
      Status status;
      std::size_t blocks = 0;
      put_s.push_back(Phase("store.put", [&] {
        auto created = store::BlockStore::Create(dir.string(), manifest);
        if (!created.ok()) {
          status = created.status();
          return;
        }
        for (const auto& [key, block] : dist_blocks) {
          if (status.ok()) {
            status = (*created)->Put(store::Plane::kDistance, key.I, key.J,
                                     *block);
          }
        }
        for (const auto& [key, block] : next_blocks) {
          if (status.ok()) {
            status = (*created)->Put(store::Plane::kNext, key.I, key.J,
                                     *block);
          }
        }
        if (status.ok()) status = (*created)->Seal();
        blocks = (*created)->manifest().entries.size();
      }));
      tally_.Record(status.ok(), "store put probe: " + status.ToString());
      store_blocks_ = static_cast<double>(blocks);
    }
    std::uintmax_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) bytes += entry.file_size();
    }
    store_bytes_written_ = static_cast<double>(bytes);
    put_s_ = Median(put_s);
    fs::remove_all(dir);
  }

  void ProbeFetch() {
    // Default options: the cap holds the whole store, so every fetch after
    // the first of a block is a hit. Cold means "not in the store's cache";
    // the file itself is in the OS page cache.
    auto opened = store::BlockStore::Open(store_dir_.string());
    if (!opened.ok()) {
      tally_.Record(false, "fetch probe open: " + opened.status().ToString());
      return;
    }
    store::BlockStore& bs = **opened;
    std::vector<store::StoreManifest::Entry> entries;
    for (const auto& e : bs.manifest().entries) {
      if (e.plane == store::Plane::kDistance && entries.size() < 64) {
        entries.push_back(e);
      }
    }
    if (entries.empty()) {
      tally_.Record(false, "fetch probe: store has no distance blocks");
      return;
    }
    std::vector<double> cold_us;
    Phase("store.fetch_cold", [&] {
      for (const auto& e : entries) {
        const auto t0 = Clock::now();
        auto pin = bs.Fetch(e.plane, e.I, e.J);
        cold_us.push_back(SecondsSince(t0) * 1e6);
        tally_.Record(pin.ok(), "cold fetch: " + pin.status().ToString());
      }
    });
    constexpr int kHotBatch = 1000;
    std::vector<double> hot_ns;
    bool hot_ok = true;
    Phase("store.fetch_hot", [&] {
      const auto& e = entries.front();
      for (int rep = 0; rep < kProbeReps; ++rep) {
        const auto t0 = Clock::now();
        for (int i = 0; i < kHotBatch; ++i) {
          hot_ok = bs.Fetch(e.plane, e.I, e.J).ok() && hot_ok;
        }
        hot_ns.push_back(SecondsSince(t0) * 1e9 / kHotBatch);
      }
    });
    tally_.Record(hot_ok, "hot fetch failed");
    fetch_cold_us_ = Median(cold_us);
    fetch_hot_ns_ = Median(hot_ns);
  }

  std::vector<Metric> EndToEndMetrics() const {
    return {
        {"setup_s", Median(setup_s_), "s"},
        {"solve_s", Median(solve_s_), "s"},
        {"persist_s", Median(persist_s_), "s"},
        {"serve_qps", Median(qps_), "1/s"},
        {"query_p50_us", Percentile(point_latency_us_, 0.50), "us"},
        {"query_p999_us", Percentile(point_latency_us_, 0.999), "us"},
        {"path_p50_us", Percentile(path_latency_us_, 0.50), "us"},
    };
  }

  std::vector<Metric> PerLayerMetrics() const {
    const double solve_s = Median(solve_s_);
    const auto stats = service_->store().stats();
    const double rounds = std::max(1, rounds_);
    const double hits = static_cast<double>(stats.hits - stats_before_.hits);
    const double misses =
        static_cast<double>(stats.misses - stats_before_.misses);
    const auto latency = service_->PointLatency();
    const double traced = std::max(1, traced_rounds_);
    const double model_s = Median(model_im_s_) + Median(model_cb_s_);
    const sparklet::SimMetrics& sm = solve_metrics_;
    return {
        {"linalg.minplus_gops", minplus_gops_, "Gop/s"},
        {"linalg.closure_gops", closure_gops_, "Gop/s"},
        {"linalg.accumulate_calls_simd", kernels_per_solve_.accumulate_simd,
         "count"},
        {"linalg.accumulate_calls_scalar",
         kernels_per_solve_.accumulate_scalar, "count"},
        {"linalg.closure_calls", kernels_per_solve_.closure, "count"},
        {"linalg.ops", kernel_ops_, "op"},
        {"linalg.bytes", kernel_bytes_, "B"},
        {"linalg.share", solve_s > 0 ? kernel_s_ / solve_s : 0, "ratio"},
        {"apsp.driver_self_s", solve_s - kernel_s_, "s"},
        {"sparklet.stages", static_cast<double>(sm.stages), "count"},
        {"sparklet.tasks", static_cast<double>(sm.tasks), "count"},
        {"sparklet.shuffle_bytes", static_cast<double>(sm.shuffle_bytes),
         "B"},
        {"sparklet.collect_bytes", static_cast<double>(sm.collect_bytes),
         "B"},
        {"sparklet.shared_fs_bytes",
         static_cast<double>(sm.shared_fs_written_bytes +
                             sm.shared_fs_read_bytes),
         "B"},
        {"sparklet.driver_peak_bytes",
         static_cast<double>(sm.driver_peak_bytes), "B"},
        {"sparklet.node_peak_bytes", static_cast<double>(sm.node_peak_bytes),
         "B"},
        {"sparklet.model_im_s", Median(model_im_s_), "s"},
        {"sparklet.model_cb_s", Median(model_cb_s_), "s"},
        {"sparklet.model_tasks_per_s",
         model_s > 0 ? model_tasks_ / model_s : 0, "1/s"},
        {"sparklet.model_sim_s", model_sim_s_, "s"},
        {"graph.successors_s", successors_s_, "s"},
        {"store.put_s", put_s_, "s"},
        {"store.bytes_written", store_bytes_written_, "B"},
        {"store.blocks", store_blocks_, "count"},
        {"store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
         "ratio"},
        {"store.misses", misses / rounds, "count/round"},
        {"store.evictions",
         static_cast<double>(stats.evictions - stats_before_.evictions) /
             rounds,
         "count/round"},
        {"store.bytes_loaded",
         static_cast<double>(stats.bytes_loaded - stats_before_.bytes_loaded) /
             rounds,
         "B/round"},
        {"store.peak_resident_bytes",
         static_cast<double>(stats.peak_resident_bytes), "B"},
        {"store.fetch_cold_us", fetch_cold_us_, "us"},
        {"store.fetch_hot_ns", fetch_hot_ns_, "ns"},
        {"store.load_span_s", store_load_s_ / traced, "s/round"},
        {"serve.hist_p50_us", latency.p50_seconds * 1e6, "us"},
        {"serve.hist_p999_us", latency.p999_seconds * 1e6, "us"},
        {"pool.parallel_for_s", parallel_for_self_s_ / traced, "s/round"},
        {"obs.trace_overhead",
         Median(untraced_wall_s_) > 0
             ? Median(traced_wall_s_) / Median(untraced_wall_s_)
             : 0,
         "ratio"},
    };
  }

  const Options opt_;
  const Sizes sz_;
  const fs::path scratch_;
  bool owns_scratch_ = false;
  const fs::path store_dir_;
  const graph::Graph graph_;
  std::optional<ZipfSampler> zipf_;
  apsp::SolveRequest solve_request_;
  apsp::SolveRequest im_request_;
  apsp::SolveRequest cb_request_;
  apsp::PersistOptions persist_options_;
  store::DistanceService::Options service_options_;

  linalg::DenseBlock oracle_;
  linalg::DenseBlock adjacency_;
  std::unique_ptr<store::DistanceService> service_;
  store::BlockStore::Stats stats_before_;
  Tally tally_;
  LayerTable table_;
  bool traced_ = false;

  // End-to-end samples, from untraced rounds only.
  int rounds_ = 0;
  int untraced_rounds_ = 0;
  int traced_rounds_ = 0;
  std::vector<double> setup_s_;
  std::vector<double> solve_s_;
  std::vector<double> persist_s_;
  std::vector<double> qps_;
  std::vector<double> point_latency_us_;
  std::vector<double> path_latency_us_;
  std::vector<double> model_im_s_;
  std::vector<double> model_cb_s_;
  std::vector<double> untraced_wall_s_;
  std::vector<double> traced_wall_s_;

  // Per-layer readings.
  KernelCounts kernels_per_solve_;
  sparklet::SimMetrics solve_metrics_;
  double model_tasks_ = 0;
  double model_sim_s_ = 0;
  double parallel_for_self_s_ = 0;
  double store_load_s_ = 0;
  double kernel_s_ = 0;
  double kernel_ops_ = 0;
  double kernel_bytes_ = 0;
  double minplus_gops_ = 0;
  double closure_gops_ = 0;
  double successors_s_ = 0;
  double put_s_ = 0;
  double store_bytes_written_ = 0;
  double store_blocks_ = 0;
  double fetch_cold_us_ = 0;
  double fetch_hot_ns_ = 0;
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = value == "serve_uniform" || value == "serve_zipf";
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0 && std::isfinite(opt.seconds);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (flag == "--scratch") {
        opt.scratch = value;
      } else if (flag == "--source-id") {
        opt.source_id = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      opt.scratch.empty()) {
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = ParseArgs(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: apsp_perfbench --workload serve_uniform|serve_zipf "
                 "--seed N --seconds S --trace 0|1 --scratch DIR [--smoke] "
                 "[--source-id ID]\n");
    return 2;
  }
  try {
    BenchRun run(*opt, opt->smoke ? kSmoke : kFull);
    run.PrintFingerprint();
    run.SetUp();
    run.MeasureRounds();
    if (opt->trace) run.Probe();
    run.Report();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apsp_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
