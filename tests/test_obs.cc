// Observability layer: histogram bucket math, registry thread-safety, the
// published sim_*/store_* gauge names, trace JSON well-formedness,
// virtual-span determinism, and the core guarantee that tracing never
// changes a solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apsp/api.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sparklet/metrics.h"
#include "store/block_store.h"
#include "test_support.h"

namespace apspark {
namespace {

using obs::Histogram;

// ---------------------------------------------------------------- histogram

TEST(ObsHistogram, BucketBoundsContainEveryValue) {
  // Every tick must land in a bucket whose [lower, upper) range holds it,
  // over the exact linear range, the log range, and the saturating tail.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 70; ++v) probes.push_back(v);
  for (int p = 7; p < 63; ++p) {
    const std::uint64_t base = 1ull << p;
    probes.insert(probes.end(),
                  {base - 1, base, base + 1, base + (base >> 2),
                   base + (base >> 1), base + (base >> 1) + (base >> 2)});
  }
  probes.push_back(~0ull);
  for (const std::uint64_t v : probes) {
    const std::size_t b = Histogram::BucketOf(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << "tick " << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << "tick " << v;
    if (b + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::BucketUpperBound(b)) << "tick " << v;
    }
  }
}

TEST(ObsHistogram, BucketsAreOrderedAndTight) {
  // Bounds tile the axis: bucket b ends exactly where b+1 begins, and the
  // log buckets keep width <= 25% of their lower bound (4 sub-buckets per
  // octave), which is what bounds the midpoint quantile error at 12.5%.
  for (std::size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(Histogram::BucketUpperBound(b),
              Histogram::BucketLowerBound(b + 1))
        << "bucket " << b;
    const std::uint64_t lo = Histogram::BucketLowerBound(b);
    const std::uint64_t hi = Histogram::BucketUpperBound(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    if (b >= Histogram::kLinearBuckets) {
      EXPECT_LE(static_cast<double>(hi - lo), 0.25 * static_cast<double>(lo))
          << "bucket " << b;
    }
  }
}

TEST(ObsHistogram, QuantilesBracketTheTrueOrderStatistic) {
  Histogram h;
  // 1000 samples: 900 around 1000 ticks, 90 around 50000, 10 around 2^20.
  for (int i = 0; i < 900; ++i) h.Record(1000 + (i % 7));
  for (int i = 0; i < 90; ++i) h.Record(50000 + (i % 11));
  for (int i = 0; i < 10; ++i) h.Record((1ull << 20) + i);
  ASSERT_EQ(h.count(), 1000u);

  // Each quantile estimate must land in the bucket of the true order
  // statistic — that is the histogram's whole accuracy contract.
  const struct {
    double q;
    std::uint64_t truth;
  } cases[] = {{0.5, 1003}, {0.95, 50004}, {0.99, 50010}, {0.999, 1ull << 20}};
  for (const auto& c : cases) {
    const std::size_t b = Histogram::BucketOf(c.truth);
    const double est = h.Quantile(c.q);
    EXPECT_GE(est, static_cast<double>(Histogram::BucketLowerBound(b)))
        << "q = " << c.q;
    EXPECT_LE(est, static_cast<double>(Histogram::BucketUpperBound(b)))
        << "q = " << c.q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), h.QuantileSeconds(0.5) * 1e9);
}

TEST(ObsHistogram, EmptyAndResetBehave) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  h.Record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 42u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(ObsHistogram, BulkRecordEqualsThatManySingleRecords) {
  // Record(ticks, count) is `count` samples in ticks' bucket: count,
  // sum and every quantile match a histogram fed one sample at a time, and
  // count 0 changes nothing.
  Histogram bulk;
  Histogram singles;
  bulk.Record(1000, 1);
  singles.Record(1000);
  EXPECT_EQ(bulk.count(), 1u);
  EXPECT_EQ(bulk.sum(), 1000u);
  const std::size_t b = Histogram::BucketOf(1000);
  EXPECT_GE(bulk.Quantile(1.0),
            static_cast<double>(Histogram::BucketLowerBound(b)));
  EXPECT_LT(bulk.Quantile(1.0),
            static_cast<double>(Histogram::BucketUpperBound(b)));

  const std::uint64_t k = 7;
  bulk.Record(50000, k);
  for (std::uint64_t i = 0; i < k; ++i) singles.Record(50000);
  EXPECT_EQ(bulk.count(), 1 + k);
  EXPECT_EQ(bulk.sum(), 1000 + k * 50000);
  for (const double q : {0.0, 0.1, 0.125, 0.2, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(bulk.Quantile(q), singles.Quantile(q)) << "q = " << q;
  }
  // Seven of eight samples sit in 50000's bucket, so the median does too.
  const std::size_t hot = Histogram::BucketOf(50000);
  EXPECT_GE(bulk.Quantile(0.5),
            static_cast<double>(Histogram::BucketLowerBound(hot)));
  EXPECT_LT(bulk.Quantile(0.5),
            static_cast<double>(Histogram::BucketUpperBound(hot)));

  bulk.Record(123456, 0);
  EXPECT_EQ(bulk.count(), 1 + k);
  EXPECT_EQ(bulk.sum(), 1000 + k * 50000);
  EXPECT_EQ(bulk.Quantile(1.0), singles.Quantile(1.0));
}

// ----------------------------------------------------------------- registry

TEST(ObsRegistry, SameNameAndLabelsReturnsSameMetric) {
  obs::Registry registry;
  obs::Counter& a = registry.GetCounter("test_total", "k=\"v\"");
  obs::Counter& b = registry.GetCounter("test_total", "k=\"v\"");
  obs::Counter& other = registry.GetCounter("test_total", "k=\"w\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(other.value(), 0u);
}

TEST(ObsRegistry, ThreadSafeUnderParallelForTasks) {
  // The contention pattern the sharding exists for: every pool task hammers
  // the same counter and histogram, some racing registration of fresh
  // metrics at the same time. Totals must be exact.
  obs::Registry registry;
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 512;
  constexpr std::uint64_t kAddsPerTask = 200;
  obs::Counter& hot = registry.GetCounter("obs_test_hot_total");
  obs::Histogram& lat = registry.GetHistogram("obs_test_latency_ns");
  pool.ParallelForTasks(kTasks, [&](std::size_t i) {
    for (std::uint64_t k = 0; k < kAddsPerTask; ++k) {
      hot.Add();
      lat.Record(i * 1000 + k);
    }
    // Racing registration: a handful of distinct names created from many
    // threads at once.
    registry.GetCounter("obs_test_racing_total",
                        "slot=\"" + std::to_string(i % 5) + "\"")
        .Add();
  });
  EXPECT_EQ(hot.value(), kTasks * kAddsPerTask);
  EXPECT_EQ(lat.count(), kTasks * kAddsPerTask);
  std::uint64_t racing = 0;
  for (int s = 0; s < 5; ++s) {
    racing += registry
                  .GetCounter("obs_test_racing_total",
                              "slot=\"" + std::to_string(s) + "\"")
                  .value();
  }
  EXPECT_EQ(racing, kTasks);
}

TEST(ObsRegistry, ExportersRenderEveryMetric) {
  obs::Registry registry;
  registry.GetCounter("exp_total", "kind=\"a\"").Add(7);
  registry.GetGauge("exp_bytes").Set(1234.5);
  obs::Histogram& h = registry.GetHistogram("exp_latency_ns");
  for (int i = 0; i < 100; ++i) h.Record(500);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"exp_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"exp_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"exp_latency_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("exp_total{kind=\"a\"} 7"), std::string::npos);
  EXPECT_NE(prom.find("exp_latency_ns_count 100"), std::string::npos);
}

TEST(ObsRegistry, PublishedSimAndStoreGaugesKeepTheirNames) {
  // Every field gets a distinct value, so a dropped, renamed or swapped
  // gauge reads back wrong.
  sparklet::SimMetrics m;
  m.compute_seconds = 1.5;
  m.shuffle_seconds = 2.5;
  m.collect_seconds = 3.5;
  m.broadcast_seconds = 4.5;
  m.shared_fs_seconds = 5.5;
  m.scheduling_seconds = 6.5;
  m.rebalance_seconds = 7.5;
  m.recovery_seconds = 8.5;
  m.admission_wait_seconds = 9.5;
  m.shuffle_bytes = 101;
  m.collect_bytes = 102;
  m.broadcast_bytes = 103;
  m.shared_fs_written_bytes = 104;
  m.shared_fs_read_bytes = 105;
  m.spilled_bytes = 106;
  m.migration_bytes = 107;
  m.stages = 108;
  m.tasks = 109;
  m.task_failures = 110;
  m.task_retries = 111;
  m.recomputed_tasks = 112;
  m.executor_failures = 113;
  m.job_restarts = 114;
  m.speculative_tasks = 115;
  m.migrated_partitions = 116;
  m.node_joins = 117;
  m.local_storage_peak_bytes = 118;
  m.driver_peak_bytes = 119;
  m.node_peak_bytes = 120;
  m.Publish();
  const std::vector<std::pair<const char*, double>> sim_gauges = {
      {"sim_seconds", m.sim_seconds()},
      {"sim_compute_seconds", 1.5},
      {"sim_shuffle_seconds", 2.5},
      {"sim_collect_seconds", 3.5},
      {"sim_broadcast_seconds", 4.5},
      {"sim_shared_fs_seconds", 5.5},
      {"sim_scheduling_seconds", 6.5},
      {"sim_rebalance_seconds", 7.5},
      {"sim_recovery_seconds", 8.5},
      {"sim_admission_wait_seconds", 9.5},
      {"sim_shuffle_bytes", 101},
      {"sim_collect_bytes", 102},
      {"sim_broadcast_bytes", 103},
      {"sim_shared_fs_written_bytes", 104},
      {"sim_shared_fs_read_bytes", 105},
      {"sim_spilled_bytes", 106},
      {"sim_migration_bytes", 107},
      {"sim_stages", 108},
      {"sim_tasks", 109},
      {"sim_task_failures", 110},
      {"sim_task_retries", 111},
      {"sim_recomputed_tasks", 112},
      {"sim_executor_failures", 113},
      {"sim_job_restarts", 114},
      {"sim_speculative_tasks", 115},
      {"sim_migrated_partitions", 116},
      {"sim_node_joins", 117},
      {"sim_local_storage_peak_bytes", 118},
      {"sim_driver_peak_bytes", 119},
      {"sim_node_peak_bytes", 120},
  };
  ASSERT_EQ(sim_gauges.size(), 30u);
  EXPECT_DOUBLE_EQ(m.sim_seconds(), 1.5 + 2.5 + 3.5 + 4.5 + 5.5 + 6.5 + 7.5);
  obs::Registry& global = obs::Registry::Global();
  for (const auto& [name, value] : sim_gauges) {
    EXPECT_EQ(global.GetGauge(name).value(), value) << name;
  }

  store::BlockStore::Stats stats;
  stats.hits = 201;
  stats.misses = 202;
  stats.evictions = 203;
  stats.bytes_loaded = 204;
  stats.resident_bytes = 205;
  stats.peak_resident_bytes = 206;
  stats.Publish();
  const std::vector<std::pair<const char*, double>> store_gauges = {
      {"store_cache_hits", 201},
      {"store_cache_misses", 202},
      {"store_cache_evictions", 203},
      {"store_bytes_loaded", 204},
      {"store_resident_bytes", 205},
      {"store_peak_resident_bytes", 206},
  };
  for (const auto& [name, value] : store_gauges) {
    EXPECT_EQ(global.GetGauge(name).value(), value) << name;
  }
}

// -------------------------------------------------------------------- trace

/// Splits the traceEvents array of a Chrome trace JSON document into its
/// top-level event objects by brace depth (args objects nest one deeper).
std::vector<std::string> SplitEvents(const std::string& json) {
  const auto open = json.find('[');
  const auto close = json.rfind(']');
  EXPECT_NE(open, std::string::npos);
  EXPECT_NE(close, std::string::npos);
  std::vector<std::string> events;
  int depth = 0;
  std::string current;
  for (std::size_t i = open + 1; i < close; ++i) {
    const char c = json[i];
    if (c == '{') ++depth;
    if (depth > 0) current.push_back(c);
    if (c == '}') {
      --depth;
      EXPECT_GE(depth, 0);
      if (depth == 0) {
        events.push_back(current);
        current.clear();
      }
    }
  }
  EXPECT_EQ(depth, 0);
  return events;
}

/// A traced chaos solve on the tiny cluster; returns the trace JSON.
std::string TracedChaosSolve(std::uint64_t* checksum = nullptr) {
  const graph::Graph g = graph::PaperErdosRenyi(96, 5);
  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kBlockedInMemory;  // pure: lineage path
  request.options.block_size = 24;
  request.cluster = test::TestCluster();
  request.options.fail_nodes.push_back({1, 2});
  obs::Tracer::Get().Start();
  {
    // A deterministic wall-clock span so every capture has pid-1 content
    // regardless of how small the solve is.
    obs::RealSpanScope real("test-chaos-solve");
    const auto report = apsp::Solve(g, request);
    if (report.ok() && checksum != nullptr) {
      std::uint64_t h = 1469598103934665603ull;
      const auto& d = *report.distances();
      for (std::int64_t i = 0; i < d.rows(); ++i) {
        for (std::int64_t j = 0; j < d.cols(); ++j) {
          h ^= std::bit_cast<std::uint64_t>(d.At(i, j));
          h *= 1099511628211ull;
        }
      }
      *checksum = h;
    }
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  }
  obs::Tracer::Get().Stop();
  return obs::Tracer::Get().ToChromeJson();
}

TEST(ObsTrace, ChromeJsonIsWellFormedAndCarriesTheSchema) {
  const std::string json = TracedChaosSolve();
  ASSERT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.rfind("]}"), std::string::npos);  // trailing newline allowed

  const std::vector<std::string> events = SplitEvents(json);
  ASSERT_GT(events.size(), 10u);
  bool saw_virtual = false, saw_real = false, saw_process_meta = false;
  bool saw_node_lane = false, saw_driver_lane = false, saw_loss = false;
  for (const std::string& e : events) {
    // Required fields on every event (metadata events may omit tid/ts).
    EXPECT_NE(e.find("\"name\":"), std::string::npos) << e;
    EXPECT_NE(e.find("\"ph\":"), std::string::npos) << e;
    EXPECT_NE(e.find("\"pid\":"), std::string::npos) << e;
    const bool meta = e.find("\"ph\":\"M\"") != std::string::npos;
    if (!meta) {
      EXPECT_NE(e.find("\"tid\":"), std::string::npos) << e;
      EXPECT_NE(e.find("\"ts\":"), std::string::npos) << e;
    }
    // Complete events need a duration.
    if (e.find("\"ph\":\"X\"") != std::string::npos) {
      EXPECT_NE(e.find("\"dur\":"), std::string::npos) << e;
    }
    saw_virtual |= !meta && e.find("\"pid\":2") != std::string::npos;
    saw_real |= !meta && e.find("\"pid\":1") != std::string::npos;
    saw_process_meta |= e.find("process_name") != std::string::npos;
    saw_node_lane |= e.find("node 1 / slot") != std::string::npos;
    saw_driver_lane |= e.find("driver / network") != std::string::npos;
    saw_loss |= e.find("\"node-loss\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_virtual);
  EXPECT_TRUE(saw_real);
  EXPECT_TRUE(saw_process_meta);
  EXPECT_TRUE(saw_node_lane);
  EXPECT_TRUE(saw_driver_lane);
  EXPECT_TRUE(saw_loss);

  // The chaos run must draw its recovery replay: recovery-kind stage spans
  // and recovery tasks on node lanes.
  EXPECT_NE(json.find("\"recovery-task\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"recovery\""), std::string::npos);
}

TEST(ObsTrace, VirtualSpansAreDeterministicAcrossRuns) {
  // The sim clock is deterministic, so two identical solves must produce
  // identical virtual (pid 2) event sets — only wall-clock spans may vary.
  const std::string first = TracedChaosSolve();
  const std::string second = TracedChaosSolve();
  auto virtual_events = [](const std::string& json) {
    std::vector<std::string> out;
    for (std::string& e : SplitEvents(json)) {
      if (e.find("\"pid\":2") != std::string::npos) out.push_back(std::move(e));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(virtual_events(first), virtual_events(second));
}

TEST(ObsTrace, TracingIsBitwiseNeutral) {
  // The same solve with tracing off must produce bit-identical distances.
  std::uint64_t traced = 0;
  (void)TracedChaosSolve(&traced);

  const graph::Graph g = graph::PaperErdosRenyi(96, 5);
  apsp::SolveRequest request;
  request.solver = apsp::SolverKind::kBlockedInMemory;
  request.options.block_size = 24;
  request.cluster = test::TestCluster();
  request.options.fail_nodes.push_back({1, 2});
  ASSERT_FALSE(obs::TraceEnabled());
  const auto report = apsp::Solve(g, request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::uint64_t plain = 1469598103934665603ull;
  const auto& d = *report.distances();
  for (std::int64_t i = 0; i < d.rows(); ++i) {
    for (std::int64_t j = 0; j < d.cols(); ++j) {
      plain ^= std::bit_cast<std::uint64_t>(d.At(i, j));
      plain *= 1099511628211ull;
    }
  }
  EXPECT_EQ(traced, plain);
}

// --------------------------------------------------------------------- json

/// Minimal RFC 8259 check: true when `text` is exactly one JSON value,
/// whitespace around it allowed. Strings may hold no raw control character
/// and only the standard escapes; numbers are checked loosely.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Members('}', /*keyed=*/true);
      case '[':
        return Members(']', /*keyed=*/false);
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Members(char close, bool keyed) {
    ++pos_;
    SkipWs();
    if (Eat(close)) return true;
    do {
      SkipWs();
      if (keyed) {
        if (pos_ >= s_.size() || s_[pos_] != '"' || !String()) return false;
        SkipWs();
        if (!Eat(':')) return false;
        SkipWs();
      }
      if (!Value()) return false;
      SkipWs();
    } while (Eat(','));
    return Eat(close);
  }

  bool String() {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[pos_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (pos_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;  // unterminated
  }

  bool Number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            std::string_view("+-.eE").find(s_[pos_]) !=
                std::string_view::npos)) {
      ++pos_;
    }
    return pos_ > start &&
           std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool Eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && std::string_view(" \t\r\n").find(s_[pos_]) !=
                                   std::string_view::npos) {
      ++pos_;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

TEST(ObsJson, CheckerAcceptsJsonAndRejectsRawControlCharacters) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,-2.5e3,true,null,"x\u0009y"]})").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\":\"tab\there\"}").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":"\q"})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1,})").Valid());
}

TEST(ObsJson, ControlCharactersInSpanNamesAndLabelsAreEscaped) {
  // Tab, carriage return and SOH: each must leave as \u00XX, or the
  // document is not JSON.
  const std::string odd = "tab\there\rcr\x01soh";
  const std::string escaped = "tab\\u0009here\\u000dcr\\u0001soh";

  obs::Registry registry;
  registry.GetCounter("odd_total", "label=\"" + odd + "\"").Add(1);
  const std::string metrics = registry.ToJson();
  EXPECT_TRUE(JsonChecker(metrics).Valid()) << metrics;
  EXPECT_NE(metrics.find(escaped), std::string::npos) << metrics;

  auto& tracer = obs::Tracer::Get();
  tracer.Start();
  tracer.VirtualSpan(odd.c_str(), obs::kDriverLane, 0.0, 1.0);
  tracer.Stop();
  const std::string trace = tracer.ToChromeJson();
  EXPECT_TRUE(JsonChecker(trace).Valid()) << trace;
  EXPECT_NE(trace.find(escaped), std::string::npos) << trace;
}

TEST(ObsTrace, StartClearsPriorCapture) {
  auto& tracer = obs::Tracer::Get();
  tracer.Start();
  tracer.VirtualSpan("probe", obs::kDriverLane, 0.0, 1.0);
  tracer.Stop();
  EXPECT_GE(tracer.EventCount(), 1u);
  tracer.Start();
  EXPECT_EQ(tracer.EventCount(), 0u);
  tracer.Stop();
}

}  // namespace
}  // namespace apspark
