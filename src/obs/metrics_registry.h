// Typed metrics registry: the repo-wide counter/gauge/histogram surface.
//
// One named-metric surface with two renderings (JSON lines and Prometheus
// text), so a solve, a bench, or a long-lived serve process can be scraped
// the same way. This layer depends only on std: the subsystems publish into
// it — SimMetrics::Publish() (`sim_*`), BlockStore::Stats::Publish()
// (`store_*`) — or count straight into it (block copies, the block buffer
// pool, kernel invocations, serve latencies).
//
// Metric types:
//   Counter   — monotonically increasing u64. Add() is per-thread sharded
//               (kShards cache-line-padded atomic cells, each thread pinned
//               to one cell), so ParallelForTasks-scale contention never
//               serializes on one cache line; value() aggregates at read.
//   Gauge     — last-set double (atomic store/load); for scraped snapshots
//               of external state (peaks, residency, config).
//   Histogram — log-bucketed u64 distribution (sub-power-of-two buckets,
//               <= 12.5% relative bucket width), per-thread sharded like
//               Counter. Quantile() derives p50/p95/p99/p99.9 from the
//               buckets — no sample retention, O(1) memory, always-on cheap.
//
// Threading: all mutation paths are lock-free atomics; registration takes a
// mutex once per metric name. Lookups return stable references (metrics are
// never destroyed before process exit).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace apspark::obs {

/// Appends `s` to `out` as the body of a JSON string: `"` and `\` are
/// backslash-escaped and every control character below 0x20 becomes
/// \u00XX. The one escaper of both JSON renderings in this layer
/// (Registry::ToJson and Tracer::ToChromeJson).
void AppendJsonEscaped(std::string& out, std::string_view s);

/// Threads hash onto this many independent atomic cells per sharded metric.
inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards).
std::size_t ThreadMetricShard() noexcept;

namespace internal {
/// One cache line per atomic cell so concurrent writers on different shards
/// never false-share.
struct alignas(64) PaddedAtomicU64 {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace internal

class Counter {
 public:
  void Add(std::uint64_t delta = 1) noexcept {
    shards_[ThreadMetricShard()].v.fetch_add(delta,
                                             std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<internal::PaddedAtomicU64, kMetricShards> shards_;
};

class Gauge {
 public:
  void Set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

/// Log-bucketed histogram over non-negative integer ticks (latencies record
/// nanoseconds; byte-sized metrics record bytes).
///
/// Bucket layout: ticks < kLinearBuckets get one exact bucket each; larger
/// values split each power of two into 4 sub-buckets (top two mantissa
/// bits), so every bucket's width is at most 1/8 of its lower bound. A
/// quantile estimate is therefore within 12.5% of the true order statistic.
class Histogram {
 public:
  static constexpr std::size_t kLinearBuckets = 16;  // exact ticks 0..15
  static constexpr std::size_t kNumBuckets = 256;

  /// Bucket index of a tick value (exposed for tests).
  static std::size_t BucketOf(std::uint64_t ticks) noexcept;
  /// Inclusive lower bound of bucket `b` in ticks.
  static std::uint64_t BucketLowerBound(std::size_t b) noexcept;
  /// Exclusive upper bound of bucket `b` in ticks.
  static std::uint64_t BucketUpperBound(std::size_t b) noexcept;

  void Record(std::uint64_t ticks) noexcept {
    auto& shard = shards_[ThreadMetricShard()];
    shard.counts[BucketOf(ticks)].fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(ticks, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;

  /// The q-th quantile (q in [0, 1]) estimated from the buckets: the
  /// midpoint of the bucket holding the order statistic, so the estimate is
  /// always inside [BucketLowerBound, BucketUpperBound) of the true value's
  /// bucket. Returns 0 on an empty histogram.
  double Quantile(double q) const noexcept;
  /// Quantile of a nanosecond-tick histogram, in seconds.
  double QuantileSeconds(double q) const noexcept {
    return Quantile(q) * 1e-9;
  }

  void Reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> counts{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Named-metric registry. Names follow Prometheus conventions
/// (`subsystem_metric_unit`); an optional pre-rendered label string
/// (`key="value",key2="value2"`) distinguishes instances of one metric.
class Registry {
 public:
  /// Process-wide default registry (what the CLI exports).
  static Registry& Global();

  Counter& GetCounter(const std::string& name,
                      const std::string& labels = {});
  Gauge& GetGauge(const std::string& name, const std::string& labels = {});
  Histogram& GetHistogram(const std::string& name,
                          const std::string& labels = {});

  /// One JSON object per metric on its own line, wrapped in a top-level
  /// {"metrics": [...]} object. Histograms export count/sum/p50/p95/p99/p999.
  std::string ToJson() const;

  /// Prometheus text exposition format (histograms as summary-style
  /// quantile series plus _count/_sum).
  std::string ToPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;    // base metric name
    std::string labels;  // pre-rendered label body, may be empty
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& FindOrCreate(Kind kind, const std::string& name,
                      const std::string& labels);

  mutable std::mutex mu_;
  // Key: name + "{" + labels + "}" — deterministic export order.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace apspark::obs
