#include "obs/metrics_registry.h"

#include <bit>
#include <cmath>
#include <sstream>

namespace apspark::obs {

std::size_t ThreadMetricShard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

// ---------------------------------------------------------------- Histogram

std::size_t Histogram::BucketOf(std::uint64_t ticks) noexcept {
  if (ticks < kLinearBuckets) return static_cast<std::size_t>(ticks);
  // msb >= 4 here. Top two bits below the msb pick the sub-bucket.
  const int msb = 63 - std::countl_zero(ticks);
  const std::size_t sub = (ticks >> (msb - 2)) & 3u;
  const std::size_t idx =
      kLinearBuckets + static_cast<std::size_t>(msb - 4) * 4 + sub;
  return idx < kNumBuckets ? idx : kNumBuckets - 1;
}

std::uint64_t Histogram::BucketLowerBound(std::size_t b) noexcept {
  if (b < kLinearBuckets) return b;
  const std::size_t rel = b - kLinearBuckets;
  const int msb = static_cast<int>(rel / 4) + 4;
  const std::uint64_t sub = rel % 4;
  return (std::uint64_t{4} + sub) << (msb - 2);
}

std::uint64_t Histogram::BucketUpperBound(std::size_t b) noexcept {
  if (b < kLinearBuckets) return b + 1;
  if (b >= kNumBuckets - 1) return ~std::uint64_t{0};
  return BucketLowerBound(b + 1);
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    for (const auto& c : shard.counts)
      total += c.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    total += shard.sum.load(std::memory_order_relaxed);
  return total;
}

double Histogram::Quantile(double q) const noexcept {
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  std::array<std::uint64_t, kNumBuckets> counts{};
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      const std::uint64_t c = shard.counts[b].load(std::memory_order_relaxed);
      counts[b] += c;
      total += c;
    }
  if (total == 0) return 0.0;
  // Rank of the order statistic (1-based, nearest-rank method).
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kNumBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      const double lo = static_cast<double>(BucketLowerBound(b));
      const double hi = b >= kNumBuckets - 1
                            ? lo * 1.125
                            : static_cast<double>(BucketUpperBound(b));
      return (lo + hi) * 0.5;
    }
  }
  return static_cast<double>(BucketLowerBound(kNumBuckets - 1));
}

void Histogram::Reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0, std::memory_order_relaxed);
  }
}

// ----------------------------------------------------------------- Registry

Registry& Registry::Global() {
  static Registry* g = new Registry();  // leaked: threads may touch at exit
  return *g;
}

Registry::Entry& Registry::FindOrCreate(Kind kind, const std::string& name,
                                        const std::string& labels) {
  const std::string key =
      labels.empty() ? name : name + "{" + labels + "}";
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->kind = kind;
    entry->name = name;
    entry->labels = labels;
    switch (kind) {
      case Kind::kCounter:
        entry->counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry->gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry->histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(key, std::move(entry)).first;
  }
  return *it->second;
}

Counter& Registry::GetCounter(const std::string& name,
                              const std::string& labels) {
  return *FindOrCreate(Kind::kCounter, name, labels).counter;
}

Gauge& Registry::GetGauge(const std::string& name, const std::string& labels) {
  return *FindOrCreate(Kind::kGauge, name, labels).gauge;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  const std::string& labels) {
  return *FindOrCreate(Kind::kHistogram, name, labels).histogram;
}

namespace {

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  const std::string s = os.str();
  // JSON forbids bare inf/nan; clamp to null-safe sentinels.
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "0";
  }
  return s;
}

}  // namespace

std::string Registry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[\n";
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(out, entry->name);
    out += "\"";
    if (!entry->labels.empty()) {
      out += ",\"labels\":\"";
      AppendJsonEscaped(out, entry->labels);
      out += "\"";
    }
    switch (entry->kind) {
      case Kind::kCounter:
        out += ",\"type\":\"counter\",\"value\":" +
               std::to_string(entry->counter->value());
        break;
      case Kind::kGauge:
        out += ",\"type\":\"gauge\",\"value\":" +
               FormatDouble(entry->gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        out += ",\"type\":\"histogram\",\"count\":" +
               std::to_string(h.count()) +
               ",\"sum\":" + std::to_string(h.sum()) +
               ",\"p50\":" + FormatDouble(h.Quantile(0.50)) +
               ",\"p95\":" + FormatDouble(h.Quantile(0.95)) +
               ",\"p99\":" + FormatDouble(h.Quantile(0.99)) +
               ",\"p999\":" + FormatDouble(h.Quantile(0.999));
        break;
      }
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

std::string Registry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [key, entry] : entries_) {
    const std::string series =
        entry->labels.empty() ? entry->name
                              : entry->name + "{" + entry->labels + "}";
    switch (entry->kind) {
      case Kind::kCounter:
        out += "# TYPE " + entry->name + " counter\n";
        out += series + " " + std::to_string(entry->counter->value()) + "\n";
        break;
      case Kind::kGauge:
        out += "# TYPE " + entry->name + " gauge\n";
        out += series + " " + FormatDouble(entry->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry->histogram;
        out += "# TYPE " + entry->name + " summary\n";
        const char* qs[] = {"0.5", "0.95", "0.99", "0.999"};
        const double qv[] = {0.50, 0.95, 0.99, 0.999};
        for (int i = 0; i < 4; ++i) {
          std::string lbl = entry->labels;
          if (!lbl.empty()) lbl += ",";
          lbl += std::string("quantile=\"") + qs[i] + "\"";
          out += entry->name + "{" + lbl + "} " +
                 FormatDouble(h.Quantile(qv[i])) + "\n";
        }
        const std::string suffix_labels =
            entry->labels.empty() ? "" : "{" + entry->labels + "}";
        out += entry->name + "_sum" + suffix_labels + " " +
               std::to_string(h.sum()) + "\n";
        out += entry->name + "_count" + suffix_labels + " " +
               std::to_string(h.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace apspark::obs
