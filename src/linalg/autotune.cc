#include "linalg/autotune.h"

#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/time_utils.h"

namespace apspark::linalg {
namespace {

/// Reference machine the fixed kernel tiles are sized for (linalg/kernels.cc)
/// — what unknown cache levels fall back to.
constexpr std::int64_t kFallbackL1 = 48 * 1024;
constexpr std::int64_t kFallbackL2 = 2 * 1024 * 1024;
constexpr std::int64_t kFallbackL3 = 32 * 1024 * 1024;

/// Parses a sysfs cache size string ("48K", "2048K", "1M", "36864K").
std::int64_t ParseSysfsSize(const std::string& text) {
  std::size_t pos = 0;
  long long value = 0;
  try {
    value = std::stoll(text, &pos);
  } catch (...) {
    return 0;
  }
  if (value <= 0) return 0;
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos < text.size()) {
    if (text[pos] == 'K' || text[pos] == 'k') value *= 1024;
    if (text[pos] == 'M' || text[pos] == 'm') value *= 1024 * 1024;
    if (text[pos] == 'G' || text[pos] == 'g') value *= 1024LL * 1024 * 1024;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<std::string> ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  return line;
}

}  // namespace

CacheHierarchy ReadSysfsCacheHierarchy() {
  CacheHierarchy caches;
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int index = 0; index < 8; ++index) {
    const std::string dir = base + std::to_string(index) + "/";
    const auto level = ReadFirstLine(dir + "level");
    const auto type = ReadFirstLine(dir + "type");
    const auto size = ReadFirstLine(dir + "size");
    if (!level || !type || !size) continue;  // index holes end the listing
    if (*type != "Data" && *type != "Unified") continue;  // skip Instruction
    const std::int64_t bytes = ParseSysfsSize(*size);
    if (bytes <= 0) continue;
    if (*level == "1" && caches.l1d_bytes == 0) caches.l1d_bytes = bytes;
    if (*level == "2" && caches.l2_bytes == 0) caches.l2_bytes = bytes;
    if (*level == "3" && caches.l3_bytes == 0) caches.l3_bytes = bytes;
  }
  caches.from_sysfs =
      caches.l1d_bytes > 0 || caches.l2_bytes > 0 || caches.l3_bytes > 0;
  return caches;
}

CacheHierarchy MeasureCacheHierarchy(std::uint64_t seed) {
  // Dependent-load pointer chase over a seeded cyclic permutation: per-access
  // latency is flat while the working set fits a level and jumps at each
  // capacity boundary. The detected size is the last sweep point before a
  // jump — quantized to the sweep grid, which is all a fingerprint needs.
  constexpr std::int64_t kMinBytes = 16 * 1024;
  constexpr std::int64_t kMaxBytes = 64 * 1024 * 1024;
  constexpr std::int64_t kChases = 1 << 18;
  std::vector<std::int64_t> sizes;
  for (std::int64_t s = kMinBytes; s <= kMaxBytes; s *= 2) sizes.push_back(s);

  std::vector<double> latency;
  latency.reserve(sizes.size());
  for (const std::int64_t bytes : sizes) {
    const std::size_t slots = static_cast<std::size_t>(bytes) / sizeof(void*);
    std::vector<std::size_t> next(slots);
    // Sattolo's algorithm: one full cycle, so the chase visits every slot.
    std::vector<std::size_t> order(slots);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(bytes));
    for (std::size_t i = slots - 1; i > 0; --i) {
      const std::size_t j =
          static_cast<std::size_t>(rng.NextBounded(static_cast<std::uint64_t>(i)));
      std::swap(order[i], order[j]);
    }
    for (std::size_t i = 0; i < slots; ++i) {
      next[order[i]] = order[(i + 1) % slots];
    }
    std::size_t p = 0;
    WallTimer timer;
    for (std::int64_t c = 0; c < kChases; ++c) p = next[p];
    const double secs = timer.ElapsedSeconds();
    // Keep the chase variable alive past the timer read.
    if (p == static_cast<std::size_t>(-1)) return CacheHierarchy{};
    latency.push_back(secs / static_cast<double>(kChases));
  }

  // Latency knees: a >= 1.4x jump between adjacent sweep points marks a
  // capacity boundary; the first three mark L1/L2/L3.
  CacheHierarchy caches;
  int knees = 0;
  for (std::size_t i = 0; i + 1 < sizes.size() && knees < 3; ++i) {
    if (latency[i + 1] > latency[i] * 1.4) {
      if (knees == 0) caches.l1d_bytes = sizes[i];
      if (knees == 1) caches.l2_bytes = sizes[i];
      if (knees == 2) caches.l3_bytes = sizes[i];
      ++knees;
    }
  }
  return caches;
}

CacheHierarchy DetectCacheHierarchy(std::uint64_t seed) {
  CacheHierarchy caches = ReadSysfsCacheHierarchy();
  if (!caches.from_sysfs) caches = MeasureCacheHierarchy(seed);
  if (caches.l1d_bytes <= 0) caches.l1d_bytes = kFallbackL1;
  if (caches.l2_bytes <= 0) caches.l2_bytes = kFallbackL2;
  if (caches.l3_bytes <= 0) caches.l3_bytes = kFallbackL3;
  return caches;
}

}  // namespace apspark::linalg
