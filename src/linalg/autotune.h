// Host cache probe: the L1d/L2/L3 data-cache capacities of the machine a
// run executes on, read from sysfs (/sys/devices/system/cpu/cpu0/cache)
// when present and measured with a seeded pointer-chase latency sweep
// otherwise. The benches' host fingerprint records them, so a BENCH file
// states which cache sizes its numbers came from.
#pragma once

#include <cstdint>

namespace apspark::linalg {

/// Detected data-cache capacities in bytes; 0 = unknown at that level.
struct CacheHierarchy {
  std::int64_t l1d_bytes = 0;
  std::int64_t l2_bytes = 0;
  std::int64_t l3_bytes = 0;
  /// True when the numbers came from sysfs (authoritative) rather than the
  /// measured sweep (coarse: quantized to the sweep's power-of-two sizes).
  bool from_sysfs = false;

  bool operator==(const CacheHierarchy&) const = default;
};

/// Parses /sys/devices/system/cpu/cpu0/cache/index*/{level,type,size}.
/// Missing files leave the corresponding level at 0.
CacheHierarchy ReadSysfsCacheHierarchy();

/// Measured fallback: times a seeded random-cyclic pointer chase over
/// power-of-two working sets and reads cache capacities off the latency
/// knees. Coarse by design (quantized, timing-sensitive) — only consulted
/// when sysfs is absent.
CacheHierarchy MeasureCacheHierarchy(std::uint64_t seed);

/// sysfs first, measured sweep second; any level still unknown falls back to
/// the reference machine the fixed kernel tiles are sized for
/// (48 KiB / 2 MiB / 32 MiB).
CacheHierarchy DetectCacheHierarchy(std::uint64_t seed);

}  // namespace apspark::linalg
