// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "apsp/api.h"
#include "common/time_utils.h"
#include "linalg/autotune.h"
#include "linalg/kernel_registry.h"
#include "obs/trace.h"

namespace apspark::bench {

/// Honours APSPARK_TRACE_JSON: when the variable names a path, the whole
/// harness run is captured as a Chrome trace-event file written there on
/// destruction. Unset (the default, and every regression-gated run) leaves
/// tracing disabled, so the published numbers never include tracer cost.
class TraceGuard {
 public:
  TraceGuard() {
    const char* path = std::getenv("APSPARK_TRACE_JSON");
    if (path != nullptr && *path != '\0') {
      path_ = path;
      obs::Tracer::Get().Start();
    }
  }
  ~TraceGuard() {
    if (path_.empty()) return;
    auto& tracer = obs::Tracer::Get();
    tracer.Stop();
    if (tracer.WriteChromeJson(path_)) {
      std::fprintf(stderr, "trace: %zu events written to %s\n",
                   tracer.EventCount(), path_.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", path_.c_str());
    }
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;

 private:
  std::string path_;
};

/// n^3 / (seconds * cores) in Gops — the paper's weak-scaling metric
/// (§5.4), normalized per core.
inline double GopsPerCore(std::int64_t n, double seconds, int cores) {
  if (seconds <= 0) return 0;
  const double nd = static_cast<double>(n);
  return nd * nd * nd / seconds / static_cast<double>(cores) / 1e9;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

/// `git describe --always --dirty` of the source tree the bench was built
/// from, or "unknown" when git or the tree is unavailable.
inline std::string SourceRevision() {
  std::string revision;
  const std::string command = std::string("git -C \"") + APSPARK_SOURCE_DIR +
                              "\" describe --always --dirty --abbrev=12 "
                              "2>/dev/null";
  if (std::FILE* pipe = popen(command.c_str(), "r")) {
    char line[128];
    if (std::fgets(line, sizeof line, pipe) != nullptr) revision = line;
    pclose(pipe);
  }
  while (!revision.empty() &&
         (revision.back() == '\n' || revision.back() == '\r')) {
    revision.pop_back();
  }
  return revision.empty() ? "unknown" : revision;
}

/// The host fingerprint record a BENCH file carries, one JSON object on one
/// line: resolved ISA and kernel tiles, hardware threads, cache sizes, build
/// type and source revision.
inline std::string HostRecordJson() {
  const linalg::KernelTuning& tuning = linalg::GetKernelTuning();
  const linalg::CacheHierarchy caches = linalg::DetectCacheHierarchy(42);
  char record[768];
  std::snprintf(
      record, sizeof record,
      "{\"section\": \"host\", \"isa\": \"%s\", \"kernel_tuning\": \"%s\", "
      "\"nproc\": %u, \"l1d_bytes\": %lld, \"l2_bytes\": %lld, "
      "\"l3_bytes\": %lld, \"caches_from_sysfs\": %s, "
      "\"build_type\": \"%s\", \"git\": \"%s\"}",
      linalg::SimdIsaName(linalg::ResolveSimdIsa(tuning.isa)),
      linalg::DescribeKernelTuning(tuning).c_str(),
      std::thread::hardware_concurrency(),
      static_cast<long long>(caches.l1d_bytes),
      static_cast<long long>(caches.l2_bytes),
      static_cast<long long>(caches.l3_bytes),
      caches.from_sysfs ? "true" : "false", APSPARK_BUILD_TYPE,
      SourceRevision().c_str());
  return record;
}

inline const char* PartitionerLabel(apsp::PartitionerKind kind) {
  return kind == apsp::PartitionerKind::kMultiDiagonal ? "MD" : "PH";
}

}  // namespace apspark::bench
