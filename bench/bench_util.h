// Shared helpers for the table/figure reproduction harnesses.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

/// The widest x86 SIMD extension the bench itself was compiled for: "avx512f"
/// or "avx2" in a -march=native build on such a host, "baseline" in a
/// portable (APSPARK_NATIVE=OFF) build, whatever the host runs.
inline const char* CompiledIsa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "baseline";
#endif
}

/// The host fingerprint record a BENCH file carries, one JSON object on one
/// line: resolved run-time ISA, compiled ISA and kernel tiles, hardware
/// threads, cache sizes, build type and source revision.
inline std::string HostRecordJson() {
  const linalg::KernelTuning& tuning = linalg::GetKernelTuning();
  const linalg::CacheHierarchy caches = linalg::DetectCacheHierarchy(42);
  char record[768];
  std::snprintf(
      record, sizeof record,
      "{\"section\": \"host\", \"isa\": \"%s\", \"compiled_isa\": \"%s\", "
      "\"kernel_tuning\": \"%s\", "
      "\"nproc\": %u, \"l1d_bytes\": %lld, \"l2_bytes\": %lld, "
      "\"l3_bytes\": %lld, \"caches_from_sysfs\": %s, "
      "\"build_type\": \"%s\", \"git\": \"%s\"}",
      linalg::SimdIsaName(linalg::ResolveSimdIsa(tuning.isa)), CompiledIsa(),
      linalg::DescribeKernelTuning(tuning).c_str(),
      std::thread::hardware_concurrency(),
      static_cast<long long>(caches.l1d_bytes),
      static_cast<long long>(caches.l2_bytes),
      static_cast<long long>(caches.l3_bytes),
      caches.from_sysfs ? "true" : "false", APSPARK_BUILD_TYPE,
      SourceRevision().c_str());
  return record;
}

/// printf into a std::string; the benches format each record's members
/// with it.
[[gnu::format(printf, 1, 2)]] inline std::string Format(const char* format,
                                                        ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int size = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  std::string out(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args);
  va_end(args);
  return out;
}

enum class Better { kHigher, kLower };

/// A gate a BENCH record declares on one of its metrics; bench/check_gates.py
/// evaluates it against a committed baseline. `same_host` applies when the
/// two files' host records agree, `other_host` otherwise; std::nullopt
/// (written as null) leaves the gate unevaluated on that kind of host.
struct Gate {
  std::string id;
  std::string metric;
  Better better = Better::kHigher;
  bool relative = true;              // kind "relative" or "bound"
  std::optional<double> same_host;   // "tol" or "limit"
  std::optional<double> other_host;  // "tol_other_host"/"limit_other_host"
  /// Emitted only on hosts that can run it: a measured file without it
  /// skips the gate with a note instead of failing.
  bool optional = false;
};

/// Passes when the metric is within `tol` of the baseline's: m >= b(1 - tol)
/// when higher is better, m <= b(1 + tol) when lower is better.
inline Gate Relative(std::string id, std::string metric, Better better,
                     std::optional<double> tol,
                     std::optional<double> tol_other_host,
                     bool optional = false) {
  return {std::move(id), std::move(metric), better, true, tol,
          tol_other_host, optional};
}

/// A floor when higher is better, a ceiling when lower is better; needs no
/// baseline value.
inline Gate Bound(std::string id, std::string metric, Better better,
                  double limit, double limit_other_host,
                  bool optional = false) {
  return {std::move(id), std::move(metric), better, false, limit,
          limit_other_host, optional};
}

inline std::string GateJson(const Gate& gate) {
  const auto value = [](std::optional<double> v) {
    return v ? Format("%g", *v) : std::string("null");
  };
  const char* key = gate.relative ? "tol" : "limit";
  return Format(
      "{\"id\": \"%s\", \"metric\": \"%s\", \"better\": \"%s\", "
      "\"kind\": \"%s\", \"%s\": %s, \"%s_other_host\": %s%s}",
      gate.id.c_str(), gate.metric.c_str(),
      gate.better == Better::kHigher ? "higher" : "lower",
      gate.relative ? "relative" : "bound", key,
      value(gate.same_host).c_str(), key, value(gate.other_host).c_str(),
      gate.optional ? ", \"optional\": true" : "");
}

/// One BENCH record: its JSON members (no braces) and the gates it declares
/// on them.
struct Record {
  std::string members;
  std::vector<Gate> gates;
};

/// Writes a BENCH file to $APSPARK_BENCH_JSON, or to `default_path` when
/// that is unset: {"benchmark": ..., "results": [...]}, the host record
/// first, one record per line. Returns false, after saying so on stderr,
/// when the file cannot be written; the bench then exits 1.
inline bool WriteBenchJson(const char* benchmark, const char* default_path,
                           const std::vector<Record>& records) {
  const char* env = std::getenv("APSPARK_BENCH_JSON");
  const std::string path = env != nullptr ? env : default_path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"results\": [\n    %s",
               benchmark, HostRecordJson().c_str());
  for (const Record& record : records) {
    std::fprintf(f, ",\n    {%s", record.members.c_str());
    for (std::size_t i = 0; i < record.gates.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? ", \"gates\": [" : ", ",
                   GateJson(record.gates[i]).c_str());
    }
    std::fputs(record.gates.empty() ? "}" : "]}", f);
  }
  std::fputs("\n  ]\n}\n", f);
  const bool written = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nresults written to %s\n", path.c_str());
  return true;
}

inline const char* PartitionerLabel(apsp::PartitionerKind kind) {
  return kind == apsp::PartitionerKind::kMultiDiagonal ? "MD" : "PH";
}

}  // namespace apspark::bench
