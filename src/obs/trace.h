// Dual-clock span tracer exporting Chrome trace-event JSON.
//
// The repo runs in two time domains at once: real wall-clock time (the
// driver thread, thread-pool workers, block-store disk loads) and the
// virtual sim clock (`VirtualCluster::clock_seconds()` — stages, tasks,
// interstage transfers, recovery replays). This tracer records spans from
// both and exports them as one Chrome trace-event file loadable in Perfetto
// or chrome://tracing:
//
//   pid 1 ("host (wall clock)")   — real spans, tid = OS-thread lane
//   pid 2 ("cluster (sim clock)") — virtual spans, tid = cluster lane
//
// Virtual lanes are laid out so a stage timeline reads like a cluster
// gantt chart: lane 0 is the driver (stage-level spans, interstage
// shuffle/collect/broadcast/shared-FS transfers) and lanes 1.. are
// node/slot execution lanes (one per task slot, grouped by node).
//
// Cost discipline: tracing is off by default. The *only* work on the
// disabled path is one relaxed atomic load (`TraceEnabled()`), inlined at
// every call site — gated ≤1% end-to-end by bench_obs_overhead. Enabled-
// path recording appends to per-thread buffers (one mutex each, never
// contended except at export) and is gated ≤5%. Tracing never feeds back
// into simulation state, so solves are bitwise-identical with it on or off
// (locked by tests/test_obs.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace apspark::obs {

/// Virtual lane ids (tid within the sim-clock process).
inline constexpr std::int64_t kDriverLane = 0;

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

/// True iff a trace capture is active. This is the disabled-path cost:
/// one relaxed load, no call.
inline bool TraceEnabled() noexcept {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

class Tracer {
 public:
  static Tracer& Get();

  /// Starts a capture: clears prior events and flips the enabled flag.
  void Start();
  /// Stops recording (buffers retained until the next Start()).
  void Stop();

  /// Records a completed span in the virtual (sim-clock) process.
  /// Times are sim seconds; `args_json` is either empty or a rendered JSON
  /// object body (`"k":"v","n":3`) appended to the event's args.
  void VirtualSpan(const char* name, std::int64_t lane, double start_seconds,
                   double end_seconds, std::string args_json = {});

  /// Records an instant event (`ph:"i"`) in the virtual process — node
  /// losses.
  void VirtualInstant(const char* name, std::int64_t lane, double at_seconds,
                      std::string args_json = {});

  /// Records a completed span in the real (wall-clock) process on the
  /// calling OS thread's lane. Times come from RealNowNs().
  void RealSpan(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                std::string args_json = {});

  /// Nanoseconds since the process-wide steady epoch.
  static std::uint64_t RealNowNs() noexcept;

  /// Names a virtual lane (shows as the track name in Perfetto). Idempotent.
  void SetLaneName(std::int64_t lane, const std::string& name);

  /// Serializes everything recorded since Start() as a Chrome trace-event
  /// JSON document ({"traceEvents":[...]}); events are sorted by timestamp.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`; returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// Number of events recorded (tests).
  std::size_t EventCount() const;

 private:
  Tracer() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII wall-clock span: records [construction, destruction) on the calling
/// thread's real lane when tracing is enabled, and is two branch-predicted
/// loads when it isn't.
class RealSpanScope {
 public:
  explicit RealSpanScope(const char* name, std::string args_json = {})
      : name_(name) {
    if (TraceEnabled()) {
      start_ns_ = Tracer::RealNowNs();
      args_ = std::move(args_json);
      active_ = true;
    }
  }
  ~RealSpanScope() {
    if (active_ && TraceEnabled()) {
      Tracer::Get().RealSpan(name_, start_ns_, Tracer::RealNowNs(),
                             std::move(args_));
    }
  }
  RealSpanScope(const RealSpanScope&) = delete;
  RealSpanScope& operator=(const RealSpanScope&) = delete;

 private:
  const char* name_;
  std::string args_;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace apspark::obs
