#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics_registry.h"

namespace apspark::obs {

namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

// Chrome trace-event pids: one fake "process" per clock domain.
constexpr int kRealPid = 1;
constexpr int kVirtualPid = 2;

struct Event {
  std::string name;
  char phase;         // 'X' complete, 'i' instant
  int pid;
  std::int64_t tid;
  std::uint64_t ts_us;   // microseconds
  std::uint64_t dur_us;  // 'X' only
  std::string args_json; // rendered object body, may be empty
};

// Per-thread event buffer. Owned via shared_ptr so the tracer can still
// read buffers of threads that have exited.
struct EventBuffer {
  std::mutex mu;
  std::vector<Event> events;
};

std::uint64_t SimSecondsToUs(double seconds) {
  if (seconds < 0) seconds = 0;
  return static_cast<std::uint64_t>(seconds * 1e6);
}

}  // namespace

struct Tracer::Impl {
  std::mutex mu;  // guards buffers list + lane names + generation
  std::vector<std::shared_ptr<EventBuffer>> buffers;
  std::map<std::int64_t, std::string> lane_names;  // virtual lanes
  std::uint64_t generation = 0;

  EventBuffer& ThreadBuffer() {
    thread_local std::shared_ptr<EventBuffer> tl_buffer;
    thread_local Impl* tl_owner = nullptr;
    if (!tl_buffer || tl_owner != this) {
      tl_buffer = std::make_shared<EventBuffer>();
      tl_owner = this;
      std::lock_guard<std::mutex> lock(mu);
      buffers.push_back(tl_buffer);
    }
    return *tl_buffer;
  }

  void Append(Event ev) {
    EventBuffer& buf = ThreadBuffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.events.push_back(std::move(ev));
  }
};

Tracer& Tracer::Get() {
  static Tracer* g = new Tracer();  // leaked: worker threads touch at exit
  return *g;
}

Tracer::Impl& Tracer::impl() const {
  static Impl* g = new Impl();
  return *g;
}

void Tracer::Start() {
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& buf : im.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      buf->events.clear();
    }
    im.lane_names.clear();
    ++im.generation;
  }
  internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() {
  internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t Tracer::RealNowNs() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

void Tracer::VirtualSpan(const char* name, std::int64_t lane,
                         double start_seconds, double end_seconds,
                         std::string args_json) {
  if (!TraceEnabled()) return;
  if (end_seconds < start_seconds) end_seconds = start_seconds;
  Event ev;
  ev.name = name;
  ev.phase = 'X';
  ev.pid = kVirtualPid;
  ev.tid = lane;
  ev.ts_us = SimSecondsToUs(start_seconds);
  ev.dur_us = SimSecondsToUs(end_seconds) - ev.ts_us;
  // Perfetto drops zero-duration complete events from some views; clamp to
  // 1us so instantaneous model stages stay visible.
  if (ev.dur_us == 0) ev.dur_us = 1;
  ev.args_json = std::move(args_json);
  impl().Append(std::move(ev));
}

void Tracer::VirtualInstant(const char* name, std::int64_t lane,
                            double at_seconds, std::string args_json) {
  if (!TraceEnabled()) return;
  Event ev;
  ev.name = name;
  ev.phase = 'i';
  ev.pid = kVirtualPid;
  ev.tid = lane;
  ev.ts_us = SimSecondsToUs(at_seconds);
  ev.dur_us = 0;
  ev.args_json = std::move(args_json);
  impl().Append(std::move(ev));
}

void Tracer::RealSpan(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::string args_json) {
  if (!TraceEnabled()) return;
  if (end_ns < start_ns) end_ns = start_ns;
  static std::atomic<std::int64_t> next_real_lane{0};
  thread_local const std::int64_t real_lane =
      next_real_lane.fetch_add(1, std::memory_order_relaxed);
  Event ev;
  ev.name = name;
  ev.phase = 'X';
  ev.pid = kRealPid;
  ev.tid = real_lane;
  ev.ts_us = start_ns / 1000;
  ev.dur_us = (end_ns - start_ns) / 1000;
  if (ev.dur_us == 0) ev.dur_us = 1;
  ev.args_json = std::move(args_json);
  impl().Append(std::move(ev));
}

void Tracer::SetLaneName(std::int64_t lane, const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.lane_names.emplace(lane, name);  // first name wins
}

std::size_t Tracer::EventCount() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::size_t n = 0;
  for (auto& buf : im.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    n += buf->events.size();
  }
  return n;
}

std::string Tracer::ToChromeJson() const {
  Impl& im = impl();
  std::vector<Event> events;
  std::map<std::int64_t, std::string> lane_names;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& buf : im.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      events.insert(events.end(), buf->events.begin(), buf->events.end());
    }
    lane_names = im.lane_names;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     // Nest longer spans outside shorter ones.
                     return a.dur_us > b.dur_us;
                   });

  std::string out = "{\"traceEvents\":[\n";
  auto meta = [&out](int pid, std::int64_t tid, const char* what,
                     const std::string& name, bool first) {
    if (!first) out += ",\n";
    out += "{\"name\":\"";
    out += what;
    out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    if (tid >= 0) out += ",\"tid\":" + std::to_string(tid);
    out += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(out, name);
    out += "\"}}";
  };
  meta(kRealPid, -1, "process_name", "host (wall clock)", true);
  meta(kVirtualPid, -1, "process_name", "cluster (sim clock)", false);
  meta(kVirtualPid, kDriverLane, "thread_name", "driver / network", false);
  for (const auto& [lane, name] : lane_names) {
    if (lane == kDriverLane) continue;
    meta(kVirtualPid, lane, "thread_name", name, false);
  }
  for (const Event& ev : events) {
    out += ",\n{\"name\":\"";
    AppendJsonEscaped(out, ev.name);
    out += "\",\"ph\":\"";
    out += ev.phase;
    out += "\",\"pid\":" + std::to_string(ev.pid);
    out += ",\"tid\":" + std::to_string(ev.tid);
    out += ",\"ts\":" + std::to_string(ev.ts_us);
    if (ev.phase == 'X') out += ",\"dur\":" + std::to_string(ev.dur_us);
    if (ev.phase == 'i') out += ",\"s\":\"t\"";
    if (!ev.args_json.empty()) out += ",\"args\":{" + ev.args_json + "}";
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  const std::string json = ToChromeJson();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

}  // namespace apspark::obs
