#include "linalg/block_pool.h"

#include <mutex>
#include <new>
#include <unordered_map>
#include <utility>

#include "obs/metrics_registry.h"

#if defined(__SANITIZE_ADDRESS__)
#define APSPARK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define APSPARK_ASAN 1
#endif
#endif
#if defined(APSPARK_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace apspark::linalg {

namespace {

/// Cache-line (64-byte) aligned storage, so no vector load of a kernel
/// splits across two lines.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) noexcept {
    return true;
  }
};

std::size_t Bytes(const std::vector<double>& buf) noexcept {
  return buf.capacity() * sizeof(double);
}

void Poison(std::vector<double>& buf) noexcept {
#if defined(APSPARK_ASAN)
  ASAN_POISON_MEMORY_REGION(buf.data(), Bytes(buf));
#else
  (void)buf;
#endif
}

void Unpoison(std::vector<double>& buf) noexcept {
#if defined(APSPARK_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(buf.data(), Bytes(buf));
#else
  (void)buf;
#endif
}

struct Pool {
  std::mutex mu;
  // Idle buffers per exact element count, most recently released last (the
  // one most likely still in cache is reused first).
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> idle;
  std::size_t idle_bytes = 0;
  obs::Counter& reused =
      obs::Registry::Global().GetCounter("block_pool_reused_total");
  obs::Counter& fresh =
      obs::Registry::Global().GetCounter("block_pool_fresh_total");
  obs::Gauge& idle_gauge =
      obs::Registry::Global().GetGauge("block_pool_idle_bytes");
};

Pool& GlobalPool() {
  // Leaked: blocks with static storage duration release into it at exit.
  static Pool* pool = new Pool();
  return *pool;
}

}  // namespace

std::vector<double> TakeBlockBuffer(std::size_t count) {
  if (!BlockPoolEligible(count)) return {};
  Pool& pool = GlobalPool();
  std::vector<double> buf;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    auto it = pool.idle.find(count);
    if (it != pool.idle.end() && !it->second.empty()) {
      buf = std::move(it->second.back());
      it->second.pop_back();
      pool.idle_bytes -= Bytes(buf);
      pool.idle_gauge.Set(static_cast<double>(pool.idle_bytes));
    }
  }
  if (buf.empty()) {
    pool.fresh.Add();
    return buf;
  }
  pool.reused.Add();
  Unpoison(buf);
  return buf;
}

void ReleaseBlockBuffer(std::vector<double>& buf) noexcept {
  // Swapped out first so `buf` is left empty on every path; a buffer the
  // pool does not keep is freed when `out` goes out of scope, outside the
  // lock.
  std::vector<double> out;
  out.swap(buf);
  if (!BlockPoolEligible(out.size())) return;
  Pool& pool = GlobalPool();
  const std::size_t bytes = Bytes(out);
  std::lock_guard<std::mutex> lock(pool.mu);
  if (pool.idle_bytes + bytes > kBlockPoolIdleCapBytes) return;
  try {
    auto& list = pool.idle[out.size()];
    Poison(out);
    list.push_back(std::move(out));
  } catch (...) {
    // Growing the idle list failed: free the buffer instead of keeping it.
    Unpoison(out);
    return;
  }
  pool.idle_bytes += bytes;
  pool.idle_gauge.Set(static_cast<double>(pool.idle_bytes));
}

double* ThreadScratch(std::size_t count) {
  thread_local std::vector<double, CacheLineAllocator<double>> scratch;
  if (scratch.size() < count) {
    scratch = {};  // free first: never hold both
    scratch.resize(count);
  }
  return scratch.data();
}

std::size_t BlockPoolIdleBytes() {
  Pool& pool = GlobalPool();
  std::lock_guard<std::mutex> lock(pool.mu);
  return pool.idle_bytes;
}

void TrimBlockPool() {
  Pool& pool = GlobalPool();
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> drop;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    drop.swap(pool.idle);
    pool.idle_bytes = 0;
    pool.idle_gauge.Set(0);
  }
  for (auto& [count, list] : drop) {
    for (auto& buf : list) Unpoison(buf);
  }
}

}  // namespace apspark::linalg
