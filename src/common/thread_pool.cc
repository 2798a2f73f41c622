#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/trace.h"

namespace apspark {
namespace {

// Which pool (if any) the current thread belongs to, and its worker index.
// Lets ParallelForTasks route nested submissions through the caller's own
// deque and TakeTask skip the caller's deque during steal sweeps.
thread_local const ThreadPool* g_current_pool = nullptr;
thread_local std::size_t g_worker_index = 0;

}  // namespace

namespace internal {

/// Join state of one ParallelForTasks call. Lives on the joining thread's
/// stack; tasks hold pointers into `tasks`, which stay valid because the
/// joiner does not return until `remaining` hits zero, and no finisher
/// touches the group after its decrement.
class TaskGroup {
 public:
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<RawTask> tasks;
  std::atomic<std::ptrdiff_t> remaining{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;  // guards error
  std::exception_ptr error;
};

StealDeque::Buffer::Buffer(std::size_t cap)
    : capacity(cap), mask(cap - 1), cells(cap) {}

StealDeque::StealDeque() {
  auto initial = std::make_unique<Buffer>(64);
  buffer_.store(initial.get(), std::memory_order_relaxed);
  buffers_.push_back(std::move(initial));
}

StealDeque::~StealDeque() = default;

void StealDeque::Push(RawTask* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t > static_cast<std::int64_t>(buf->capacity) - 1) {
    buf = Grow(buf, b, t);
  }
  buf->cells[static_cast<std::size_t>(b) & buf->mask].store(
      task, std::memory_order_relaxed);
  // A release store rather than a release fence plus a relaxed store: the
  // same ordering, but expressed on the atomic a thief's acquire load of
  // bottom_ reads, so the pushed task's contents (written by the owner
  // before the push) happen-before the thief's use of them in a form
  // ThreadSanitizer checks (it does not model standalone fences).
  bottom_.store(b + 1, std::memory_order_release);
}

StealDeque::Buffer* StealDeque::Grow(Buffer* old, std::int64_t bottom,
                                     std::int64_t top) {
  auto grown = std::make_unique<Buffer>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) {
    grown->cells[static_cast<std::size_t>(i) & grown->mask].store(
        old->cells[static_cast<std::size_t>(i) & old->mask].load(
            std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  Buffer* raw = grown.get();
  buffer_.store(raw, std::memory_order_release);
  buffers_.push_back(std::move(grown));
  return raw;
}

RawTask* StealDeque::Pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  // Every store to bottom_ is a release store (see Push): a thief whose
  // acquire load reads any of them still synchronizes with the owner's
  // earlier pushes (release sequences do not extend through plain stores).
  bottom_.store(b, std::memory_order_release);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  RawTask* result = nullptr;
  if (t <= b) {
    result = buf->cells[static_cast<std::size_t>(b) & buf->mask].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        result = nullptr;  // a thief got it first
      }
      bottom_.store(b + 1, std::memory_order_release);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_release);
  }
  return result;
}

RawTask* StealDeque::Steal() {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return nullptr;
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  RawTask* result = buf->cells[static_cast<std::size_t>(t) & buf->mask].load(
      std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race; the caller moves on
  }
  return result;
}

}  // namespace internal

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  deques_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    deques_.push_back(std::make_unique<internal::StealDeque>());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelForTasks(std::size_t count,
                                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // One wall-clock span per batch (not per task — per-task events would
  // dominate small tasks and blow the enabled-path overhead budget).
  obs::RealSpanScope obs_span(
      "parallel_for", obs::TraceEnabled()
                          ? "\"tasks\":" + std::to_string(count)
                          : std::string());
  if (count == 1 || workers_.size() == 1) {
    // Degenerate case: a single worker would only duplicate this thread, so
    // there is nothing to steal — run inline (the single-core host path).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  internal::TaskGroup group;
  group.fn = &fn;
  group.tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    group.tasks.push_back(internal::RawTask{&group, i});
  }
  group.remaining.store(static_cast<std::ptrdiff_t>(count),
                        std::memory_order_relaxed);

  if (OnWorkerThread()) {
    // Nested submission: LIFO onto the caller's own deque. The caller works
    // the batch from the bottom while idle workers steal the oldest tasks
    // from the top.
    internal::StealDeque& own = *deques_[g_worker_index];
    for (internal::RawTask& task : group.tasks) own.Push(&task);
  } else {
    // Driver submission: the caller owns no deque, so the batch goes through
    // the shared injection queue, FIFO for every worker.
    std::lock_guard<std::mutex> lock(mutex_);
    for (internal::RawTask& task : group.tasks) injected_.push_back(&task);
  }
  pending_.fetch_add(static_cast<std::int64_t>(count),
                     std::memory_order_release);
  NotifyWorkers(count);
  JoinGroup(group);

  if (group.failed.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(group.error_mutex);
    std::rethrow_exception(group.error);
  }
}

bool ThreadPool::OnWorkerThread() const noexcept {
  return g_current_pool == this;
}

void ThreadPool::RunTask(internal::RawTask* task) {
  internal::TaskGroup* group = task->group;
  // First thrown exception wins; once a group has failed, tasks that have
  // not started yet are skipped (their bookkeeping still runs).
  if (!group->failed.load(std::memory_order_acquire)) {
    try {
      (*group->fn)(task->index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(group->error_mutex);
      if (!group->failed.exchange(true, std::memory_order_acq_rel)) {
        group->error = std::current_exception();
      }
    }
  }
  // After this decrement the group may be destroyed by the joiner at any
  // moment — it must not be touched again.
  group->remaining.fetch_sub(1, std::memory_order_acq_rel);
}

internal::RawTask* ThreadPool::TakeTask() {
  // Own deque first: LIFO keeps the caller on the warmest data.
  if (g_current_pool == this) {
    if (internal::RawTask* task = deques_[g_worker_index]->Pop()) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  if (pending_.load(std::memory_order_acquire) <= 0) return nullptr;
  // Driver-injected batches, FIFO.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!injected_.empty()) {
      internal::RawTask* task = injected_.front();
      injected_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  // Steal sweep over the worker deques, FIFO from each victim.
  const std::size_t n = deques_.size();
  const std::size_t self = g_current_pool == this ? g_worker_index : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (self + 1 + k) % n;
    if (g_current_pool == this && victim == g_worker_index) continue;
    if (internal::RawTask* task = deques_[victim]->Steal()) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::JoinGroup(internal::TaskGroup& group) {
  int idle_rounds = 0;
  while (group.remaining.load(std::memory_order_acquire) > 0) {
    if (internal::RawTask* task = TakeTask()) {
      // Any runnable task helps: one of ours, or an unrelated group's whose
      // completion unblocks another joiner (this is what makes nested joins
      // on a saturated pool deadlock-free).
      RunTask(task);
      idle_rounds = 0;
      continue;
    }
    // Our remaining tasks are in flight on other threads. Don't park on a
    // condition variable the finishers would have to signal after their
    // decrement (the group dies when the counter drains, so finishers must
    // not touch it); the in-flight tail is at most one block kernel long.
    if (++idle_rounds < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ThreadPool::NotifyWorkers(std::size_t tasks_added) {
  // The empty critical section orders this notify after any parked worker's
  // predicate check, closing the missed-wakeup window for lock-free pushes.
  { std::lock_guard<std::mutex> lock(mutex_); }
  if (tasks_added == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  g_current_pool = this;
  g_worker_index = worker_index;
  int failed_takes = 0;
  // Park timeout: the backstop for a wakeup lost to a racing lock-free
  // push. It doubles while the worker finds nothing to do (up to 64 ms), so
  // an idle pool — a process serving queries between solves — does not wake
  // every worker every millisecond; any task resets it.
  std::chrono::milliseconds park{1};
  for (;;) {
    if (internal::RawTask* task = TakeTask()) {
      failed_takes = 0;
      park = std::chrono::milliseconds{1};
      RunTask(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutting_down_ && injected_.empty() &&
        pending_.load(std::memory_order_relaxed) <= 0) {
      return;
    }
    if (pending_.load(std::memory_order_relaxed) <= 0 || ++failed_takes > 8) {
      // Park (see `park` above); the failed_takes bound keeps a worker that
      // is repeatedly losing steal races from spinning hot.
      const bool woken = cv_.wait_for(lock, park, [this] {
        return shutting_down_ || !injected_.empty() ||
               pending_.load(std::memory_order_relaxed) > 0;
      });
      if (!woken) park = std::min(park * 2, std::chrono::milliseconds{64});
      failed_takes = 0;
    }
  }
}

}  // namespace apspark
