// Work-stealing worker pool for real (host) parallel execution of engine
// tasks.
//
// Note the distinction maintained throughout this repository: the *virtual*
// cluster time reported by benchmarks comes from the discrete-event model in
// sparklet/, not from host wall time. The thread pool only accelerates actual
// computation on hosts that have spare cores; on a single-core host it
// degrades gracefully to sequential execution.
//
// Scheduling model: every worker owns a lock-free Chase-Lev deque. Task
// batches submitted through ParallelForTasks become individually stealable
// tasks: the submitting thread pushes them to its own deque (worker) or the
// shared injection queue (driver), works them LIFO from the bottom, and idle
// workers steal FIFO from the top — LIFO-local for cache locality, FIFO-steal
// so thieves take the oldest (largest-remaining) work. Nested submissions
// from inside a running task go through the caller's own deque, so a stolen
// block update can fan its row stripes out and have them stolen in turn
// instead of running them inline.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace apspark {

namespace internal {

class TaskGroup;

/// One schedulable unit: index `index` of `group`'s ParallelForTasks body.
/// Lives in the group's contiguous task array until the group completes.
struct RawTask {
  TaskGroup* group;
  std::size_t index;
};

/// Chase-Lev work-stealing deque (Lê et al., "Correct and Efficient
/// Work-Stealing for Weak Memory Models"). The owner pushes and pops at the
/// bottom (LIFO); any other thread steals from the top (FIFO). Cells hold
/// atomic pointers, so concurrent push/steal never races on non-atomic
/// memory; grown buffers are retired (not freed) until the deque dies, so a
/// stealer holding a stale buffer pointer always reads live memory.
class StealDeque {
 public:
  StealDeque();
  ~StealDeque();

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner only: pushes a task at the bottom.
  void Push(RawTask* task);
  /// Owner only: pops the most recently pushed task, or nullptr.
  RawTask* Pop();
  /// Any thread: steals the oldest task; nullptr when empty or on a lost
  /// race (the caller may simply retry or move to the next victim).
  RawTask* Steal();

 private:
  struct Buffer {
    explicit Buffer(std::size_t capacity);
    std::size_t capacity;
    std::size_t mask;
    std::vector<std::atomic<RawTask*>> cells;
  };

  Buffer* Grow(Buffer* old, std::int64_t bottom, std::int64_t top);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  // Owner-only list of every buffer ever allocated (retired on growth);
  // keeps concurrently read old buffers alive until destruction.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace internal

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means "hardware concurrency".
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Schedules `count` independent tasks — fn(0) .. fn(count-1) — as
  /// stealable units and waits for all of them. The calling thread
  /// participates: it works its own tasks LIFO and steals from workers while
  /// waiting, so a saturated pool can never deadlock a nested call. Safe to
  /// call from inside one of this pool's own tasks: nested calls schedule
  /// through the caller's own deque and are stealable by idle workers
  /// instead of running inline. Exceptions from tasks are rethrown (first
  /// one wins; once a task has thrown, tasks of the same call that have not
  /// started yet are skipped).
  void ParallelForTasks(std::size_t count,
                        const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const noexcept;

 private:
  void WorkerLoop(std::size_t worker_index);
  /// Runs one task and settles its group bookkeeping.
  void RunTask(internal::RawTask* task);
  /// Takes one stealable task: the caller's own deque first (workers), then
  /// the injection queue, then a steal sweep over all worker deques.
  internal::RawTask* TakeTask();
  /// Blocks the joining thread on `group` completion, helping with any
  /// runnable work first.
  void JoinGroup(internal::TaskGroup& group);
  /// Makes a wakeup visible to workers parked in WorkerLoop.
  void NotifyWorkers(std::size_t tasks_added);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<internal::StealDeque>> deques_;

  // Stealable tasks submitted from threads that own no deque (the driver).
  std::deque<internal::RawTask*> injected_;

  // Count of stealable tasks sitting in deques or the injection queue; lets
  // parked workers decide whether a steal sweep is worth waking up for.
  std::atomic<std::int64_t> pending_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace apspark
