// Per-run simulation metrics, broken down the way the paper discusses costs:
// compute vs data movement (shuffle, driver collect, shared-FS side channel)
// vs Spark overheads (task scheduling, stage setup).
#pragma once

#include <cstdint>
#include <string>

namespace apspark::sparklet {

struct SimMetrics {
  // Virtual time, seconds, by category. sim_seconds() is their sum and is
  // the "execution time" every benchmark reports.
  double compute_seconds = 0;
  double shuffle_seconds = 0;
  double collect_seconds = 0;
  double broadcast_seconds = 0;
  double shared_fs_seconds = 0;
  double scheduling_seconds = 0;

  // Volumes.
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t collect_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t shared_fs_written_bytes = 0;
  std::uint64_t shared_fs_read_bytes = 0;

  // Counters.
  std::uint64_t stages = 0;
  std::uint64_t tasks = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t task_retries = 0;

  // Fault-tolerance subsystem. Recovery time is an *attribution overlay*:
  // stages replaying lost work already advance the normal category clocks
  // (compute/scheduling/shuffle), and recovery_seconds additionally records
  // how much of the run was spent redoing work an executor loss destroyed —
  // lineage recomputation of lost cached partitions and shuffle map outputs
  // for pure dataflow, plus the post-checkpoint progress a restart throws
  // away for impure solvers. It is therefore NOT part of sim_seconds().
  double recovery_seconds = 0;
  /// Tasks re-executed because a failure destroyed their prior result.
  std::uint64_t recomputed_tasks = 0;
  /// Injected executor (node) losses that actually fired.
  std::uint64_t executor_failures = 0;
  /// Job-level restarts from a checkpoint (impure-solver recovery path).
  std::uint64_t job_restarts = 0;

  // High-water mark of per-node local storage used for shuffle staging.
  std::uint64_t local_storage_peak_bytes = 0;

  // Live-bytes high water from the MemoryAccountant: driver-resident data
  // (collect results, broadcast sources, registered holdings) and the
  // largest per-node in-memory footprint (cached RDD partitions).
  std::uint64_t driver_peak_bytes = 0;
  std::uint64_t node_peak_bytes = 0;

  double sim_seconds() const noexcept {
    return compute_seconds + shuffle_seconds + collect_seconds +
           broadcast_seconds + shared_fs_seconds + scheduling_seconds;
  }

  /// Field-wise exact equality (tests: host-side changes must leave every
  /// modelled number bitwise unchanged).
  bool operator==(const SimMetrics&) const = default;

  std::string Summary() const;
  /// Publishes every field (and sim_seconds()) as a `sim_*` gauge in the
  /// global metrics registry; repeated calls overwrite the gauges.
  void Publish() const;
};

}  // namespace apspark::sparklet
