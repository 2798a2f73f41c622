// Per-task execution context.
//
// Every user function invoked by the engine receives a TaskContext& through
// which it (a) charges modelled compute time — kernels are real at test
// scale, but the virtual clock always advances by the calibrated cost model
// so that laptop runs and paper-scale phantom runs report consistent time —
// and (b) reaches the shared-storage side channel, with read traffic added
// to the task's modelled duration (the paper's executors deserialize column
// blocks from GPFS inside map tasks).
//
// Each task has its own context, so the tasks of one stage may run
// concurrently on the host (SparkletContext::RunTasks); a context itself is
// used by one thread at a time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/cost_model.h"
#include "sparklet/config.h"
#include "sparklet/shared_storage.h"

namespace apspark::sparklet {

/// Thrown by TaskContext::RequireDriver: the task reached a step only the
/// driver may take. The task runner catches it and re-runs the task there.
struct NeedsDriver {};

class TaskContext {
 public:
  TaskContext(const linalg::CostModel* cost_model, SharedStorage* storage,
              const ClusterConfig* config)
      : cost_model_(cost_model), storage_(storage), config_(config) {}

  const linalg::CostModel& cost_model() const noexcept { return *cost_model_; }

  /// Adds modelled seconds to this task's duration.
  void ChargeCompute(double seconds) noexcept { task_seconds_ += seconds; }

  /// Reads an object from shared storage, charging the task for the
  /// transfer (per-reader slice of the shared-FS bandwidth).
  Result<SharedStorage::Object> ReadShared(const std::string& key);

  /// Zero-copy block read: same charging as ReadShared (the modelled bytes
  /// cross the shared FS either way), but returns the stored immutable ref —
  /// no per-task deserialization copy.
  Result<linalg::BlockRef> ReadSharedBlock(const std::string& key);

  /// Total modelled duration accumulated so far.
  double task_seconds() const noexcept { return task_seconds_; }
  std::uint64_t shared_read_bytes() const noexcept {
    return shared_read_bytes_;
  }

  /// Generations of the blocks this task read, in read order.
  const std::vector<std::uint64_t>& block_generations() const noexcept {
    return block_generations_;
  }
  /// Whether this task read a byte object, which carries no generation.
  bool read_byte_object() const noexcept { return read_byte_object_; }

  /// Engine-internal: number of tasks of the current stage that can run
  /// concurrently, used to split shared-FS bandwidth fairly.
  void SetStageConcurrency(int concurrency) noexcept {
    stage_concurrency_ = concurrency < 1 ? 1 : concurrency;
  }

  /// Engine-internal: marks a task the runner runs beside other tasks of
  /// its stage, off the driver's serial path.
  void SetConcurrent() noexcept { concurrent_ = true; }
  bool concurrent() const noexcept { return concurrent_; }

  /// Engine-internal: guards a step with effects outside the task — starting
  /// a stage, consuming an armed failure. A concurrent task stops here,
  /// before the step, by throwing NeedsDriver; a driver task goes on.
  void RequireDriver() const {
    if (concurrent_) throw NeedsDriver{};
  }

 private:
  /// Adds the modelled shared-FS transfer of `logical_bytes` to the task.
  void ChargeSharedRead(std::uint64_t logical_bytes) noexcept;

  const linalg::CostModel* cost_model_;
  SharedStorage* storage_;
  const ClusterConfig* config_;
  double task_seconds_ = 0;
  std::uint64_t shared_read_bytes_ = 0;
  std::vector<std::uint64_t> block_generations_;
  bool read_byte_object_ = false;
  int stage_concurrency_ = 1;
  bool concurrent_ = false;
};

}  // namespace apspark::sparklet
