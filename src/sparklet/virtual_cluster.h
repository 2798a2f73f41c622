// Discrete-event model of the executing cluster.
//
// The cluster never runs real threads: callers hand it descriptions of work
// (per-task compute seconds, bytes moved) and it advances a virtual clock by
// the modelled makespan. Actual record processing happens in the calling
// (driver) thread — correctness is real, time is simulated. See README.md,
// "Fault tolerance".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/math_utils.h"
#include "common/status.h"
#include "sparklet/block_manager.h"
#include "sparklet/config.h"
#include "sparklet/fault.h"
#include "sparklet/memory_accountant.h"
#include "sparklet/metrics.h"

namespace apspark::sparklet {

/// Longest-processing-time list scheduling of `task_seconds` onto `machines`
/// identical machines; returns the makespan. Exposed for testing.
double ListScheduleMakespan(std::vector<double> task_seconds, int machines);

/// Why a stage runs: normal forward progress, or replay of work a failure
/// destroyed. Recovery stages advance the clock like any other, and
/// additionally attribute their time to SimMetrics::recovery_seconds.
enum class StageKind {
  kNormal,
  kRecovery,
};

/// One executed stage, as the stage trace records it: which stage ran, and
/// whether it was forward progress or a recovery replay.
struct StageRecord {
  std::string name;
  StageKind kind = StageKind::kNormal;
};

class VirtualCluster {
 public:
  explicit VirtualCluster(ClusterConfig config);

  const ClusterConfig& config() const noexcept { return config_; }
  const SimMetrics& metrics() const noexcept { return metrics_; }
  SimMetrics& mutable_metrics() noexcept { return metrics_; }
  double now_seconds() const noexcept { return clock_seconds_; }

  /// Resets clock, metrics and storage occupancy (not the configuration,
  /// and not the membership — lost nodes stay lost).
  void Reset();

  /// Node that hosts a given partition, per the placement map. On a cluster
  /// that never lost a node this is the historical round-robin
  /// `partition % nodes`; after losses it reflects the deterministic
  /// rehoming (see BlockManager). Negative partition ids are
  /// rejected with a SPARKLET_CHECK.
  int NodeOfPartition(std::int64_t partition) const {
    return placement_.NodeOf(partition);
  }

  /// Membership view (placement map, live/dead nodes).
  const BlockManager& placement() const noexcept { return placement_; }
  int live_nodes() const noexcept { return placement_.live_nodes(); }

  /// Task slots the scheduler currently fills: dead nodes contribute none.
  /// Equals config().concurrent_task_slots() until a node is lost.
  int live_task_slots() const noexcept {
    const int per_task =
        config_.intra_task_cores < 1 ? 1 : config_.intra_task_cores;
    const int slots =
        placement_.live_nodes() * config_.cores_per_node / per_task;
    return slots < 1 ? 1 : slots;
  }

  /// Memory-residency accounting (driver / per-node live-bytes high water).
  MemoryAccountant& accountant() noexcept { return accountant_; }
  const MemoryAccountant& accountant() const noexcept { return accountant_; }

  /// Advances the clock by a stage of `task_seconds` (already including any
  /// per-task I/O the tasks performed), scheduled onto all cores, plus
  /// per-task launch overhead and fixed stage overhead. Records metrics
  /// under `stage_name`.
  /// At the stage boundary, armed node-failure plans (see SetFaultHooks)
  /// fire: the lost node's local spill vanishes and the loss handler drops
  /// its cached partitions and preserved shuffle outputs.
  void RunStage(const std::vector<double>& task_seconds,
                const std::string& stage_name = {},
                StageKind kind = StageKind::kNormal);

  /// Wires fault injection into the stage loop. `injector` supplies armed
  /// node-loss plans; `on_node_lost` is invoked (after the cluster wipes
  /// the node's local storage and rehomes its slots) so the owning context
  /// can drop the node's cached partitions and preserved shuffle map
  /// outputs. Both must outlive the cluster; SparkletContext installs them
  /// at construction.
  void SetFaultHooks(FaultInjector* injector,
                     std::function<void(int)> on_node_lost) {
    fault_injector_ = injector;
    node_loss_handler_ = std::move(on_node_lost);
  }

  /// Stage tracing: when enabled, every RunStage appends a StageRecord
  /// (the stage's name and kind), so tests can check which stages a run
  /// executed and in what order. Reset() clears the trace.
  void EnableStageTrace() { trace_enabled_ = true; }
  const std::vector<StageRecord>& stage_trace() const noexcept {
    return stage_trace_;
  }

  /// Recovery attribution for the checkpoint-restart path: marks "progress
  /// up to here is durable". On a later ChargeRestartRecovery(), everything
  /// the clock and task counter accumulated past the most recent mark is
  /// counted as destroyed-and-redone work (recovery_seconds /
  /// recomputed_tasks). SaveCheckpoint and the solver restart loop call
  /// these; Reset() clears the mark.
  void NoteDurableMark();
  void ChargeRestartRecovery();

  /// Charges an all-to-all shuffle write of `bytes_per_partition` map output:
  /// spill lands on each map partition's node (compressed), and the transfer
  /// cost of moving the non-local fraction over the network is added to the
  /// clock. Fails with RESOURCE_EXHAUSTED when any node's local storage
  /// overflows — the failure mode the paper hits with Blocked In-Memory.
  Status ChargeShuffle(const std::vector<std::uint64_t>& bytes_per_partition);

  /// Charges driver-side collect of `bytes` arriving over the driver NIC.
  void ChargeCollect(std::uint64_t bytes, std::int64_t partitions);

  /// Charges a driver->executors broadcast of `bytes` (torrent-style:
  /// log2(nodes) rounds of the full payload on the slowest path).
  void ChargeBroadcast(std::uint64_t bytes);

  /// Charges a write of `bytes` to the shared file system (driver side).
  void ChargeSharedFsWrite(std::uint64_t bytes, std::int64_t files = 1);

  /// Charges `bytes` of shared-FS reads issued concurrently by `readers`
  /// tasks (aggregate bandwidth shared).
  void ChargeSharedFsRead(std::uint64_t bytes, std::int64_t readers);

  /// Local storage used on `node` (shuffle staging high-water accounting;
  /// Spark preserves shuffle files for fault tolerance, so within one solver
  /// run the usage only grows — matching §5.2).
  std::uint64_t LocalStorageUsed(int node) const;
  std::uint64_t MaxLocalStorageUsed() const;

 private:
  /// Fires the node-loss plans due at the just-completed stage boundary:
  /// each loss rehomes the node's slots and invokes the loss handler
  /// (refusing to kill the last live node or an already-dead one).
  void FireNodeLosses(std::int64_t completed_stage);
  void LoseNode(int node);

  /// Emits the just-completed stage onto the virtual trace: one stage-level
  /// span on the driver lane plus one span per task on its node/slot lane,
  /// reconstructed from the LPT placement. Called only while a trace
  /// capture is active; purely observational.
  void EmitStageSpans(const std::string& stage_name, StageKind kind,
                      double stage_start,
                      const std::vector<LptPlacement>& placements);

  ClusterConfig config_;
  double clock_seconds_ = 0;
  SimMetrics metrics_;
  MemoryAccountant accountant_;
  BlockManager placement_;
  std::vector<std::uint64_t> node_storage_used_;
  FaultInjector* fault_injector_ = nullptr;
  std::function<void(int)> node_loss_handler_;
  bool trace_enabled_ = false;
  std::vector<StageRecord> stage_trace_;
  // Durable-progress mark of the checkpoint-restart recovery attribution
  // (clock/tasks plus the recovery totals already attributed at the mark,
  // so in-window replay stages are not double-counted by a restart).
  double durable_clock_seconds_ = 0;
  std::uint64_t durable_tasks_ = 0;
  double durable_recovery_seconds_ = 0;
  std::uint64_t durable_recomputed_tasks_ = 0;
};

}  // namespace apspark::sparklet
