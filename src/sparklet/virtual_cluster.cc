#include "sparklet/virtual_cluster.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/bytes.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace apspark::sparklet {

namespace {

/// Emits a [before, after] span on the virtual driver lane for an
/// interstage clock advance (shuffle, collect, broadcast, shared FS,
/// rebalance). Call with the clock captured before and after the charge.
void TraceInterstage(const char* name, double before, double after,
                     std::uint64_t bytes) {
  if (!obs::TraceEnabled()) return;
  obs::Tracer::Get().VirtualSpan(name, obs::kDriverLane, before, after,
                                 "\"bytes\":" + std::to_string(bytes));
}

}  // namespace

double ListScheduleMakespan(std::vector<double> task_seconds, int machines) {
  return LptMakespan(std::move(task_seconds), machines);
}

VirtualCluster::VirtualCluster(ClusterConfig config)
    : config_(config),
      accountant_(config.nodes, &metrics_),
      placement_(config.nodes, config.racks),
      node_storage_used_(static_cast<std::size_t>(config_.nodes), 0) {}

void VirtualCluster::Reset() {
  clock_seconds_ = 0;
  metrics_ = SimMetrics{};
  std::fill(node_storage_used_.begin(), node_storage_used_.end(), 0);
  // Residency survives a clock reset (solvers reset after free RDD
  // population); only the high-water marks restart from the live set.
  accountant_.ResetPeaks();
  durable_clock_seconds_ = 0;
  durable_tasks_ = 0;
  durable_recovery_seconds_ = 0;
  durable_recomputed_tasks_ = 0;
  stage_trace_.clear();
  trace_last_clock_ = 0;
}

void VirtualCluster::NoteDurableMark() {
  durable_clock_seconds_ = clock_seconds_;
  durable_tasks_ = metrics_.tasks;
  durable_recovery_seconds_ = metrics_.recovery_seconds;
  durable_recomputed_tasks_ = metrics_.recomputed_tasks;
}

void VirtualCluster::ChargeRestartRecovery() {
  // Everything since the last durable mark (job start, or the most recent
  // checkpoint) is work the failure destroyed: the restart re-executes it.
  // Replay stages inside the window already attributed their share to
  // recovery (StageKind::kRecovery, RecoverLostMapOutputs), so only the
  // not-yet-attributed remainder is added — no double counting.
  const double window_clock =
      std::max(0.0, clock_seconds_ - durable_clock_seconds_);
  const double window_attributed =
      std::max(0.0, metrics_.recovery_seconds - durable_recovery_seconds_);
  metrics_.recovery_seconds += std::max(0.0, window_clock - window_attributed);
  const std::uint64_t window_tasks =
      metrics_.tasks > durable_tasks_ ? metrics_.tasks - durable_tasks_ : 0;
  const std::uint64_t window_recomputed =
      metrics_.recomputed_tasks > durable_recomputed_tasks_
          ? metrics_.recomputed_tasks - durable_recomputed_tasks_
          : 0;
  metrics_.recomputed_tasks +=
      window_tasks > window_recomputed ? window_tasks - window_recomputed : 0;
  metrics_.job_restarts += 1;
  // The restart resumes from the durable point; further losses are measured
  // against the progress made from here on.
  NoteDurableMark();
}

void VirtualCluster::RunStage(const std::vector<double>& task_seconds,
                              const std::string& stage_name, StageKind kind) {
  // Executor jitter (see ClusterConfig::straggler_spread): deterministic
  // per-(stage, task) slowdown factors. Over-decomposition (B > 1) lets the
  // list scheduler absorb stragglers; with one task per core the slowest
  // task sets the stage time — the effect behind the paper's B >= 2 advice.
  std::vector<double> jittered(task_seconds.size());
  for (std::size_t i = 0; i < task_seconds.size(); ++i) {
    const std::uint64_t h =
        Mix64((static_cast<std::uint64_t>(metrics_.stages) << 32) ^
              static_cast<std::uint64_t>(i) ^ 0x5bd1e995u);
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform [0, 1)
    jittered[i] = task_seconds[i] * (1.0 + config_.straggler_spread * u);
    // Hard stragglers (failing disk, throttled node): a deterministic
    // 1-in-straggler_every subset of tasks runs straggler_factor x slower.
    if (config_.straggler_factor > 1.0 && config_.straggler_every > 0 &&
        h % static_cast<std::uint64_t>(config_.straggler_every) == 0) {
      jittered[i] *= config_.straggler_factor;
    }
  }
  // Speculative re-execution: tasks running past speculation_multiplier x
  // the stage median get a copy launched at the detection point; the copy
  // runs a median-like time, and the task finishes with whichever attempt
  // is first. This is what bounds the hard-straggler tail. The median is
  // taken over the *working* tasks only — stages routinely carry zero-cost
  // placeholders (surviving partitions of a recovery re-run, non-lost
  // entries of a replay plan), and including them would drag the median to
  // zero and mark every real task a straggler.
  if (config_.speculation) {
    std::vector<double> working;
    working.reserve(jittered.size());
    for (const double t : jittered) {
      if (t > 0.0) working.push_back(t);
    }
    if (working.size() >= 2) {
      std::sort(working.begin(), working.end());
      const double median = working[working.size() / 2];
      const double cutoff =
          median * std::max(1.0, config_.speculation_multiplier);
      for (double& t : jittered) {
        const double speculative_completion =
            cutoff + median + config_.task_overhead_seconds;
        if (t > cutoff && speculative_completion < t) {
          t = speculative_completion;
          metrics_.speculative_tasks += 1;
        }
      }
    }
  }
  // Inter-stage clock (shuffle transfers, collects, broadcasts) accrued
  // since the previous stage folds into that stage's trace record: the
  // multi-tenant replay treats it as slot-independent serial time.
  if (trace_enabled_ && !stage_trace_.empty()) {
    stage_trace_.back().interstage_seconds +=
        std::max(0.0, clock_seconds_ - trace_last_clock_);
  }
  // Executors run one task per *slot*: with intra-task parallelism enabled
  // (ClusterConfig::intra_task_cores > 1) each task occupies that many cores
  // of its executor, so fewer tasks run concurrently — the per-task charges
  // shrink (the cost model's intra-task makespan), the slot count shrinks to
  // match, and modelled time stays honest. Dead nodes contribute no slots;
  // joined nodes contribute theirs (identical to the static count while
  // membership is unchanged).
  const double launch =
      config_.task_overhead_seconds * static_cast<double>(task_seconds.size());
  if (trace_enabled_) {
    StageRecord record;
    record.name = stage_name;
    record.kind = kind;
    record.task_seconds = jittered;
    record.launch_seconds = launch;
    record.stage_overhead_seconds = config_.stage_overhead_seconds;
    record.node_peak_bytes = accountant_.window_node_peak_bytes();
    stage_trace_.push_back(std::move(record));
  }
  // Span tracing observes the schedule without perturbing it: LptSchedule
  // reproduces the exact LPT assignment for lane drawing, while the
  // makespan that advances the clock still comes from the untouched
  // ListScheduleMakespan call — bitwise-identical with tracing on or off.
  const bool span_tracing = obs::TraceEnabled();
  std::vector<LptPlacement> task_spans;
  if (span_tracing) task_spans = LptSchedule(jittered, live_task_slots());
  const double makespan =
      ListScheduleMakespan(std::move(jittered), live_task_slots());
  // Task launch overhead is driver-side but overlaps executor compute
  // (Spark dispatches the next wave while the current one runs), so a stage
  // costs whichever dominates: the dispatch loop or the parallel compute.
  const double exposed_overhead =
      config_.stage_overhead_seconds + std::max(0.0, launch - makespan);
  const double stage_start = clock_seconds_;
  clock_seconds_ += exposed_overhead + makespan;
  metrics_.scheduling_seconds += exposed_overhead;
  metrics_.compute_seconds += makespan;
  if (kind == StageKind::kRecovery) {
    metrics_.recovery_seconds += exposed_overhead + makespan;
  }
  metrics_.stages += 1;
  metrics_.tasks += task_seconds.size();
  accountant_.EndStage();
  trace_last_clock_ = clock_seconds_;

  if (span_tracing) EmitStageSpans(stage_name, kind, stage_start, task_spans);

  // Stage boundary: armed membership plans fire now — rack losses, node
  // losses, elastic joins. A lost node's local spill vanishes (a
  // replacement executor starts with empty disks — the §5.2
  // monotonic-growth argument holds per executor incarnation), its
  // partition slots rebalance onto the survivors, and the owning context
  // drops its cached partitions and preserved shuffle map outputs through
  // the loss handler.
  if (fault_injector_ != nullptr) {
    FireMembershipEvents(static_cast<std::int64_t>(metrics_.stages) - 1);
  }
}

void VirtualCluster::EmitStageSpans(
    const std::string& stage_name, StageKind kind, double stage_start,
    const std::vector<LptPlacement>& placements) {
  auto& tracer = obs::Tracer::Get();
  const auto stage_index = static_cast<std::int64_t>(metrics_.stages) - 1;
  const bool recovery = kind == StageKind::kRecovery;
  tracer.VirtualSpan(
      stage_name.empty() ? "stage" : stage_name.c_str(), obs::kDriverLane,
      stage_start, clock_seconds_,
      "\"stage\":" + std::to_string(stage_index) +
          ",\"tasks\":" + std::to_string(placements.size()) +
          ",\"kind\":\"" + (recovery ? "recovery" : "normal") + "\"");
  if (placements.empty()) return;
  double makespan = 0;
  for (const auto& p : placements) makespan = std::max(makespan, p.end);
  // Compute occupies the stage tail; the exposed scheduling overhead is the
  // driver-lane lead-in before it.
  const double compute_start = clock_seconds_ - makespan;
  const int per_task =
      config_.intra_task_cores < 1 ? 1 : config_.intra_task_cores;
  const int slots_per_node =
      std::max(1, config_.cores_per_node / per_task);
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(placement_.live_nodes()));
  for (int n = 0; n < placement_.num_nodes(); ++n) {
    if (placement_.alive(n)) live.push_back(n);
  }
  const char* task_name = recovery ? "recovery-task" : "task";
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const LptPlacement& p = placements[i];
    if (p.end <= p.start) continue;  // zero-cost placeholders add only noise
    const std::int64_t lane = 1 + p.machine;
    const auto node_ix = static_cast<std::size_t>(p.machine / slots_per_node);
    const int node = node_ix < live.size() ? live[node_ix] : -1;
    tracer.SetLaneName(lane, "node " + std::to_string(node) + " / slot " +
                                 std::to_string(p.machine % slots_per_node));
    tracer.VirtualSpan(task_name, lane, compute_start + p.start,
                       compute_start + p.end,
                       "\"task\":" + std::to_string(i) +
                           ",\"stage\":" + std::to_string(stage_index));
  }
}

void VirtualCluster::FireMembershipEvents(std::int64_t completed_stage) {
  // Correlated failures first: a rack plan expands to the rack's live
  // membership at fire time.
  for (const int rack : fault_injector_->TakeRackFailuresAt(completed_stage)) {
    for (const int node : placement_.LiveNodesInRack(rack)) LoseNode(node);
  }
  for (const int node : fault_injector_->TakeNodeFailuresAt(completed_stage)) {
    LoseNode(node);
  }
  const int joins = fault_injector_->TakeNodeJoinsAt(completed_stage);
  for (int j = 0; j < joins; ++j) {
    const BlockManager::JoinResult join = placement_.AddNode();
    accountant_.AddNode();
    node_storage_used_.push_back(0);
    metrics_.node_joins += 1;
    metrics_.migrated_partitions += join.moves.size();
    // Stolen slots carry their resident data to the newcomer: the context
    // moves the MemoryAccountant charges and reports the bytes that
    // actually travelled, which we push through the network model (all
    // transfers head to one fresh node — its single NIC is the bottleneck).
    const std::uint64_t bytes =
        migrate_handler_ ? migrate_handler_(join.moves) : 0;
    if (obs::TraceEnabled()) {
      obs::Tracer::Get().VirtualInstant(
          "node-join", obs::kDriverLane, clock_seconds_,
          "\"moves\":" + std::to_string(join.moves.size()));
    }
    if (bytes > 0 || !join.moves.empty()) {
      const double time =
          static_cast<double>(bytes) / config_.network.bandwidth_bytes_per_sec +
          config_.network.latency_seconds *
              static_cast<double>(join.moves.size());
      clock_seconds_ += time;
      metrics_.rebalance_seconds += time;
      metrics_.migration_bytes += bytes;
      TraceInterstage("rebalance", clock_seconds_ - time, clock_seconds_,
                      bytes);
    }
  }
}

void VirtualCluster::LoseNode(int node) {
  // Plans aimed at unknown or already-dead nodes are no-ops (a chaos
  // schedule may kill the same node twice); the last live node is never
  // killed — the engine models an elastic cluster, not a dead one.
  if (!placement_.alive(node) || placement_.live_nodes() <= 1) return;
  metrics_.executor_failures += 1;
  if (obs::TraceEnabled()) {
    obs::Tracer::Get().VirtualInstant("node-loss", obs::kDriverLane,
                                      clock_seconds_,
                                      "\"node\":" + std::to_string(node));
  }
  if (static_cast<std::size_t>(node) < node_storage_used_.size()) {
    node_storage_used_[static_cast<std::size_t>(node)] = 0;
  }
  // Rebalance BEFORE the loss handler runs: recovery recomputes the lost
  // partitions on their new owners, so placement must already point there.
  // The moves carry no bytes — the data died with the node.
  metrics_.migrated_partitions += placement_.RemoveNode(node).size();
  if (node_loss_handler_) node_loss_handler_(node);
}

Status VirtualCluster::ChargeShuffle(
    const std::vector<std::uint64_t>& bytes_per_partition) {
  std::uint64_t total = 0;
  for (std::size_t p = 0; p < bytes_per_partition.size(); ++p) {
    const auto compressed = static_cast<std::uint64_t>(
        static_cast<double>(bytes_per_partition[p]) *
        config_.shuffle_compression);
    total += bytes_per_partition[p];
    const int node = NodeOfPartition(static_cast<std::int64_t>(p));
    node_storage_used_[static_cast<std::size_t>(node)] += compressed;
  }
  metrics_.shuffle_bytes += total;
  metrics_.local_storage_peak_bytes =
      std::max(metrics_.local_storage_peak_bytes, MaxLocalStorageUsed());

  // Transfer: on average (nodes-1)/nodes of the data crosses the network
  // in compressed form; all NICs move data concurrently, so effective
  // bandwidth is nodes * per-node bandwidth. Only live nodes have NICs:
  // after a loss the survivors shoulder the transfer, after a join the
  // newcomer helps — identical to the static count while membership is
  // unchanged.
  const double nodes = static_cast<double>(placement_.live_nodes());
  const double cross_fraction = nodes > 1 ? (nodes - 1.0) / nodes : 0.0;
  const double wire_bytes = static_cast<double>(total) * cross_fraction *
                            config_.shuffle_compression;
  const double time =
      wire_bytes / (config_.network.bandwidth_bytes_per_sec * nodes) +
      config_.network.latency_seconds *
          static_cast<double>(bytes_per_partition.size());
  clock_seconds_ += time;
  metrics_.shuffle_seconds += time;
  TraceInterstage("shuffle", clock_seconds_ - time, clock_seconds_, total);

  const int known_nodes = static_cast<int>(node_storage_used_.size());
  for (int node = 0; node < known_nodes; ++node) {
    if (node_storage_used_[static_cast<std::size_t>(node)] >
        config_.local_storage_bytes) {
      std::ostringstream msg;
      msg << "local storage exhausted on node " << node << ": "
          << FormatBytes(node_storage_used_[static_cast<std::size_t>(node)])
          << " used of " << FormatBytes(config_.local_storage_bytes)
          << " (shuffle spill is preserved for fault tolerance and grows "
             "with every iteration)";
      return ResourceExhaustedError(msg.str());
    }
  }
  return Status::Ok();
}

void VirtualCluster::ChargeCollect(std::uint64_t bytes,
                                   std::int64_t partitions) {
  // The collected result is momentarily resident on the driver.
  accountant_.TouchDriver(bytes);
  // All data funnels into the single driver NIC.
  const double time =
      static_cast<double>(bytes) / config_.network.bandwidth_bytes_per_sec +
      config_.network.latency_seconds * static_cast<double>(partitions);
  clock_seconds_ += time;
  metrics_.collect_seconds += time;
  metrics_.collect_bytes += bytes;
  TraceInterstage("collect", clock_seconds_ - time, clock_seconds_, bytes);
}

void VirtualCluster::ChargeBroadcast(std::uint64_t bytes) {
  // The broadcast source lives on the driver while the torrent runs.
  accountant_.TouchDriver(bytes);
  const double rounds = std::max(
      1.0, std::ceil(std::log2(std::max(2, placement_.live_nodes()))));
  const double time = rounds * (static_cast<double>(bytes) /
                                    config_.network.bandwidth_bytes_per_sec +
                                config_.network.latency_seconds);
  clock_seconds_ += time;
  metrics_.broadcast_seconds += time;
  metrics_.broadcast_bytes += bytes;
  TraceInterstage("broadcast", clock_seconds_ - time, clock_seconds_, bytes);
}

void VirtualCluster::ChargeSharedFsWrite(std::uint64_t bytes,
                                         std::int64_t files) {
  const double time =
      static_cast<double>(bytes) /
          config_.shared_fs.aggregate_bandwidth_bytes_per_sec +
      config_.shared_fs.file_overhead_seconds * static_cast<double>(files);
  clock_seconds_ += time;
  metrics_.shared_fs_seconds += time;
  metrics_.shared_fs_written_bytes += bytes;
  TraceInterstage("sharedfs-write", clock_seconds_ - time, clock_seconds_,
                  bytes);
}

void VirtualCluster::ChargeSharedFsRead(std::uint64_t bytes,
                                        std::int64_t readers) {
  const double time =
      static_cast<double>(bytes) /
          config_.shared_fs.aggregate_bandwidth_bytes_per_sec +
      config_.shared_fs.file_overhead_seconds *
          static_cast<double>(std::max<std::int64_t>(1, readers)) /
          static_cast<double>(config_.total_cores());
  clock_seconds_ += time;
  metrics_.shared_fs_seconds += time;
  metrics_.shared_fs_read_bytes += bytes;
  TraceInterstage("sharedfs-read", clock_seconds_ - time, clock_seconds_,
                  bytes);
}

std::uint64_t VirtualCluster::LocalStorageUsed(int node) const {
  return node_storage_used_[static_cast<std::size_t>(node)];
}

std::uint64_t VirtualCluster::MaxLocalStorageUsed() const {
  std::uint64_t peak = 0;
  for (std::uint64_t used : node_storage_used_) peak = std::max(peak, used);
  return peak;
}

}  // namespace apspark::sparklet
