// Virtual cluster description.
//
// Sparklet reports *modelled* time from a discrete-event simulation of this
// cluster, so experiments at the paper's scale (32 nodes x 32 cores, GbE,
// local SSDs, shared GPFS) can run on any host. The default constants mirror
// the paper's testbed (§5): per-node resources, gigabit Ethernet, 1 TB local
// staging per node, and Spark-like per-task scheduling overheads.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "linalg/kernel_registry.h"

namespace apspark::sparklet {

struct NetworkModel {
  /// Point-to-point bandwidth per node NIC (GbE = 125 MB/s).
  double bandwidth_bytes_per_sec = 125.0e6;
  /// Per-message latency (switch + stack).
  double latency_seconds = 100e-6;
};

struct SharedFsModel {
  /// Aggregate bandwidth of the shared file system (HPC-centre GPFS
  /// installations sustain tens of GB/s across many readers).
  double aggregate_bandwidth_bytes_per_sec = 16.0e9;
  /// Per-file open/close overhead.
  double file_overhead_seconds = 2e-3;
};

struct ClusterConfig {
  int nodes = 32;
  int cores_per_node = 32;
  /// Failure domains (racks): the initial nodes split into `racks`
  /// contiguous, balanced blocks, and one FaultInjector::FailRack plan takes
  /// out a whole block at once — the correlated-failure model. 1 (the
  /// default) means no correlation structure.
  int racks = 1;
  std::uint64_t executor_memory_bytes = 180ULL * kGiB;
  /// Local SSD capacity available for shuffle staging, per node.
  std::uint64_t local_storage_bytes = 1ULL * kTiB;

  NetworkModel network;
  SharedFsModel shared_fs;

  /// Driver-side scheduling + serialization cost per launched task.
  /// Calibrated against the paper's 2D Floyd-Warshall iterations (~17-21 s
  /// for two ~2048-task stages plus collect/broadcast, Table 2).
  double task_overhead_seconds = 2.5e-3;
  /// Fixed driver cost per stage (DAG scheduling, task-set setup).
  double stage_overhead_seconds = 30e-3;
  /// Effective compression ratio of shuffle spill files (Spark compresses
  /// shuffle output by default; lz4 on pickled double-precision path
  /// matrices roughly halves them). Applied to both spill and wire bytes.
  double shuffle_compression = 0.5;
  /// How many times a failed task is retried before the job aborts
  /// (spark.task.maxFailures defaults to 4).
  int max_task_failures = 4;
  /// Which linalg kernel implementation the solvers select before running
  /// (see linalg/kernel_registry.h). The default, kTiledParallel, runs the
  /// solve's block updates, closure tiles and assembly on every host core;
  /// kTiled and kNaive are the single-thread baselines. Host-side only:
  /// virtual-cluster time is always charged from the calibrated cost model,
  /// so changing the variant changes how fast real blocks are crunched on
  /// this machine, never the modelled cluster seconds.
  linalg::KernelVariant kernel_variant = linalg::KernelVariant::kTiledParallel;
  /// Serialization/deserialization cost per byte crossing a process
  /// boundary (pySpark pickling is slow, ~300 MB/s per core).
  double serde_seconds_per_byte = 3e-9;
  /// Local SSD streaming bandwidth (shuffle staging I/O per node).
  double local_storage_bandwidth_bytes_per_sec = 500.0e6;
  /// Executor jitter: task t of a stage runs up to this fraction slower
  /// (GC pauses, Python worker forks, OS noise), deterministically derived
  /// from (stage, task). This is what makes over-decomposition B > 1 pay
  /// off — with exactly one task per core a single slow task extends the
  /// stage, while B >= 2 lets the scheduler absorb stragglers (§5.3).
  double straggler_spread = 0.35;

  /// Hard straggler model, the fault-injection twin of the jitter above:
  /// when > 1, every `straggler_every`-th task of a stage (deterministically
  /// chosen from (stage, task)) runs this many times slower — a failing
  /// disk, a thermally throttled node, a hot JVM. Distinct from
  /// straggler_spread, which models ubiquitous small noise.
  double straggler_factor = 1.0;
  int straggler_every = 8;

  /// Speculative re-execution (spark.speculation): once a task has run
  /// longer than `speculation_multiplier` x the stage's median task time,
  /// the scheduler launches a copy on another executor; the task finishes
  /// when the first attempt does. Modelled completion of a straggling task
  /// becomes min(original, detection point + median copy run), and each
  /// winning copy counts into SimMetrics::speculative_tasks.
  bool speculation = false;
  double speculation_multiplier = 1.5;

  /// Cores per executor cooperating on ONE task's blocks (intra-task
  /// parallelism). 1 models Spark's classic one-core-per-task executors.
  /// With c > 1, kernels charged through a task batch are scheduled onto c
  /// virtual cores (CostModel::IntraTaskSpan) and the cluster runs
  /// total_cores() / c concurrent task slots — per-task time shrinks, slot
  /// count shrinks to match, so the win shows exactly where it is real:
  /// stages with fewer tasks than cores (small q, the straggler tail).
  int intra_task_cores = 1;

  int total_cores() const noexcept { return nodes * cores_per_node; }

  /// Concurrent task slots the cluster schedules stages onto: each task
  /// occupies intra_task_cores cores of its executor.
  int concurrent_task_slots() const noexcept {
    const int per_task = intra_task_cores < 1 ? 1 : intra_task_cores;
    const int slots = total_cores() / per_task;
    return slots < 1 ? 1 : slots;
  }

  /// The paper's cluster: 32 nodes x 32 Skylake cores, 192 GB (180 usable),
  /// GbE, 1 TB local SSD, shared GPFS.
  static ClusterConfig Paper() { return ClusterConfig{}; }

  /// Paper cluster scaled to `cores` total cores (for weak-scaling sweeps:
  /// the paper uses whole 32-core nodes, so nodes = cores / 32, minimum 1).
  static ClusterConfig PaperWithCores(int cores);

  /// Small cluster for unit tests: 2 nodes x 2 cores, tiny storage so
  /// exhaustion paths are testable, zero-ish overheads for speed.
  static ClusterConfig TinyTest();

  std::string Summary() const;
};

}  // namespace apspark::sparklet
