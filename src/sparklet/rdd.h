// Sparklet: a miniature Apache-Spark-style dataflow engine.
//
// The engine reproduces the Spark semantics the paper's solvers exercise:
//  * lazy, immutable RDDs with lineage (recomputation on task failure);
//  * narrow transformations (map / filter / flatMap / union) fused into a
//    single stage, exactly like Spark pipelining;
//  * wide transformations (partitionBy / reduceByKey / combineByKey) that
//    run a map side writing partitioned, compressed spill to each node's
//    local storage, then a reduce side fetching over the modelled network —
//    Spark preserves shuffle files for fault tolerance, so local-storage
//    usage grows monotonically within a job (the failure mode the paper
//    observes for Blocked In-Memory, §5.2);
//  * driver actions: collect (funnelled through the driver NIC) and count;
//  * torrent-style broadcast and a shared-persistent-storage side channel.
//
// Execution model: record processing is real and runs in the driver thread
// (correctness is bit-for-bit testable); *time* is virtual, advanced by the
// discrete-event VirtualCluster using the calibrated CostModel plus byte
// accounting from Serde<T>. See README.md, "Zero-copy data plane".
//
// Materialization has one rule: a persisted RDD (parallelized, shuffled, or
// Persist()ed) runs its stage on its first read and caches every partition;
// every later read, an action on the RDD itself included, reads that cache.
// Nothing walks ancestors ahead of time: an uncached narrow chain fuses into
// whichever stage pulls it, and a persisted ancestor it reaches materializes
// on that pull.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "linalg/cost_model.h"
#include "sparklet/config.h"
#include "sparklet/fault.h"
#include "sparklet/metrics.h"
#include "sparklet/partitioner.h"
#include "sparklet/serde.h"
#include "sparklet/shared_storage.h"
#include "sparklet/shuffle_state.h"
#include "sparklet/task_context.h"
#include "sparklet/virtual_cluster.h"

namespace apspark::sparklet {

/// Thrown when the simulated job cannot continue (virtual storage exhausted,
/// task retries exceeded). Solver entry points catch this and surface the
/// wrapped Status; it never escapes the library API.
class SparkletAbort : public std::runtime_error {
 public:
  explicit SparkletAbort(Status status)
      : std::runtime_error(status.ToString()), status_(std::move(status)) {}
  const Status& status() const noexcept { return status_; }

 private:
  Status status_;
};

class SparkletContext;

/// Type-erased RDD, as the context's failure handling reaches every live
/// RDD's cache.
class RddBase {
 public:
  virtual ~RddBase() = default;
  /// Executor loss: drops every cached partition hosted on `node` (marking
  /// them lost-by-failure so their recomputation is attributed to recovery).
  /// Returns how many partitions were dropped.
  virtual int DropNodePartitions(int node) = 0;
  /// Elastic join rebalance: cached partitions whose slot moved travel to
  /// the new owner (accountant release on the donor, charge on the
  /// newcomer). Returns the bytes that moved.
  virtual std::uint64_t MigratePartitions(
      const std::vector<BlockManager::Move>& moves) = 0;
};

template <typename T>
class Rdd;
template <typename T>
using RddPtr = std::shared_ptr<Rdd<T>>;

template <typename T>
class Rdd final : public RddBase, public std::enable_shared_from_this<Rdd<T>> {
 public:
  using Element = T;
  using Partition = std::vector<T>;
  /// Computes one partition; may recursively pull (fused) parent partitions.
  using ComputeFn = std::function<Partition(int, TaskContext&)>;

  // Constructed via SparkletContext / transformations; use the factory
  // functions below rather than this constructor. The compute function owns
  // the lineage: it holds the parent RDDs it pulls from.
  Rdd(SparkletContext* ctx, std::string name, int num_partitions,
      ComputeFn compute, bool cache);

  /// Cached partitions release their accounted live bytes when the RDD dies
  /// (the context always outlives its RDDs), and the context forgets the
  /// node for failure handling. Defined out of line (needs SparkletContext).
  ~Rdd() override;

  const std::string& name() const noexcept { return name_; }
  int num_partitions() const noexcept { return num_partitions_; }

  /// Runs this RDD's stage and caches its partitions unless they are all
  /// cached already; a no-op on an RDD that is not persisted.
  void EnsureMaterialized();

  // -- transformations (lazy) -------------------------------------------
  /// fn: (const T&, TaskContext&) -> U.
  template <typename F>
  auto Map(std::string op_name, F fn)
      -> RddPtr<std::invoke_result_t<F, const T&, TaskContext&>>;

  /// pred: (const T&) -> bool.
  template <typename Pred>
  RddPtr<T> Filter(std::string op_name, Pred pred);

  /// fn: (const T&, TaskContext&, std::vector<U>& out) -> void (appends).
  template <typename U, typename F>
  RddPtr<U> FlatMap(std::string op_name, F fn);

  /// fn: (std::vector<T>&& partition, TaskContext&) -> std::vector<U>.
  /// Runs once per task over the whole partition, so per-task state (e.g.
  /// caching shared-storage reads, as the paper's executors do with column
  /// blocks) is expressible.
  template <typename U, typename F>
  RddPtr<U> MapPartitions(std::string op_name, F fn);

  /// Marks this RDD as cached: first materialization stores partitions, and
  /// downstream stages read them instead of recomputing the lineage.
  RddPtr<T> Persist();

  /// Drops cached data (lineage remains; a later access recomputes).
  void Unpersist();

  /// Simulates loss of one cached partition (executor failure). The next
  /// access recomputes this RDD from its lineage, attributed to recovery.
  void DropPartition(int partition);

  /// Executor loss (see RddBase): drops cached partitions hosted on `node`.
  int DropNodePartitions(int node) override;

  /// Join rebalance (see RddBase): moves cached partitions with their slot.
  std::uint64_t MigratePartitions(
      const std::vector<BlockManager::Move>& moves) override;

  // -- actions -----------------------------------------------------------
  /// Gathers every record on the driver (charges network + driver deserde).
  Partition Collect();

  /// Number of records (cheap driver action).
  std::int64_t Count();

  // -- engine internals (public: used by free-function transformations) --
  /// Fused pull: cached partitions are read back; uncached ones recompute.
  Partition ComputeOrRead(int partition, TaskContext& tc);

  SparkletContext* ctx() const noexcept { return ctx_; }

  /// Replaces the compute function (used by shuffle construction).
  void SetComputeForShuffle(ComputeFn compute) { compute_ = std::move(compute); }

 private:
  void RunStageAndCache();
  Partition RunTaskWithRetries(int partition, TaskContext& tc);
  /// Memory accounting of the partition cache: a stored partition's
  /// serialized bytes are live on its node until dropped.
  void ChargeCached(int partition);
  void ReleaseCached(int partition);
  void ReleaseAllCached();

  SparkletContext* ctx_;
  std::string name_;
  int num_partitions_;
  ComputeFn compute_;
  bool cache_;
  bool materialized_ = false;
  std::vector<std::optional<Partition>> store_;
  /// Bytes charged to the accountant per cached partition (0 = uncharged).
  std::vector<std::uint64_t> store_bytes_;
  /// Node each cached partition's bytes were charged to (-1 = uncharged).
  /// Releases always use this record: with elastic membership the placement
  /// map can change between charge and release, and recomputing the owner
  /// at release time would corrupt the accountant's per-node ledger.
  std::vector<int> store_node_;
  /// Partitions whose cached copy an executor failure destroyed: their
  /// recomputation counts into recovery_seconds / recomputed_tasks.
  std::vector<bool> lost_by_failure_;
  /// Materialization attempts so far: re-runs suffix the stage key
  /// ("name#r2") so per-stage metrics and peak windows never collide with
  /// the original run.
  int run_attempts_ = 0;

  friend class SparkletContext;
  template <typename>
  friend class Rdd;  // cross-type access from Map/FlatMap/MapPartitions
};

// ---------------------------------------------------------------------------
// Driver context
// ---------------------------------------------------------------------------

class SparkletContext {
 public:
  explicit SparkletContext(ClusterConfig config,
                           linalg::CostModel cost_model = {})
      : cluster_(config), cost_model_(cost_model) {
    // The intra-task parallelism dimension travels with the cluster shape:
    // stamping it here keeps every ChargeCompute site and the stage slot
    // count (VirtualCluster::RunStage) consistent by construction.
    cost_model_.intra_task_cores = config.intra_task_cores;
    // Membership plans fire at stage boundaries inside the cluster; the
    // context owns the state a loss destroys (cached partitions, preserved
    // shuffle outputs) and the state a join rebalance migrates, so it
    // handles both sides.
    cluster_.SetFaultHooks(
        &fault_injector_, [this](int node) { HandleNodeLost(node); },
        [this](const std::vector<BlockManager::Move>& moves) {
          return HandleMembershipMigrate(moves);
        });
  }

  VirtualCluster& cluster() noexcept { return cluster_; }
  const ClusterConfig& config() const noexcept { return cluster_.config(); }
  const linalg::CostModel& cost_model() const noexcept { return cost_model_; }
  SharedStorage& shared_storage() noexcept { return shared_storage_; }
  FaultInjector& fault_injector() noexcept { return fault_injector_; }
  const SimMetrics& metrics() const noexcept { return cluster_.metrics(); }
  double now_seconds() const noexcept { return cluster_.now_seconds(); }

  TaskContext MakeTaskContext() {
    return TaskContext(&cost_model_, &shared_storage_, &config());
  }

  /// Creates a pre-materialized RDD by chunking `data` into
  /// `num_partitions` equal ranges (Spark's default slicing).
  template <typename T>
  RddPtr<T> Parallelize(std::string name, std::vector<T> data,
                        int num_partitions);

  /// Creates a pre-materialized pair RDD placing each record according to
  /// `partitioner` (the paper's solvers always start from a partitioned A).
  template <typename K, typename V>
  RddPtr<std::pair<K, V>> ParallelizePartitioned(
      std::string name, const std::vector<std::pair<K, V>>& data,
      PartitionerPtr<K> partitioner);

  /// Unions RDDs: Spark semantics — partitions are concatenated, each
  /// component keeps its own partitioning (the paper's partition-blowup
  /// discussion in §5.2 depends on this).
  template <typename T>
  RddPtr<T> Union(std::string name, std::vector<RddPtr<T>> rdds);

  /// Brace-friendly overload: ctx.Union("u", {a, b, c}).
  template <typename T>
  RddPtr<T> Union(std::string name, std::initializer_list<RddPtr<T>> rdds) {
    return Union(std::move(name), std::vector<RddPtr<T>>(rdds));
  }

  /// Driver-side write of a serialized object to shared persistent storage
  /// (the impure side channel); charges shared-FS time.
  void DriverWriteShared(const std::string& key,
                         std::vector<std::uint8_t> bytes,
                         std::uint64_t logical_bytes) {
    cluster_.ChargeSharedFsWrite(logical_bytes, 1);
    shared_storage_.Put(key, std::move(bytes), logical_bytes);
  }

  /// Zero-copy variant: stages an immutable block ref (full logical bytes
  /// are charged, no host-side serialization happens).
  void DriverWriteSharedBlock(const std::string& key, linalg::BlockRef block) {
    cluster_.ChargeSharedFsWrite(block.serialized_bytes(), 1);
    shared_storage_.PutBlock(key, std::move(block));
  }

  /// Driver-side broadcast of `logical_bytes` to all executors.
  void Broadcast(std::uint64_t logical_bytes) {
    cluster_.ChargeBroadcast(logical_bytes);
  }

  // -- fault-tolerance plumbing (engine-internal) ------------------------

  /// Every live RDD registers so an executor loss can reach its cache.
  void RegisterRdd(RddBase* rdd) { live_rdds_.push_back(rdd); }
  void UnregisterRdd(RddBase* rdd) {
    std::erase(live_rdds_, rdd);
  }

  /// Shuffles register their preserved map outputs; the registry holds weak
  /// refs (the states live in the shuffle RDDs' compute closures).
  void RegisterShuffle(const std::shared_ptr<ShuffleMapState>& state) {
    shuffles_.push_back(state);
  }

  /// Executor `node` died: drop its cached partitions across every live RDD
  /// and mark its share of every preserved shuffle map output lost. Lazy
  /// recovery does the rest — lost partitions recompute through lineage on
  /// next access, lost map outputs replay before the next reduce-side read.
  void HandleNodeLost(int node) {
    for (RddBase* rdd : live_rdds_) rdd->DropNodePartitions(node);
    std::size_t keep = 0;
    for (auto& weak : shuffles_) {
      auto state = weak.lock();
      if (!state) continue;  // shuffle RDD already destroyed: prune
      state->MarkNodeLost(node);
      shuffles_[keep++] = std::move(weak);
    }
    shuffles_.resize(keep);
  }

  /// An elastic join stole partition slots from the survivors: resident
  /// cached partitions and preserved shuffle outputs travel with their slot
  /// to the newcomer. Returns the bytes that moved; the cluster charges the
  /// transfer through the network model.
  std::uint64_t HandleMembershipMigrate(
      const std::vector<BlockManager::Move>& moves) {
    std::uint64_t bytes = 0;
    for (RddBase* rdd : live_rdds_) bytes += rdd->MigratePartitions(moves);
    std::size_t keep = 0;
    for (auto& weak : shuffles_) {
      auto state = weak.lock();
      if (!state) continue;
      bytes += state->MigratePartitions(moves);
      shuffles_[keep++] = std::move(weak);
    }
    shuffles_.resize(keep);
    return bytes;
  }

  /// Replays lost map outputs of one shuffle before its preserved buckets
  /// are read again. Pure map sides re-execute (a recovery stage charging
  /// the recorded task costs, re-spilling to the replacement executors);
  /// map sides that read the shared-storage side channel are NOT replayable
  /// — the side channel lives outside the lineage, so the engine cannot
  /// guarantee a replay reproduces the original output (§3's impurity) —
  /// and the job aborts with DATA_LOSS, routing impure solvers to their
  /// checkpoint-restart path.
  void RecoverLostMapOutputs(ShuffleMapState& state) {
    // Loop: a further failure can fire at the replay stage's own boundary
    // and destroy more outputs; plans are finite, so this terminates.
    while (state.any_lost()) RecoverLostMapOutputsOnce(state);
  }

  void RecoverLostMapOutputsOnce(ShuffleMapState& state) {
    if (state.map_side_impure()) {
      throw SparkletAbort(DataLossError(
          "executor loss destroyed map outputs of shuffle '" +
          state.op_name() +
          "', whose map tasks read shared persistent storage outside the "
          "RDD lineage; replay cannot be guaranteed to reproduce them — "
          "restart from the last checkpoint"));
    }
    const ShuffleMapState::ReplayPlan plan = state.TakeReplayPlan();
    const std::string stage_name =
        state.op_name() + "-map#r" +
        std::to_string(state.retry_attempts() + 1);
    // The replayed map tasks re-write their spill (and re-shuffle it to the
    // waiting reduce side) on the replacement executors. The spill charge
    // precedes the stage boundary — writes happen *during* the stage — so a
    // loss firing at that boundary correctly wipes it again (and bumps the
    // plan's loss epochs, keeping those partitions lost for the next replay
    // round instead of being wrongly marked recovered below).
    Status status = cluster_.ChargeShuffle(state.ReplaySpillBytes(plan.indices));
    if (!status.ok()) throw SparkletAbort(status);
    cluster_.RunStage(state.ReplayTaskCosts(plan.indices), stage_name,
                      StageKind::kRecovery);
    cluster_.mutable_metrics().recomputed_tasks += plan.indices.size();
    state.MarkRecovered(plan);
  }

 private:
  VirtualCluster cluster_;
  linalg::CostModel cost_model_;
  SharedStorage shared_storage_;
  FaultInjector fault_injector_;
  std::vector<RddBase*> live_rdds_;
  std::vector<std::weak_ptr<ShuffleMapState>> shuffles_;
};

// ---------------------------------------------------------------------------
// Rdd member implementations
// ---------------------------------------------------------------------------

template <typename T>
Rdd<T>::Rdd(SparkletContext* ctx, std::string name, int num_partitions,
            ComputeFn compute, bool cache)
    : ctx_(ctx),
      name_(std::move(name)),
      num_partitions_(num_partitions),
      compute_(std::move(compute)),
      cache_(cache),
      store_(static_cast<std::size_t>(num_partitions)),
      store_bytes_(static_cast<std::size_t>(num_partitions), 0),
      store_node_(static_cast<std::size_t>(num_partitions), -1),
      lost_by_failure_(static_cast<std::size_t>(num_partitions), false) {
  ctx_->RegisterRdd(this);
}

template <typename T>
Rdd<T>::~Rdd() {
  ReleaseAllCached();
  ctx_->UnregisterRdd(this);
}

template <typename T>
void Rdd<T>::ChargeCached(int partition) {
  const auto p = static_cast<std::size_t>(partition);
  if (!store_[p] || store_bytes_[p] != 0) return;
  std::uint64_t bytes = 0;
  for (const T& record : *store_[p]) bytes += SerializedSizeOf(record);
  store_bytes_[p] = bytes;
  // Record the owner the charge lands on: the release below must hit the
  // same ledger even if a membership rebalance re-homes the slot meanwhile.
  store_node_[p] = ctx_->cluster().NodeOfPartition(partition);
  ctx_->cluster().accountant().ChargeNode(store_node_[p], bytes);
}

template <typename T>
void Rdd<T>::ReleaseCached(int partition) {
  const auto p = static_cast<std::size_t>(partition);
  if (store_bytes_[p] == 0) return;
  ctx_->cluster().accountant().ReleaseNode(store_node_[p], store_bytes_[p]);
  store_bytes_[p] = 0;
  store_node_[p] = -1;
}

template <typename T>
void Rdd<T>::ReleaseAllCached() {
  for (int p = 0; p < num_partitions_; ++p) {
    if (static_cast<std::size_t>(p) < store_bytes_.size()) ReleaseCached(p);
  }
}

template <typename T>
typename Rdd<T>::Partition Rdd<T>::RunTaskWithRetries(int partition,
                                                      TaskContext& tc) {
  int failures = 0;
  for (;;) {
    if (ctx_->fault_injector().ShouldFail(name_, partition)) {
      auto& metrics = ctx_->cluster().mutable_metrics();
      metrics.task_failures += 1;
      ++failures;
      if (failures >= ctx_->config().max_task_failures) {
        throw SparkletAbort(AbortedError(
            "task for RDD '" + name_ + "' partition " +
            std::to_string(partition) + " exceeded max failures"));
      }
      metrics.task_retries += 1;
      continue;  // lineage recomputation: simply run the task again
    }
    return compute_(partition, tc);
  }
}

template <typename T>
void Rdd<T>::RunStageAndCache() {
  TaskContext tc = ctx_->MakeTaskContext();
  tc.SetStageConcurrency(
      std::min(num_partitions_, ctx_->config().concurrent_task_slots()));
  // An executor loss can fire at a (possibly nested) stage boundary while
  // this loop runs, dropping partitions this very pass already cached; the
  // outer loop re-runs until the store is complete.
  for (int attempt = 0;; ++attempt) {
    std::vector<double> costs;
    costs.reserve(static_cast<std::size_t>(num_partitions_));
    std::uint64_t recomputed = 0;
    for (int p = 0; p < num_partitions_; ++p) {
      if (store_[static_cast<std::size_t>(p)]) {
        costs.push_back(0.0);  // partition survived (or predates the loss)
        continue;
      }
      const bool was_lost = lost_by_failure_[static_cast<std::size_t>(p)];
      tc.ResetForTask();
      store_[static_cast<std::size_t>(p)] = RunTaskWithRetries(p, tc);
      if (was_lost && tc.shared_read_bytes() > 0) {
        // Replaying a task that reads the shared-storage side channel is
        // not sound: the channel lives outside the RDD lineage, so the
        // engine cannot guarantee the replay sees the bytes the original
        // task saw (the paper's §3 impurity). Route the solver to its
        // checkpoint-restart path instead.
        throw SparkletAbort(DataLossError(
            "executor loss destroyed cached partition " + std::to_string(p) +
            " of RDD '" + name_ +
            "', whose tasks read shared persistent storage outside the RDD "
            "lineage; replay cannot be guaranteed to reproduce it — restart "
            "from the last checkpoint"));
      }
      costs.push_back(tc.task_seconds());
      if (was_lost) {
        lost_by_failure_[static_cast<std::size_t>(p)] = false;
        ++recomputed;
      }
      ChargeCached(p);
    }
    // Re-runs get a distinct stage key so their stage-trace records and
    // spans never collide with the original.
    std::string stage_name = name_;
    if (run_attempts_ > 0) stage_name += "#r" + std::to_string(run_attempts_);
    ++run_attempts_;
    ctx_->cluster().RunStage(costs, stage_name,
                             recomputed > 0 ? StageKind::kRecovery
                                            : StageKind::kNormal);
    ctx_->cluster().mutable_metrics().recomputed_tasks += recomputed;
    bool complete = true;
    for (const auto& slot : store_) {
      if (!slot) {
        complete = false;
        break;
      }
    }
    if (complete) return;
    if (attempt >= ctx_->config().max_task_failures) {
      throw SparkletAbort(AbortedError(
          "stage for RDD '" + name_ +
          "' could not complete: repeated executor losses exceeded the "
          "retry budget"));
    }
  }
}

template <typename T>
void Rdd<T>::EnsureMaterialized() {
  if (materialized_ || !cache_) return;
  RunStageAndCache();
  materialized_ = true;
}

template <typename T>
typename Rdd<T>::Partition Rdd<T>::ComputeOrRead(int partition,
                                                 TaskContext& tc) {
  if (cache_) {
    EnsureMaterialized();
    return *store_[static_cast<std::size_t>(partition)];
  }
  return RunTaskWithRetries(partition, tc);
}

template <typename T>
template <typename F>
auto Rdd<T>::Map(std::string op_name, F fn)
    -> RddPtr<std::invoke_result_t<F, const T&, TaskContext&>> {
  using U = std::invoke_result_t<F, const T&, TaskContext&>;
  auto self = this->shared_from_this();
  typename Rdd<U>::ComputeFn compute =
      [self, fn](int p, TaskContext& tc) -> std::vector<U> {
    Partition input = self->ComputeOrRead(p, tc);
    std::vector<U> out;
    out.reserve(input.size());
    for (const T& record : input) out.push_back(fn(record, tc));
    return out;
  };
  return std::make_shared<Rdd<U>>(ctx_, std::move(op_name), num_partitions_,
                                  std::move(compute), /*cache=*/false);
}

template <typename T>
template <typename Pred>
RddPtr<T> Rdd<T>::Filter(std::string op_name, Pred pred) {
  auto self = this->shared_from_this();
  ComputeFn compute = [self, pred](int p, TaskContext& tc) -> Partition {
    Partition input = self->ComputeOrRead(p, tc);
    Partition out;
    for (T& record : input) {
      if (pred(static_cast<const T&>(record))) out.push_back(std::move(record));
    }
    return out;
  };
  return std::make_shared<Rdd<T>>(ctx_, std::move(op_name), num_partitions_,
                                  std::move(compute), /*cache=*/false);
}

template <typename T>
template <typename U, typename F>
RddPtr<U> Rdd<T>::FlatMap(std::string op_name, F fn) {
  auto self = this->shared_from_this();
  typename Rdd<U>::ComputeFn compute =
      [self, fn](int p, TaskContext& tc) -> std::vector<U> {
    Partition input = self->ComputeOrRead(p, tc);
    std::vector<U> out;
    for (const T& record : input) fn(record, tc, out);
    return out;
  };
  return std::make_shared<Rdd<U>>(ctx_, std::move(op_name), num_partitions_,
                                  std::move(compute), /*cache=*/false);
}

template <typename T>
template <typename U, typename F>
RddPtr<U> Rdd<T>::MapPartitions(std::string op_name, F fn) {
  auto self = this->shared_from_this();
  typename Rdd<U>::ComputeFn compute =
      [self, fn](int p, TaskContext& tc) -> std::vector<U> {
    return fn(self->ComputeOrRead(p, tc), tc);
  };
  return std::make_shared<Rdd<U>>(ctx_, std::move(op_name), num_partitions_,
                                  std::move(compute), /*cache=*/false);
}

template <typename T>
RddPtr<T> Rdd<T>::Persist() {
  cache_ = true;
  if (store_.empty() && num_partitions_ > 0) {
    store_.resize(static_cast<std::size_t>(num_partitions_));
    store_bytes_.resize(static_cast<std::size_t>(num_partitions_), 0);
    store_node_.resize(static_cast<std::size_t>(num_partitions_), -1);
    lost_by_failure_.resize(static_cast<std::size_t>(num_partitions_), false);
  }
  return this->shared_from_this();
}

template <typename T>
void Rdd<T>::Unpersist() {
  ReleaseAllCached();
  for (auto& p : store_) p.reset();
  materialized_ = false;
}

template <typename T>
void Rdd<T>::DropPartition(int partition) {
  const auto p = static_cast<std::size_t>(partition);
  if (store_[p]) lost_by_failure_[p] = true;
  ReleaseCached(partition);
  store_[p].reset();
  materialized_ = false;
}

template <typename T>
int Rdd<T>::DropNodePartitions(int node) {
  if (!cache_) return 0;
  int dropped = 0;
  for (int p = 0; p < num_partitions_; ++p) {
    const auto idx = static_cast<std::size_t>(p);
    if (idx >= store_.size() || !store_[idx]) continue;
    // Match against the *recorded* host: the placement map has already
    // rebalanced the dead node's slots to survivors by the time this runs,
    // so recomputing placement here would miss everything the node held.
    if (store_node_[idx] != node) continue;
    lost_by_failure_[idx] = true;
    ReleaseCached(p);
    store_[idx].reset();
    materialized_ = false;
    ++dropped;
  }
  return dropped;
}

template <typename T>
std::uint64_t Rdd<T>::MigratePartitions(
    const std::vector<BlockManager::Move>& moves) {
  if (!cache_) return 0;
  std::uint64_t moved = 0;
  for (const auto& move : moves) {
    if (move.partition < 0 ||
        move.partition >= static_cast<std::int64_t>(store_.size())) {
      continue;
    }
    const auto idx = static_cast<std::size_t>(move.partition);
    if (!store_[idx] || store_bytes_[idx] == 0 ||
        store_node_[idx] != move.from) {
      continue;
    }
    const std::uint64_t bytes = store_bytes_[idx];
    ctx_->cluster().accountant().ReleaseNode(move.from, bytes);
    ctx_->cluster().accountant().ChargeNode(move.to, bytes);
    store_node_[idx] = move.to;
    moved += bytes;
  }
  return moved;
}

template <typename T>
typename Rdd<T>::Partition Rdd<T>::Collect() {
  EnsureMaterialized();
  Partition all;
  std::vector<double> costs;
  costs.reserve(static_cast<std::size_t>(num_partitions_));
  std::uint64_t bytes = 0;
  TaskContext tc = ctx_->MakeTaskContext();
  tc.SetStageConcurrency(
      std::min(num_partitions_, ctx_->config().concurrent_task_slots()));
  for (int p = 0; p < num_partitions_; ++p) {
    tc.ResetForTask();
    Partition part = ComputeOrRead(p, tc);
    costs.push_back(tc.task_seconds());
    for (T& record : part) {
      bytes += SerializedSizeOf(record);
      all.push_back(std::move(record));
    }
  }
  ctx_->cluster().RunStage(costs, name_ + "-collect");
  ctx_->cluster().ChargeCollect(bytes, num_partitions_);
  // Driver deserializes the whole result single-threaded (pySpark pickle).
  const double deser =
      static_cast<double>(bytes) * ctx_->config().serde_seconds_per_byte;
  ctx_->cluster().mutable_metrics().collect_seconds += deser;
  return all;
}

template <typename T>
std::int64_t Rdd<T>::Count() {
  EnsureMaterialized();
  std::int64_t count = 0;
  std::vector<double> costs;
  TaskContext tc = ctx_->MakeTaskContext();
  for (int p = 0; p < num_partitions_; ++p) {
    tc.ResetForTask();
    count += static_cast<std::int64_t>(ComputeOrRead(p, tc).size());
    costs.push_back(tc.task_seconds());
  }
  ctx_->cluster().RunStage(costs, name_ + "-count");
  ctx_->cluster().ChargeCollect(8ULL * static_cast<std::uint64_t>(
                                           num_partitions_),
                                num_partitions_);
  return count;
}

// ---------------------------------------------------------------------------
// Context templates
// ---------------------------------------------------------------------------

template <typename T>
RddPtr<T> SparkletContext::Parallelize(std::string name, std::vector<T> data,
                                       int num_partitions) {
  if (num_partitions <= 0) num_partitions = 1;
  // The source data is kept alive by the compute closure (Spark can always
  // re-read stable input), so lost partitions are recomputable.
  auto source = std::make_shared<const std::vector<T>>(std::move(data));
  const int parts = num_partitions;
  typename Rdd<T>::ComputeFn compute =
      [source, parts](int p, TaskContext&) -> std::vector<T> {
    const std::size_t n = source->size();
    const std::size_t lo = n * static_cast<std::size_t>(p) /
                           static_cast<std::size_t>(parts);
    const std::size_t hi = n * (static_cast<std::size_t>(p) + 1) /
                           static_cast<std::size_t>(parts);
    return std::vector<T>(source->begin() + static_cast<std::ptrdiff_t>(lo),
                          source->begin() + static_cast<std::ptrdiff_t>(hi));
  };
  auto rdd = std::make_shared<Rdd<T>>(this, std::move(name), num_partitions,
                                      std::move(compute), /*cache=*/true);
  rdd->EnsureMaterialized();
  return rdd;
}

template <typename K, typename V>
RddPtr<std::pair<K, V>> SparkletContext::ParallelizePartitioned(
    std::string name, const std::vector<std::pair<K, V>>& data,
    PartitionerPtr<K> partitioner) {
  const int parts = partitioner->num_partitions();
  // Bucket once up front (O(records)); the compute closure indexes into the
  // shared buckets so lost partitions recompute in O(1).
  auto buckets =
      std::make_shared<std::vector<std::vector<std::pair<K, V>>>>(
          static_cast<std::size_t>(parts));
  for (const auto& record : data) {
    (*buckets)[static_cast<std::size_t>(
                   partitioner->PartitionOf(record.first))]
        .push_back(record);
  }
  typename Rdd<std::pair<K, V>>::ComputeFn compute =
      [buckets](int p, TaskContext&) {
        return (*buckets)[static_cast<std::size_t>(p)];
      };
  auto rdd = std::make_shared<Rdd<std::pair<K, V>>>(
      this, std::move(name), parts, std::move(compute), /*cache=*/true);
  rdd->EnsureMaterialized();
  return rdd;
}

template <typename T>
RddPtr<T> SparkletContext::Union(std::string name,
                                 std::vector<RddPtr<T>> rdds) {
  int total_parts = 0;
  for (const auto& r : rdds) total_parts += r->num_partitions();
  typename Rdd<T>::ComputeFn compute =
      [sources = std::move(rdds)](int p, TaskContext& tc) -> std::vector<T> {
    int offset = p;
    for (const auto& src : sources) {
      if (offset < src->num_partitions()) return src->ComputeOrRead(offset, tc);
      offset -= src->num_partitions();
    }
    throw std::out_of_range("union: partition index out of range");
  };
  return std::make_shared<Rdd<T>>(this, std::move(name), total_parts,
                                  std::move(compute), /*cache=*/false);
}

// ---------------------------------------------------------------------------
// Wide (shuffle) transformations — free functions over pair RDDs
// ---------------------------------------------------------------------------

namespace internal {

/// The preserved map output of one shuffle: per-reduce-partition record
/// buckets, shared and immutable once written — exactly Spark's preserved
/// shuffle files. Reduce tasks (and recomputations after a lost partition)
/// read *through* the shared ref; nothing re-copies the records.
template <typename K, typename C>
using ShuffleFiles =
    std::shared_ptr<const std::vector<std::vector<std::pair<K, C>>>>;

/// A shuffle's preserved output: the record buckets plus the replay
/// bookkeeping an executor loss needs (per-map-partition costs, placement,
/// lost flags — see ShuffleMapState).
template <typename K, typename C>
struct ShuffleOutput {
  ShuffleFiles<K, C> files;
  std::shared_ptr<ShuffleMapState> map_state;
};

/// Runs the map side of a shuffle: computes every parent partition (fusing
/// its narrow chain), partitions records into buckets, optionally performs
/// map-side combine, charges spill + wire, and returns the preserved
/// per-reduce buckets as one shared immutable object plus the map-output
/// replay state registered with the context.
///
/// CombineInit:  (V&&) -> C                        combiner from first value
/// CombineMerge: (C&, V&&, TaskContext&) -> void   fold a value in
template <typename K, typename V, typename C, typename CombineInit,
          typename CombineMerge>
ShuffleOutput<K, C> ShuffleMapSide(Rdd<std::pair<K, V>>& parent,
                                   const Partitioner<K>& partitioner,
                                   const std::string& op_name,
                                   bool map_side_combine, CombineInit init,
                                   CombineMerge merge) {
  SparkletContext* ctx = parent.ctx();
  const int reducers = partitioner.num_partitions();
  std::vector<std::vector<std::pair<K, C>>> buckets(
      static_cast<std::size_t>(reducers));
  std::vector<double> costs;
  std::vector<std::uint64_t> spill_bytes(
      static_cast<std::size_t>(parent.num_partitions()), 0);
  bool map_side_impure = false;
  TaskContext tc = ctx->MakeTaskContext();
  tc.SetStageConcurrency(
      std::min(parent.num_partitions(), ctx->config().concurrent_task_slots()));
  for (int p = 0; p < parent.num_partitions(); ++p) {
    tc.ResetForTask();
    std::vector<std::pair<K, V>> records = parent.ComputeOrRead(p, tc);
    // Side-channel reads make the map side non-replayable (see
    // SparkletContext::RecoverLostMapOutputs). Detect them here so the
    // replay state can refuse later.
    if (tc.shared_read_bytes() > 0) map_side_impure = true;
    // Map-side combine into a per-task table (Spark's ExternalAppendOnlyMap).
    std::unordered_map<K, C> combined;
    std::vector<std::pair<K, C>> passthrough;
    for (auto& [key, value] : records) {
      if (map_side_combine) {
        auto it = combined.find(key);
        if (it == combined.end()) {
          combined.emplace(key, init(std::move(value)));
        } else {
          merge(it->second, std::move(value), tc);
        }
      } else {
        passthrough.emplace_back(key, init(std::move(value)));
      }
    }
    std::uint64_t bytes = 0;
    auto emit = [&](std::pair<K, C>&& rec) {
      bytes += SerializedSizeOf(rec);
      const int r = partitioner.PartitionOf(rec.first);
      buckets[static_cast<std::size_t>(r)].push_back(std::move(rec));
    };
    for (auto& rec : passthrough) emit(std::move(rec));
    for (auto& [key, comb] : combined) {
      emit(std::make_pair(key, std::move(comb)));
    }
    spill_bytes[static_cast<std::size_t>(p)] = bytes;
    // The task pays for serializing its map output and writing the
    // compressed spill to the node-local SSD.
    costs.push_back(
        tc.task_seconds() +
        static_cast<double>(bytes) * ctx->config().serde_seconds_per_byte +
        static_cast<double>(bytes) * ctx->config().shuffle_compression /
            ctx->config().local_storage_bandwidth_bytes_per_sec);
  }
  // Preserve the output and register the replay state BEFORE the map
  // stage's boundary runs: a node loss firing at exactly that boundary must
  // see the just-written outputs (the tasks wrote their spill during the
  // stage) and mark its share lost. Clock-wise the order is immaterial —
  // stage time and shuffle charges add commutatively.
  ShuffleOutput<K, C> out;
  out.files =
      std::make_shared<const std::vector<std::vector<std::pair<K, C>>>>(
          std::move(buckets));
  out.map_state = std::make_shared<ShuffleMapState>(
      op_name, costs, std::move(spill_bytes), map_side_impure,
      &ctx->cluster(), &ctx->cluster().accountant());
  ctx->RegisterShuffle(out.map_state);
  Status status =
      ctx->cluster().ChargeShuffle(out.map_state->spill_bytes());
  if (!status.ok()) throw SparkletAbort(status);
  ctx->cluster().RunStage(costs, op_name + "-map");
  return out;
}

}  // namespace internal

/// combineByKey: the general shuffle (paper's ListAppend combiner pattern).
///   init:        (V&&) -> C
///   merge_value: (C&, V&&, TaskContext&) -> void
///   merge_comb:  (C&, C&&, TaskContext&) -> void
template <typename K, typename V, typename C, typename Init,
          typename MergeValue, typename MergeComb>
RddPtr<std::pair<K, C>> CombineByKey(RddPtr<std::pair<K, V>> parent,
                                     PartitionerPtr<K> partitioner,
                                     std::string op_name, Init init,
                                     MergeValue merge_value,
                                     MergeComb merge_comb) {
  SparkletContext* ctx = parent->ctx();
  auto rdd = std::make_shared<Rdd<std::pair<K, C>>>(
      ctx, op_name, partitioner->num_partitions(),
      typename Rdd<std::pair<K, C>>::ComputeFn{}, /*cache=*/true);
  // The shuffle runs lazily on first materialization: the compute function
  // installed here performs map side + reduce side in one go, caching all
  // partitions through the store (EnsureMaterialized drives it).
  auto state = std::make_shared<internal::ShuffleOutput<K, C>>();
  rdd->SetComputeForShuffle(
      [parent, partitioner, op_name, init, merge_value, merge_comb, state,
       ctx](int p, TaskContext& tc) -> std::vector<std::pair<K, C>> {
        if (state->files == nullptr) {
          *state = internal::ShuffleMapSide<K, V, C>(
              *parent, *partitioner, op_name, /*map_side_combine=*/true, init,
              merge_value);
        }
        // An executor loss may have destroyed part of the preserved map
        // output; replay it (or abort, if the map side is impure) before
        // reading the bucket.
        ctx->RecoverLostMapOutputs(*state->map_state);
        // Reduce side for partition p: read the preserved bucket through the
        // shared ref and merge combiners. Records hold refs, so the combiner
        // seeds below share payloads with the shuffle files — the "copy" is
        // a ref-count bump, never block data (the files stay pristine for
        // recomputation either way).
        const auto& bucket = (*state->files)[static_cast<std::size_t>(p)];
        std::uint64_t fetch_bytes = 0;
        std::unordered_map<K, C> table;
        for (const auto& rec : bucket) {
          fetch_bytes += SerializedSizeOf(rec);
          auto it = table.find(rec.first);
          if (it == table.end()) {
            table.emplace(rec.first, rec.second);
          } else {
            C seed = rec.second;
            merge_comb(it->second, std::move(seed), tc);
          }
        }
        tc.ChargeCompute(static_cast<double>(fetch_bytes) *
                             ctx->config().serde_seconds_per_byte +
                         static_cast<double>(fetch_bytes) *
                             ctx->config().shuffle_compression /
                             ctx->config().local_storage_bandwidth_bytes_per_sec);
        std::vector<std::pair<K, C>> out;
        out.reserve(table.size());
        for (auto& [key, comb] : table) {
          out.emplace_back(key, std::move(comb));
        }
        return out;
      });
  return rdd;
}

/// reduceByKey(fn): combineByKey with C == V.
///   fn: (const V&, const V&, TaskContext&) -> V.
template <typename K, typename V, typename Fn>
RddPtr<std::pair<K, V>> ReduceByKey(RddPtr<std::pair<K, V>> parent,
                                    PartitionerPtr<K> partitioner,
                                    std::string op_name, Fn fn) {
  return CombineByKey<K, V, V>(
      parent, partitioner, std::move(op_name),
      [](V&& v) { return std::move(v); },
      [fn](V& acc, V&& v, TaskContext& tc) { acc = fn(acc, v, tc); },
      [fn](V& acc, V&& v, TaskContext& tc) { acc = fn(acc, v, tc); });
}

/// partitionBy: repartitions records without combining (records with equal
/// keys stay distinct).
template <typename K, typename V>
RddPtr<std::pair<K, V>> PartitionBy(RddPtr<std::pair<K, V>> parent,
                                    PartitionerPtr<K> partitioner,
                                    std::string op_name = "partitionBy") {
  SparkletContext* ctx = parent->ctx();
  // Shuffle without combine: every record is emitted to its target bucket.
  auto out = std::make_shared<Rdd<std::pair<K, V>>>(
      ctx, op_name, partitioner->num_partitions(),
      typename Rdd<std::pair<K, V>>::ComputeFn{}, /*cache=*/true);
  auto state = std::make_shared<internal::ShuffleOutput<K, V>>();
  out->SetComputeForShuffle(
      [parent, partitioner, op_name, state, ctx](int p, TaskContext& tc)
          -> std::vector<std::pair<K, V>> {
        if (state->files == nullptr) {
          *state = internal::ShuffleMapSide<K, V, V>(
              *parent, *partitioner, op_name, /*map_side_combine=*/false,
              [](V&& v) { return std::move(v); },
              [](V&, V&&, TaskContext&) {});
        }
        // Replay any map outputs an executor loss destroyed (aborting with
        // DATA_LOSS when the map side is impure) before touching the files.
        ctx->RecoverLostMapOutputs(*state->map_state);
        // The reduce output shares the preserved bucket's records (ref-count
        // bumps, not payload copies); the files stay intact so a lost reduce
        // partition can be recomputed from them.
        const auto& bucket = (*state->files)[static_cast<std::size_t>(p)];
        std::uint64_t fetch_bytes = 0;
        for (const auto& rec : bucket) fetch_bytes += SerializedSizeOf(rec);
        tc.ChargeCompute(static_cast<double>(fetch_bytes) *
                             ctx->config().serde_seconds_per_byte +
                         static_cast<double>(fetch_bytes) *
                             ctx->config().shuffle_compression /
                             ctx->config().local_storage_bandwidth_bytes_per_sec);
        return bucket;
      });
  return out;
}

}  // namespace apspark::sparklet
