// Preserved shuffle map-output bookkeeping (fault-tolerance subsystem).
//
// Spark preserves a shuffle's map outputs on the map executors' local disks
// so lost reduce partitions can be recomputed without re-running the map
// side. That preservation is exactly what an executor loss destroys: every
// map partition that ran on the lost node must be re-executed before any
// reduce partition can be rebuilt. This class records, per shuffle, what a
// replay needs — each map partition's modelled task cost and spill bytes,
// which partitions' outputs are currently lost, and whether the map tasks
// read the shared-storage side channel (in which case a replay is not
// guaranteed to reproduce the original output: the side channel lives
// outside the lineage, the paper's §3 impurity — and the engine refuses it,
// forcing the checkpoint-restart path).
//
// The preserved buckets are also accounted as executor block-manager memory:
// each map partition's serialized output bytes are charged to its node in
// the MemoryAccountant when the shuffle runs, released when the node dies or
// the shuffle is dropped, and re-charged when lost outputs are replayed.
// A node loss rehomes the dead node's slots before their outputs are
// released, so the state records the node each partition's bytes live on
// and always releases from that recorded node — recomputing placement at
// release time would corrupt the ledger. Replayed outputs land on the
// placement map's current owner.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparklet/memory_accountant.h"
#include "sparklet/virtual_cluster.h"

namespace apspark::sparklet {

class ShuffleMapState {
 public:
  /// `cluster` and `accountant` must outlive this state (both are owned by
  /// the context, and contexts outlive their RDDs — the same lifetime
  /// contract Rdd's destructor relies on).
  ShuffleMapState(std::string op_name, std::vector<double> task_costs,
                  std::vector<std::uint64_t> spill_bytes, bool map_side_impure,
                  const VirtualCluster* cluster, MemoryAccountant* accountant)
      : op_name_(std::move(op_name)),
        task_costs_(std::move(task_costs)),
        spill_bytes_(std::move(spill_bytes)),
        lost_(task_costs_.size(), false),
        charged_(task_costs_.size(), false),
        loss_epoch_(task_costs_.size(), 0),
        node_(task_costs_.size(), 0),
        map_side_impure_(map_side_impure),
        cluster_(cluster),
        accountant_(accountant) {
    for (std::size_t p = 0; p < spill_bytes_.size(); ++p) {
      node_[p] = cluster_ != nullptr
                     ? cluster_->NodeOfPartition(static_cast<std::int64_t>(p))
                     : 0;
      Charge(p);
    }
  }

  ~ShuffleMapState() {
    for (std::size_t p = 0; p < spill_bytes_.size(); ++p) Release(p);
  }

  ShuffleMapState(const ShuffleMapState&) = delete;
  ShuffleMapState& operator=(const ShuffleMapState&) = delete;

  const std::string& op_name() const noexcept { return op_name_; }
  int num_map_partitions() const noexcept {
    return static_cast<int>(task_costs_.size());
  }
  /// Current home of map partition `p`'s preserved output (recorded at
  /// write/replay time).
  int NodeOfMapPartition(std::int64_t p) const noexcept {
    return node_[static_cast<std::size_t>(p)];
  }
  bool map_side_impure() const noexcept { return map_side_impure_; }
  int retry_attempts() const noexcept { return retry_attempts_; }
  const std::vector<std::uint64_t>& spill_bytes() const noexcept {
    return spill_bytes_;
  }

  /// The executor hosting `node`'s share of the preserved outputs died:
  /// mark those map partitions lost and release their block-manager bytes.
  /// Every hit bumps the partition's loss epoch — a loss firing at a replay
  /// stage's own boundary re-destroys outputs mid-recovery, and the epoch
  /// is how MarkRecovered tells a stale replay from a current one. Returns
  /// how many partitions were newly lost.
  int MarkNodeLost(int node) {
    int newly_lost = 0;
    for (std::size_t p = 0; p < lost_.size(); ++p) {
      if (node_[p] != node) continue;
      if (!lost_[p]) {
        lost_[p] = true;
        ++newly_lost;
      }
      ++loss_epoch_[p];
      Release(p);
    }
    return newly_lost;
  }

  bool any_lost() const noexcept {
    for (const bool l : lost_) {
      if (l) return true;
    }
    return false;
  }

  /// Snapshot of the map partitions currently lost, with their loss epochs.
  /// A further failure firing during the replay stage — same node or not —
  /// bumps the epoch and stays marked for the next replay round.
  struct ReplayPlan {
    std::vector<int> indices;
    std::vector<std::uint64_t> epochs;
  };

  ReplayPlan TakeReplayPlan() const {
    ReplayPlan plan;
    for (std::size_t p = 0; p < lost_.size(); ++p) {
      if (!lost_[p]) continue;
      plan.indices.push_back(static_cast<int>(p));
      plan.epochs.push_back(loss_epoch_[p]);
    }
    return plan;
  }

  /// Per-map-partition replay plan for `indices`: modelled cost of each
  /// lost partition's map task (0 elsewhere), suitable for RunStage.
  std::vector<double> ReplayTaskCosts(const std::vector<int>& indices) const {
    std::vector<double> costs(task_costs_.size(), 0.0);
    for (const int p : indices) {
      costs[static_cast<std::size_t>(p)] =
          task_costs_[static_cast<std::size_t>(p)];
    }
    return costs;
  }

  /// Spill bytes the replayed map tasks re-write (0 elsewhere).
  std::vector<std::uint64_t> ReplaySpillBytes(
      const std::vector<int>& indices) const {
    std::vector<std::uint64_t> bytes(spill_bytes_.size(), 0);
    for (const int p : indices) {
      bytes[static_cast<std::size_t>(p)] =
          spill_bytes_[static_cast<std::size_t>(p)];
    }
    return bytes;
  }

  /// The replay of `plan` ran: those outputs exist again — on the slots'
  /// *current* owners per the rehomed placement map — unless a further
  /// loss fired at the replay stage's own boundary and destroyed them again
  /// (the epoch moved), in which case they stay lost for the next replay
  /// round.
  void MarkRecovered(const ReplayPlan& plan) {
    for (std::size_t i = 0; i < plan.indices.size(); ++i) {
      const auto idx = static_cast<std::size_t>(plan.indices[i]);
      if (!lost_[idx] || loss_epoch_[idx] != plan.epochs[i]) continue;
      lost_[idx] = false;
      if (cluster_ != nullptr) {
        node_[idx] =
            cluster_->NodeOfPartition(static_cast<std::int64_t>(idx));
      }
      Charge(idx);
    }
    ++retry_attempts_;
  }

 private:
  void Charge(std::size_t p) {
    if (charged_[p] || accountant_ == nullptr || spill_bytes_[p] == 0) return;
    accountant_->ChargeNode(node_[p], spill_bytes_[p]);
    charged_[p] = true;
  }
  void Release(std::size_t p) {
    if (!charged_[p] || accountant_ == nullptr) return;
    accountant_->ReleaseNode(node_[p], spill_bytes_[p]);
    charged_[p] = false;
  }

  std::string op_name_;
  std::vector<double> task_costs_;
  std::vector<std::uint64_t> spill_bytes_;
  std::vector<bool> lost_;
  std::vector<bool> charged_;
  std::vector<std::uint64_t> loss_epoch_;
  /// Home of each map partition's preserved output (charge/release target).
  std::vector<int> node_;
  bool map_side_impure_ = false;
  const VirtualCluster* cluster_ = nullptr;
  int retry_attempts_ = 0;
  MemoryAccountant* accountant_ = nullptr;
};

}  // namespace apspark::sparklet
