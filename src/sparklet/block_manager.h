// Partition placement (the block-manager map).
//
// The cluster owns a placement map from partition slots to node ids. Fresh
// slots go round-robin over the live nodes. When a node is lost (executor
// loss), its slots are spread across the survivors, each slot going to the
// least-loaded live node (ties to the lowest node id). The data on those
// slots is gone; recovery recomputes it on the new owners, so the moves
// carry no bytes.
//
// Placement only decides accounting and modelled time — record processing is
// real and runs in the driver thread — so rehoming can never change a
// solver's numeric output. That is what keeps every loss schedule
// bitwise-locked to the no-failure run.
#pragma once

#include <cstdint>
#include <vector>

namespace apspark::sparklet {

class BlockManager {
 public:
  explicit BlockManager(int nodes);

  /// Node ids, alive and dead (a lost node's id stays dead).
  int num_nodes() const noexcept { return static_cast<int>(alive_.size()); }
  int live_nodes() const noexcept { return live_; }
  bool alive(int node) const noexcept {
    return node >= 0 && node < num_nodes() &&
           alive_[static_cast<std::size_t>(node)];
  }

  /// Owner of `partition`. Rejects negative ids (SPARKLET_CHECK — the old
  /// signed modulo returned a negative node index). Slots are created on
  /// first lookup, each going to the least-loaded live node, which on an
  /// unchanged cluster reproduces the historical `partition % nodes`
  /// round-robin exactly.
  int NodeOf(std::int64_t partition) const;

  /// Marks `node` dead and rehomes its slots onto the survivors (their data
  /// died with the node). The caller must not remove the last live node
  /// (checked).
  void RemoveNode(int node);

  /// Slots currently owned by `node` (0 for dead nodes).
  int OwnedSlots(int node) const;

  /// Highest slot index materialized so far + 1.
  std::int64_t known_partitions() const noexcept {
    return static_cast<std::int64_t>(placement_.size());
  }

 private:
  int LeastLoadedLive() const;
  void EnsureSlot(std::int64_t partition) const;

  int live_ = 0;
  std::vector<bool> alive_;
  // Slot -> owner. Grown lazily by NodeOf (placement is demand-driven: the
  // engine asks only about partitions that exist), hence mutable.
  mutable std::vector<int> placement_;
  mutable std::vector<int> owned_;  // node -> owned slot count
};

}  // namespace apspark::sparklet
