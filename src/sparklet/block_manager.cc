#include "sparklet/block_manager.h"

#include <algorithm>

#include "sparklet/check.h"

namespace apspark::sparklet {

BlockManager::BlockManager(int nodes)
    : live_(std::max(1, nodes)),
      alive_(static_cast<std::size_t>(live_), true),
      owned_(static_cast<std::size_t>(live_), 0) {}

int BlockManager::LeastLoadedLive() const {
  int best = -1;
  for (int n = 0; n < num_nodes(); ++n) {
    if (!alive_[static_cast<std::size_t>(n)]) continue;
    if (best < 0 ||
        owned_[static_cast<std::size_t>(n)] < owned_[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  SPARKLET_CHECK(best >= 0, "placement has no live node");
  return best;
}

void BlockManager::EnsureSlot(std::int64_t partition) const {
  // Least-loaded with lowest-id tie-break hands fresh slots out round-robin
  // on an unchanged cluster — bitwise-identical to the old `p % nodes`.
  while (static_cast<std::int64_t>(placement_.size()) <= partition) {
    const int owner = LeastLoadedLive();
    placement_.push_back(owner);
    ++owned_[static_cast<std::size_t>(owner)];
  }
}

int BlockManager::NodeOf(std::int64_t partition) const {
  SPARKLET_CHECK(partition >= 0, "negative partition id " +
                                     std::to_string(partition) +
                                     " has no placement");
  EnsureSlot(partition);
  return placement_[static_cast<std::size_t>(partition)];
}

void BlockManager::RemoveNode(int node) {
  SPARKLET_CHECK(alive(node), "RemoveNode: node " + std::to_string(node) +
                                  " is not a live node");
  SPARKLET_CHECK(live_ > 1, "RemoveNode would kill the last live node");
  alive_[static_cast<std::size_t>(node)] = false;
  --live_;
  owned_[static_cast<std::size_t>(node)] = 0;
  for (int& owner : placement_) {
    if (owner != node) continue;
    owner = LeastLoadedLive();
    ++owned_[static_cast<std::size_t>(owner)];
  }
}

int BlockManager::OwnedSlots(int node) const {
  if (node < 0 || node >= num_nodes()) return 0;
  return owned_[static_cast<std::size_t>(node)];
}

}  // namespace apspark::sparklet
