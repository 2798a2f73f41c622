#include "sparklet/memory_accountant.h"

#include <algorithm>

#include "sparklet/metrics.h"

namespace apspark::sparklet {

namespace {

/// Saturating release: an over-release (e.g. bytes charged before a Reset)
/// clamps to zero instead of wrapping.
std::uint64_t Shrink(std::uint64_t live, std::uint64_t bytes) noexcept {
  return bytes > live ? 0 : live - bytes;
}

}  // namespace

MemoryAccountant::MemoryAccountant(int nodes, SimMetrics* mirror)
    : mirror_(mirror),
      node_live_(static_cast<std::size_t>(nodes < 0 ? 0 : nodes), 0) {}

void MemoryAccountant::Reset(int nodes) {
  driver_live_ = 0;
  driver_peak_ = 0;
  node_peak_ = 0;
  node_live_.assign(static_cast<std::size_t>(nodes < 0 ? 0 : nodes), 0);
}

void MemoryAccountant::ResetPeaks() {
  driver_peak_ = driver_live_;
  node_peak_ = 0;
  for (const std::uint64_t live : node_live_) {
    node_peak_ = std::max(node_peak_, live);
  }
  if (mirror_ != nullptr) {
    mirror_->driver_peak_bytes = driver_peak_;
    mirror_->node_peak_bytes = node_peak_;
  }
}

void MemoryAccountant::NoteDriver(std::uint64_t resident) {
  driver_peak_ = std::max(driver_peak_, resident);
  if (mirror_ != nullptr) {
    mirror_->driver_peak_bytes =
        std::max(mirror_->driver_peak_bytes, driver_peak_);
  }
}

void MemoryAccountant::NoteNode(std::uint64_t resident) {
  node_peak_ = std::max(node_peak_, resident);
  if (mirror_ != nullptr) {
    mirror_->node_peak_bytes = std::max(mirror_->node_peak_bytes, node_peak_);
  }
}

void MemoryAccountant::ChargeDriver(std::uint64_t bytes) {
  driver_live_ += bytes;
  NoteDriver(driver_live_);
}

void MemoryAccountant::ReleaseDriver(std::uint64_t bytes) {
  driver_live_ = Shrink(driver_live_, bytes);
}

void MemoryAccountant::TouchDriver(std::uint64_t extra_bytes) {
  NoteDriver(driver_live_ + extra_bytes);
}

void MemoryAccountant::ChargeNode(int node, std::uint64_t bytes) {
  if (node_live_.empty()) return;
  auto& live =
      node_live_[static_cast<std::size_t>(node) % node_live_.size()];
  live += bytes;
  NoteNode(live);
}

void MemoryAccountant::ReleaseNode(int node, std::uint64_t bytes) {
  if (node_live_.empty()) return;
  auto& live =
      node_live_[static_cast<std::size_t>(node) % node_live_.size()];
  live = Shrink(live, bytes);
}

std::uint64_t MemoryAccountant::node_live_bytes(int node) const {
  if (node_live_.empty()) return 0;
  return node_live_[static_cast<std::size_t>(node) % node_live_.size()];
}

}  // namespace apspark::sparklet
