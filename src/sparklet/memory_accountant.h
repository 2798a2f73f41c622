// Live-bytes accountant of the zero-copy data plane.
//
// The virtual cluster models *time*; this class models *memory residency*:
// how many logical bytes are live on the driver and on each executor node at
// any point of a run, and the high-water marks those numbers reach. With the
// data plane holding ref-counted BlockRefs instead of copies, the accountant
// is what makes the zero-copy claim measurable — driver_peak_bytes of a
// collect/broadcast solve versus a pure shuffle solve is exactly the
// difference the paper's §4.2 side-channel discussion is about.
//
// Accounting model (deterministic — byte counts, never host timing):
//  * Executor nodes: cached RDD partitions charge their serialized bytes to
//    the partition's node on materialization and release on
//    Unpersist/DropPartition/destruction. (Preserved shuffle spill is *disk*
//    and stays with VirtualCluster's local-storage accounting.)
//  * Driver: registered holdings (ChargeDriver/ReleaseDriver) plus transient
//    spikes (TouchDriver) for data that funnels through the driver NIC —
//    collect results, broadcast sources. A transient touch raises the peak
//    without changing the live set.
//  * Peaks are run-wide: the high water of each holder since the last
//    Reset/ResetPeaks, mirrored into SimMetrics. One job owns the cluster,
//    so its run peak is its memory demand.
#pragma once

#include <cstdint>
#include <vector>

namespace apspark::sparklet {

struct SimMetrics;

class MemoryAccountant {
 public:
  /// `mirror` (optional) receives peak updates into its driver_peak_bytes /
  /// node_peak_bytes fields so run metrics carry the high water automatically.
  explicit MemoryAccountant(int nodes = 0, SimMetrics* mirror = nullptr);

  /// Re-shapes for `nodes` executors and forgets everything.
  void Reset(int nodes);

  /// Forgets the high-water marks but keeps the live set: peaks restart from
  /// what is currently resident (VirtualCluster::Reset's semantics — solvers
  /// reset the clock after free RDD population, not the residency).
  void ResetPeaks();

  int num_nodes() const noexcept { return static_cast<int>(node_live_.size()); }

  // -- driver ------------------------------------------------------------
  void ChargeDriver(std::uint64_t bytes);
  void ReleaseDriver(std::uint64_t bytes);
  /// Transient spike: `extra_bytes` were momentarily resident on top of the
  /// registered driver live set (a collect materializing its result).
  void TouchDriver(std::uint64_t extra_bytes);

  // -- executor nodes ----------------------------------------------------
  void ChargeNode(int node, std::uint64_t bytes);
  void ReleaseNode(int node, std::uint64_t bytes);

  // -- accessors ---------------------------------------------------------
  std::uint64_t driver_live_bytes() const noexcept { return driver_live_; }
  std::uint64_t driver_peak_bytes() const noexcept { return driver_peak_; }
  std::uint64_t node_live_bytes(int node) const;
  /// Max over nodes of each node's high water.
  std::uint64_t node_peak_bytes() const noexcept { return node_peak_; }

 private:
  void NoteDriver(std::uint64_t resident);
  void NoteNode(std::uint64_t resident);

  SimMetrics* mirror_ = nullptr;
  std::uint64_t driver_live_ = 0;
  std::uint64_t driver_peak_ = 0;
  std::uint64_t node_peak_ = 0;
  std::vector<std::uint64_t> node_live_;
};

}  // namespace apspark::sparklet
