// Deterministic fault injection.
//
// Tests use this to demonstrate the paper's purity argument (§3, §4.5):
// solvers built only from RDD transformations recover from failures by
// lineage recomputation, while solvers that smuggle data through shared
// persistent storage have side effects the engine cannot replay.
//
// Two failure granularities:
//  * task failures — a single task attempt dies and is retried in place
//    (Spark's TaskSetManager path; the engine simply re-runs the task);
//  * node failures — a whole executor node is lost at a stage boundary.
//    Everything the node held disappears at once: cached RDD partitions,
//    preserved shuffle map outputs, and local shuffle spill. Recovery is
//    the interesting part — lineage recomputation for pure dataflow,
//    checkpoint restart for solvers with out-of-lineage side effects — and
//    is measured through SimMetrics::recovery_seconds/recomputed_tasks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace apspark::sparklet {

/// One planned executor loss: `node` dies when the engine completes the
/// stage whose 0-based ordinal is `at_stage` (stage ordinals count RunStage
/// calls since the last VirtualCluster::Reset). A plan armed for an ordinal
/// that has already passed fires at the next stage boundary instead, so a
/// schedule can never be silently skipped.
struct NodeFailurePlan {
  int node = 0;
  std::int64_t at_stage = 0;
};

class FaultInjector {
 public:
  /// Arms `times` consecutive failures for tasks computing partition
  /// `partition` of any RDD whose name is `rdd_name`.
  void FailTask(const std::string& rdd_name, int partition, int times = 1) {
    plan_[{rdd_name, partition}] += times;
  }

  /// Consumes one armed failure if present. Called by the engine before
  /// each task attempt.
  bool ShouldFail(const std::string& rdd_name, int partition) {
    auto it = plan_.find({rdd_name, partition});
    if (it == plan_.end() || it->second <= 0) return false;
    if (--it->second == 0) plan_.erase(it);
    return true;
  }

  /// Whether a failure is armed for this task, without consuming it (a
  /// concurrent task leaves it to the driver, see TaskContext::RequireDriver).
  bool Armed(const std::string& rdd_name, int partition) const {
    auto it = plan_.find({rdd_name, partition});
    return it != plan_.end() && it->second > 0;
  }

  /// Arms the loss of executor `node` at the completion of stage ordinal
  /// `at_stage` (see NodeFailurePlan). Multiple plans — even for the same
  /// node — are allowed; each fires exactly once.
  void FailNode(int node, std::int64_t at_stage) {
    node_plan_.push_back({node, at_stage});
  }

  /// Consumes every node plan due at or before completed stage ordinal
  /// `completed_stage`. Called by VirtualCluster at each stage boundary;
  /// returns the nodes lost at this boundary (possibly empty).
  std::vector<int> TakeNodeFailuresAt(std::int64_t completed_stage) {
    std::vector<int> fired;
    auto it = node_plan_.begin();
    while (it != node_plan_.end()) {
      if (it->at_stage <= completed_stage) {
        fired.push_back(it->node);
        ++injected_nodes_;
        it = node_plan_.erase(it);
      } else {
        ++it;
      }
    }
    return fired;
  }

  std::uint64_t injected_node_count() const noexcept {
    return injected_nodes_;
  }
  bool empty() const noexcept {
    return plan_.empty() && node_plan_.empty();
  }
  void Clear() {
    plan_.clear();
    node_plan_.clear();
  }

 private:
  std::map<std::pair<std::string, int>, int> plan_;
  std::vector<NodeFailurePlan> node_plan_;
  std::uint64_t injected_nodes_ = 0;
};

}  // namespace apspark::sparklet
