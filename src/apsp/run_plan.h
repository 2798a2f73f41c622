// RunPlan: the durability / fault / membership knobs shared by every solve.
//
// ApspOptions derives from RunPlan, so a caller can configure one plan and
// assign it into the options of any solve, APSP or k-source
// (`static_cast<RunPlan&>(opts) = plan`), and the CLI's membership
// validation operates on the plan alone. apsp/checkpoint.h arms a plan on a
// context (ArmRunPlan) and applies its restart budget (RestartOnDataLoss);
// SolveBlocks does both for every solve.
#pragma once

#include <cstdint>
#include <vector>

#include "sparklet/fault.h"

namespace apspark::apsp {

struct RunPlan {
  /// Durability extension: checkpoint solver state to shared storage every
  /// this many rounds/pivots (0 = off); see apsp/checkpoint.h. Honored by
  /// the impure solvers; pure ones recover through lineage and ignore it.
  std::int64_t checkpoint_every = 0;
  /// Fault injection: executor losses to arm before the run (fired by the
  /// engine at stage boundaries; see sparklet::FaultInjector::FailNode).
  std::vector<sparklet::NodeFailurePlan> fail_nodes;
  /// Correlated failures: whole racks lost at a stage boundary (expanded to
  /// per-node losses by the engine; see sparklet::FaultInjector::FailRack).
  std::vector<sparklet::RackFailurePlan> fail_racks;
  /// Elastic membership: replacement nodes joining at these stage
  /// boundaries (see sparklet::FaultInjector::AddNode).
  std::vector<std::int64_t> add_nodes;
  /// How many checkpoint restarts an impure solver may attempt after
  /// executor losses before giving up and surfacing DATA_LOSS.
  int max_restarts = 3;
};

}  // namespace apspark::apsp
