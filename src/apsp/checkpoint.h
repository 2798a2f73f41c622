// Checkpointing for the impure solvers.
//
// The paper's conclusion flags the impure solvers' main weakness: they rely
// on shared persistent storage outside the RDD lineage and "thus [are] not
// fault-tolerant" (§6). The standard remedy — which this module implements
// as an extension — is coarse-grained checkpointing: every k rounds the
// current matrix A (and, for the k-source workload, the frontier panels F)
// is staged to the same shared storage, and after an executor loss the
// restart policy below (RestartOnDataLoss, shared by SolveBlocks and
// KsourceBlockedSolver::Solve) resumes from the latest checkpoint epoch
// instead of from scratch. The staging cost is charged to the virtual
// cluster like any other shared-FS traffic, so its overhead is measurable;
// SaveCheckpoint also marks the durable-progress point the recovery
// accounting (SimMetrics::recovery_seconds) measures wasted work against.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "apsp/block_key.h"
#include "apsp/block_layout.h"
#include "apsp/run_plan.h"
#include "common/status.h"
#include "sparklet/rdd.h"

namespace apspark::apsp {

struct CheckpointInfo {
  /// First round that still needs to run.
  std::int64_t next_round = 0;
  std::vector<BlockRecord> blocks;
  /// Frontier panels of a k-source checkpoint (empty for plain APSP).
  std::vector<PanelRecord> panels;
};

/// Stages `records` (the full matrix A after `completed_rounds` rounds) to
/// shared storage, replacing any older checkpoint. K-source solvers also
/// pass the frontier `panels`; plain APSP leaves them empty.
void SaveCheckpoint(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                    const std::vector<BlockRecord>& records,
                    std::int64_t completed_rounds,
                    const std::vector<PanelRecord>& panels = {});

/// Loads the most recent checkpoint, verifying it matches `layout`.
Result<CheckpointInfo> LoadCheckpoint(sparklet::SparkletContext& ctx,
                                      const BlockLayout& layout);

/// True if a checkpoint exists in this context's shared storage.
bool HasCheckpoint(sparklet::SparkletContext& ctx);

/// Arms `plan`'s injected node and rack losses and elastic joins on `ctx`
/// (stage ordinals count from the caller's preceding cluster Reset) and
/// marks the job start durable: the input RDDs recompute from stable data,
/// so a restart without a checkpoint redoes everything from here, and the
/// recovery accounting measures exactly that.
void ArmRunPlan(sparklet::SparkletContext& ctx, const RunPlan& plan);

/// The DATA_LOSS restart policy shared by the solve drivers (SolveBlocks,
/// KsourceBlockedSolver::Solve). DATA_LOSS marks the one recoverable abort:
/// an executor loss destroyed state whose lineage contains out-of-lineage
/// side effects (the impure planes). Any other `abort`, or one arriving after
/// plan.max_restarts restarts, is returned as the run's final status.
/// Otherwise increments `restarts`, accounts the progress the failure
/// destroyed (since the last durable mark), loads the latest checkpoint when
/// one exists, invokes `rebuild` to re-populate the solver's RDDs — with the
/// loaded CheckpointInfo, or nullptr when restarting from the stable inputs,
/// and the RDD name suffix of this restart ("#restart<k>") — attributes the
/// reload itself to recovery, and re-marks durable progress. Returns the
/// round to resume from (`fallback_round` when no checkpoint exists).
Result<std::int64_t> RestartOnDataLoss(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const RunPlan& plan, const Status& abort, int& restarts,
    std::int64_t fallback_round,
    const std::function<void(const CheckpointInfo*, const std::string& tag)>&
        rebuild);

/// Copies the failure/recovery counters from `live` into `reported`. Used
/// by solvers whose reported metrics snapshot excludes the final assembly
/// collect: evidence of losses that fire *during* assembly must still reach
/// the report.
void FoldRecoveryMetrics(const sparklet::SimMetrics& live,
                         sparklet::SimMetrics& reported);

}  // namespace apspark::apsp
