#include "apsp/checkpoint.h"

#include "common/serial.h"

namespace apspark::apsp {

namespace {
constexpr const char* kManifestKey = "ckpt/manifest";

std::string BlockKeyName(const BlockKey& key) {
  return "ckpt/block/" + std::to_string(key.I) + "_" + std::to_string(key.J);
}

std::string PanelKeyName(std::int64_t index) {
  return "ckpt/panel/" + std::to_string(index);
}
}  // namespace

void SaveCheckpoint(sparklet::SparkletContext& ctx, const BlockLayout& layout,
                    const std::vector<BlockRecord>& records,
                    std::int64_t completed_rounds,
                    const std::vector<PanelRecord>& panels) {
  ctx.shared_storage().ErasePrefix("ckpt/");
  for (const auto& [key, block] : records) {
    BinaryWriter writer;
    block->Serialize(writer);
    ctx.DriverWriteShared(BlockKeyName(key), std::move(writer).TakeBuffer(),
                          block->SerializedBytes());
  }
  for (const auto& [index, panel] : panels) {
    BinaryWriter writer;
    panel->Serialize(writer);
    ctx.DriverWriteShared(PanelKeyName(index), std::move(writer).TakeBuffer(),
                          panel->SerializedBytes());
  }
  BinaryWriter manifest;
  manifest.Write(completed_rounds);
  manifest.Write(layout.n());
  manifest.Write(layout.block_size());
  manifest.Write(static_cast<std::uint8_t>(layout.directed() ? 1 : 0));
  manifest.Write(static_cast<std::int64_t>(records.size()));
  manifest.Write(static_cast<std::int64_t>(panels.size()));
  // Capture the size before the buffer moves out: argument evaluation
  // order is unspecified, and a left-to-right compiler would otherwise
  // charge a 0-byte write.
  const std::uint64_t manifest_bytes = manifest.size();
  ctx.DriverWriteShared(kManifestKey, std::move(manifest).TakeBuffer(),
                        manifest_bytes);
  // Progress up to this checkpoint is durable: a later restart only redoes
  // (and attributes to recovery) what came after this point.
  ctx.cluster().NoteDurableMark();
}

bool HasCheckpoint(sparklet::SparkletContext& ctx) {
  return ctx.shared_storage().Contains(kManifestKey);
}

Result<CheckpointInfo> LoadCheckpoint(sparklet::SparkletContext& ctx,
                                      const BlockLayout& layout) {
  auto manifest_obj = ctx.shared_storage().Get(kManifestKey);
  if (!manifest_obj.ok()) return NotFoundError("no checkpoint manifest");
  BinaryReader manifest(*manifest_obj->payload);
  auto rounds = manifest.Read<std::int64_t>();
  auto n = manifest.Read<std::int64_t>();
  auto b = manifest.Read<std::int64_t>();
  auto directed = manifest.Read<std::uint8_t>();
  auto count = manifest.Read<std::int64_t>();
  auto panel_count = manifest.Read<std::int64_t>();
  if (!rounds.ok() || !n.ok() || !b.ok() || !directed.ok() || !count.ok() ||
      !panel_count.ok()) {
    return InvalidArgumentError("corrupt checkpoint manifest");
  }
  if (*n != layout.n() || *b != layout.block_size() ||
      (*directed != 0) != layout.directed()) {
    return FailedPreconditionError(
        "checkpoint does not match the requested layout");
  }
  CheckpointInfo info;
  info.next_round = *rounds;
  // Checkpoints are the durability path: blocks really serialize on save, so
  // the load below re-materializes payloads from bytes. That duplication is
  // deliberate (restart-from-disk semantics) — sanction it for the zero-copy
  // accounting.
  linalg::CowScope durable_rematerialization;
  for (const BlockKey& key : layout.StoredKeys()) {
    auto obj = ctx.shared_storage().Get(BlockKeyName(key));
    if (!obj.ok()) {
      return FailedPreconditionError("checkpoint missing block " +
                                     key.ToString());
    }
    BinaryReader reader(*obj->payload);
    auto block = linalg::DenseBlock::Deserialize(reader);
    if (!block.ok()) return block.status();
    if (block->rows() != layout.BlockDim(key.I) ||
        block->cols() != layout.BlockDim(key.J)) {
      return FailedPreconditionError("checkpoint block " + key.ToString() +
                                     " does not have its layout shape");
    }
    info.blocks.emplace_back(key, linalg::MakeBlock(std::move(block).value()));
  }
  if (static_cast<std::int64_t>(info.blocks.size()) != *count) {
    return FailedPreconditionError("checkpoint block count mismatch");
  }
  for (std::int64_t i = 0; i < *panel_count; ++i) {
    auto obj = ctx.shared_storage().Get(PanelKeyName(i));
    if (!obj.ok()) {
      return FailedPreconditionError("checkpoint missing panel " +
                                     std::to_string(i));
    }
    BinaryReader reader(*obj->payload);
    auto panel = linalg::DenseBlock::Deserialize(reader);
    if (!panel.ok()) return panel.status();
    info.panels.emplace_back(i, linalg::MakeBlock(std::move(panel).value()));
  }
  // The restart really reads the checkpoint back from the shared FS; charge
  // the driver-side transfer so resuming is not modelled as free.
  std::uint64_t read_bytes = 0;
  for (const auto& [key, block] : info.blocks) {
    read_bytes += block->SerializedBytes();
  }
  for (const auto& [index, panel] : info.panels) {
    read_bytes += panel->SerializedBytes();
  }
  ctx.cluster().ChargeSharedFsRead(
      read_bytes,
      static_cast<std::int64_t>(info.blocks.size() + info.panels.size()));
  return info;
}

void ArmRunPlan(sparklet::SparkletContext& ctx, const RunPlan& plan) {
  for (const auto& node : plan.fail_nodes) {
    ctx.fault_injector().FailNode(node.node, node.at_stage);
  }
  for (const auto& rack : plan.fail_racks) {
    ctx.fault_injector().FailRack(rack.rack, rack.at_stage);
  }
  for (const std::int64_t at_stage : plan.add_nodes) {
    ctx.fault_injector().AddNode(at_stage);
  }
  ctx.cluster().NoteDurableMark();
}

Result<std::int64_t> RestartOnDataLoss(
    sparklet::SparkletContext& ctx, const BlockLayout& layout,
    const RunPlan& plan, const Status& abort, int& restarts,
    std::int64_t fallback_round,
    const std::function<void(const CheckpointInfo*, const std::string& tag)>&
        rebuild) {
  if (abort.code() != StatusCode::kDataLoss || restarts >= plan.max_restarts) {
    return abort;
  }
  ++restarts;
  const std::string tag = "#restart" + std::to_string(restarts);
  // Progress since the last durable point is destroyed; account it, then
  // resume from the latest checkpoint epoch (or, with none, from the
  // stable inputs — a restart from scratch). The reload itself (checkpoint
  // read, re-population) is recovery work too.
  ctx.cluster().ChargeRestartRecovery();
  const double reload_clock = ctx.now_seconds();
  const std::uint64_t reload_tasks = ctx.metrics().tasks;
  std::int64_t next_round = fallback_round;
  if (HasCheckpoint(ctx)) {
    auto info = LoadCheckpoint(ctx, layout);
    if (!info.ok()) return info.status();
    next_round = info->next_round;
    rebuild(&*info, tag);
  } else {
    rebuild(nullptr, tag);
  }
  auto& metrics = ctx.cluster().mutable_metrics();
  metrics.recovery_seconds += ctx.now_seconds() - reload_clock;
  metrics.recomputed_tasks += ctx.metrics().tasks - reload_tasks;
  ctx.cluster().NoteDurableMark();
  return next_round;
}

void FoldRecoveryMetrics(const sparklet::SimMetrics& live,
                         sparklet::SimMetrics& reported) {
  reported.recovery_seconds = live.recovery_seconds;
  reported.recomputed_tasks = live.recomputed_tasks;
  reported.executor_failures = live.executor_failures;
  reported.job_restarts = live.job_restarts;
  reported.task_failures = live.task_failures;
  reported.task_retries = live.task_retries;
  reported.speculative_tasks = live.speculative_tasks;
  reported.rebalance_seconds = live.rebalance_seconds;
  reported.migrated_partitions = live.migrated_partitions;
  reported.migration_bytes = live.migration_bytes;
  reported.node_joins = live.node_joins;
}

}  // namespace apspark::apsp
