#include "sparklet/task_context.h"
#include <algorithm>

namespace apspark::sparklet {

void TaskContext::ChargeSharedRead(std::uint64_t logical_bytes) noexcept {
  // Each reading task sees its fair share of the aggregate FS bandwidth:
  // aggregate divided by the number of tasks that run concurrently in the
  // current stage (set by the engine; at most the core count).
  const int concurrent =
      std::min(stage_concurrency_, config_->total_cores());
  const double per_reader_bw =
      config_->shared_fs.aggregate_bandwidth_bytes_per_sec /
      static_cast<double>(concurrent < 1 ? 1 : concurrent);
  task_seconds_ += static_cast<double>(logical_bytes) / per_reader_bw +
                   config_->shared_fs.file_overhead_seconds;
  shared_read_bytes_ += logical_bytes;
}

Result<SharedStorage::Object> TaskContext::ReadShared(const std::string& key) {
  auto obj = storage_->Get(key);
  if (!obj.ok()) return obj.status();
  ChargeSharedRead(obj->logical_bytes);
  read_byte_object_ = true;
  return obj;
}

Result<linalg::BlockRef> TaskContext::ReadSharedBlock(const std::string& key) {
  auto block = storage_->GetBlock(key);
  if (!block.ok()) return block.status();
  ChargeSharedRead(block->serialized_bytes());
  block_generations_.push_back(storage_->BlockGeneration(key));
  return block;
}

}  // namespace apspark::sparklet
