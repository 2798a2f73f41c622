#include "sparklet/config.h"

#include <algorithm>
#include <sstream>

namespace apspark::sparklet {

ClusterConfig ClusterConfig::PaperWithCores(int cores) {
  ClusterConfig cfg;
  cfg.nodes = std::max(1, cores / cfg.cores_per_node);
  cfg.cores_per_node = cores / cfg.nodes;
  return cfg;
}

ClusterConfig ClusterConfig::TinyTest() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.cores_per_node = 2;
  cfg.executor_memory_bytes = 1 * kGiB;
  cfg.local_storage_bytes = 64 * kMiB;
  cfg.task_overhead_seconds = 1e-4;
  cfg.stage_overhead_seconds = 1e-4;
  return cfg;
}

std::string ClusterConfig::Summary() const {
  std::ostringstream out;
  out << nodes << " nodes x " << cores_per_node << " cores";
  out << ", " << FormatBytes(executor_memory_bytes) << " RAM/node, "
      << FormatBytes(local_storage_bytes) << " local storage/node, net "
      << FormatRate(network.bandwidth_bytes_per_sec) << ", kernels "
      << linalg::KernelVariantName(kernel_variant);
  if (intra_task_cores > 1) {
    out << ", " << intra_task_cores << " cores/task ("
        << concurrent_task_slots() << " slots)";
  }
  return out.str();
}

}  // namespace apspark::sparklet
