#include "sparklet/metrics.h"

#include <sstream>

#include "common/bytes.h"
#include "common/time_utils.h"
#include "obs/metrics_registry.h"

namespace apspark::sparklet {

std::string SimMetrics::Summary() const {
  std::ostringstream out;
  out << "sim=" << FormatDuration(sim_seconds())
      << " [compute=" << FormatDuration(compute_seconds)
      << " shuffle=" << FormatDuration(shuffle_seconds)
      << " collect=" << FormatDuration(collect_seconds)
      << " bcast=" << FormatDuration(broadcast_seconds)
      << " sharedfs=" << FormatDuration(shared_fs_seconds)
      << " sched=" << FormatDuration(scheduling_seconds) << "]"
      << " stages=" << stages << " tasks=" << tasks
      << " volumes[shuffle=" << FormatBytes(shuffle_bytes)
      << " collect=" << FormatBytes(collect_bytes)
      << " bcast=" << FormatBytes(broadcast_bytes)
      << " sharedfs-w=" << FormatBytes(shared_fs_written_bytes)
      << " sharedfs-r=" << FormatBytes(shared_fs_read_bytes) << "]"
      << " spill-peak/node=" << FormatBytes(local_storage_peak_bytes)
      << " mem-peak[driver=" << FormatBytes(driver_peak_bytes)
      << " node=" << FormatBytes(node_peak_bytes) << "]";
  if (executor_failures > 0 || recomputed_tasks > 0 || job_restarts > 0) {
    out << " recovery[lost-nodes=" << executor_failures
        << " recomputed=" << recomputed_tasks << " retries=" << task_retries
        << " restarts=" << job_restarts << " redone="
        << FormatDuration(recovery_seconds) << "]";
  }
  return out.str();
}

void SimMetrics::Publish() const {
  auto gauge = [](const char* name, double value) {
    obs::Registry::Global().GetGauge(name).Set(value);
  };
  auto gauge_u = [&](const char* name, std::uint64_t value) {
    gauge(name, static_cast<double>(value));
  };
  gauge("sim_seconds", sim_seconds());
  gauge("sim_compute_seconds", compute_seconds);
  gauge("sim_shuffle_seconds", shuffle_seconds);
  gauge("sim_collect_seconds", collect_seconds);
  gauge("sim_broadcast_seconds", broadcast_seconds);
  gauge("sim_shared_fs_seconds", shared_fs_seconds);
  gauge("sim_scheduling_seconds", scheduling_seconds);
  gauge("sim_recovery_seconds", recovery_seconds);
  gauge_u("sim_shuffle_bytes", shuffle_bytes);
  gauge_u("sim_collect_bytes", collect_bytes);
  gauge_u("sim_broadcast_bytes", broadcast_bytes);
  gauge_u("sim_shared_fs_written_bytes", shared_fs_written_bytes);
  gauge_u("sim_shared_fs_read_bytes", shared_fs_read_bytes);
  gauge_u("sim_stages", stages);
  gauge_u("sim_tasks", tasks);
  gauge_u("sim_task_failures", task_failures);
  gauge_u("sim_task_retries", task_retries);
  gauge_u("sim_recomputed_tasks", recomputed_tasks);
  gauge_u("sim_executor_failures", executor_failures);
  gauge_u("sim_job_restarts", job_restarts);
  gauge_u("sim_local_storage_peak_bytes", local_storage_peak_bytes);
  gauge_u("sim_driver_peak_bytes", driver_peak_bytes);
  gauge_u("sim_node_peak_bytes", node_peak_bytes);
}

}  // namespace apspark::sparklet
