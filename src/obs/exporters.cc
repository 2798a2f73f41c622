#include "obs/exporters.h"

namespace apspark::obs {

void ExportSimMetrics(const sparklet::SimMetrics& m) {
  auto gauge = [](const char* name, double value) {
    Registry::Global().GetGauge(name).Set(value);
  };
  auto gauge_u = [&](const char* name, std::uint64_t value) {
    gauge(name, static_cast<double>(value));
  };
  gauge("sim_seconds", m.sim_seconds());
  gauge("sim_compute_seconds", m.compute_seconds);
  gauge("sim_shuffle_seconds", m.shuffle_seconds);
  gauge("sim_collect_seconds", m.collect_seconds);
  gauge("sim_broadcast_seconds", m.broadcast_seconds);
  gauge("sim_shared_fs_seconds", m.shared_fs_seconds);
  gauge("sim_scheduling_seconds", m.scheduling_seconds);
  gauge("sim_rebalance_seconds", m.rebalance_seconds);
  gauge("sim_recovery_seconds", m.recovery_seconds);
  gauge("sim_admission_wait_seconds", m.admission_wait_seconds);
  gauge_u("sim_shuffle_bytes", m.shuffle_bytes);
  gauge_u("sim_collect_bytes", m.collect_bytes);
  gauge_u("sim_broadcast_bytes", m.broadcast_bytes);
  gauge_u("sim_shared_fs_written_bytes", m.shared_fs_written_bytes);
  gauge_u("sim_shared_fs_read_bytes", m.shared_fs_read_bytes);
  gauge_u("sim_spilled_bytes", m.spilled_bytes);
  gauge_u("sim_migration_bytes", m.migration_bytes);
  gauge_u("sim_stages", m.stages);
  gauge_u("sim_tasks", m.tasks);
  gauge_u("sim_task_failures", m.task_failures);
  gauge_u("sim_task_retries", m.task_retries);
  gauge_u("sim_recomputed_tasks", m.recomputed_tasks);
  gauge_u("sim_executor_failures", m.executor_failures);
  gauge_u("sim_job_restarts", m.job_restarts);
  gauge_u("sim_speculative_tasks", m.speculative_tasks);
  gauge_u("sim_migrated_partitions", m.migrated_partitions);
  gauge_u("sim_node_joins", m.node_joins);
  gauge_u("sim_local_storage_peak_bytes", m.local_storage_peak_bytes);
  gauge_u("sim_driver_peak_bytes", m.driver_peak_bytes);
  gauge_u("sim_node_peak_bytes", m.node_peak_bytes);
}

void ExportStoreStats(const store::BlockStore::Stats& s) {
  auto gauge = [](const char* name, std::uint64_t value) {
    Registry::Global().GetGauge(name).Set(static_cast<double>(value));
  };
  gauge("store_cache_hits", s.hits);
  gauge("store_cache_misses", s.misses);
  gauge("store_cache_evictions", s.evictions);
  gauge("store_bytes_loaded", s.bytes_loaded);
  gauge("store_resident_bytes", s.resident_bytes);
  gauge("store_peak_resident_bytes", s.peak_resident_bytes);
}

}  // namespace apspark::obs
