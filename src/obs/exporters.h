// Bridges from the repo's ad-hoc metric structs into the typed registry.
//
// The registry itself depends only on std; these adapters know the
// subsystem structs (SimMetrics, BlockStore::Stats) and publish them as
// named gauges so one `--metrics-out` scrape covers the whole process:
// simulation cost categories + volumes, accountant peaks, store cache
// state, the live kernel-invocation counters, and the serve histograms.
//
// Exports are snapshot-style: call immediately before rendering
// (Registry::ToJson / ToPrometheus); repeated calls overwrite the gauges.
#pragma once

#include "obs/metrics_registry.h"
#include "sparklet/metrics.h"
#include "store/block_store.h"

namespace apspark::obs {

/// Publishes every SimMetrics field (cost-category seconds, byte volumes,
/// stage/task/fault counters, accountant peaks) as `sim_*` gauges in the
/// global registry.
void ExportSimMetrics(const sparklet::SimMetrics& m);

/// Publishes a BlockStore cache snapshot as `store_*` gauges in the global
/// registry.
void ExportStoreStats(const store::BlockStore::Stats& s);

}  // namespace apspark::obs
