// Bridge from a completed solve to the disk-backed serving layer: takes the
// collected distance matrix of a real-data run, optionally derives a
// successor plane for path reconstruction, and writes both planes into a
// sealed store::BlockStore that store::DistanceService can answer queries
// from. Each plane is written in one pass over its matrix
// (BlockStore::PutMatrix), cut into the store's b x b windows.
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"
#include "linalg/kernel_registry.h"
#include "store/block_store.h"

namespace apspark::apsp {

struct PersistOptions {
  /// Decomposition parameter b of the persisted layout (need not match the
  /// solve's block size; the store re-blocks the collected matrix).
  std::int64_t block_size = 256;
  /// Derive and persist the successor plane. Requires the graph and only
  /// makes sense for min-plus solves; PersistSolve clears it otherwise.
  bool with_paths = true;
  store::BlockStore::Options store_options;
};

/// Writes `distances` (an n x n solved matrix) into `dir` as a sealed
/// block store. Undirected layouts persist the canonical upper triangle of
/// the distance plane; the successor plane — derived from `graph` via
/// graph::SuccessorsFromDistances — is always stored full q^2, because
/// successors are not symmetric. Pass graph = nullptr to skip paths (model
/// runs, or non-min-plus semirings where first-hop has no meaning).
Status PersistSolve(const std::string& dir,
                    const linalg::DenseBlock& distances,
                    const graph::Graph* graph, bool directed,
                    linalg::SemiringId semiring,
                    const PersistOptions& options = {});

}  // namespace apspark::apsp
