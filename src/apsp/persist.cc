#include "apsp/persist.h"

#include <utility>

#include "graph/path_reconstruction.h"

namespace apspark::apsp {

Status PersistSolve(const std::string& dir,
                    const linalg::DenseBlock& distances,
                    const graph::Graph* graph, bool directed,
                    linalg::SemiringId semiring,
                    const PersistOptions& options) {
  const std::int64_t n = distances.rows();
  if (n <= 0 || distances.cols() != n) {
    return InvalidArgumentError("PersistSolve needs a square n x n matrix");
  }
  if (distances.is_phantom()) {
    return FailedPreconditionError(
        "model runs carry no payload to persist; run on real data");
  }
  const bool with_paths = options.with_paths && graph != nullptr &&
                          semiring == linalg::SemiringId::kMinPlus;
  if (with_paths && graph->num_vertices() != n) {
    return InvalidArgumentError(
        "PersistSolve: graph and distance matrix sizes differ");
  }

  store::StoreManifest manifest;
  manifest.n = n;
  manifest.block_size = options.block_size;
  manifest.directed = directed;
  manifest.semiring = semiring;
  manifest.has_paths = with_paths;

  auto created = store::BlockStore::Create(dir, manifest,
                                           options.store_options);
  if (!created.ok()) return created.status();
  store::BlockStore& bs = **created;

  // Distance plane: the layout's canonical storage (upper triangle when
  // undirected, all q^2 blocks when directed).
  BlockLayout layout(n, options.block_size, directed);
  for (const auto& [key, block] : layout.Decompose(distances)) {
    auto status = bs.Put(store::Plane::kDistance, key.I, key.J, *block);
    if (!status.ok()) return status;
  }

  if (with_paths) {
    // Successors are not symmetric, so the next plane is always full q^2:
    // decompose through a directed layout regardless of graph orientation.
    linalg::DenseBlock next =
        graph::SuccessorsFromDistances(*graph, distances);
    BlockLayout next_layout(n, options.block_size, /*directed=*/true);
    for (const auto& [key, block] : next_layout.Decompose(next)) {
      auto status = bs.Put(store::Plane::kNext, key.I, key.J, *block);
      if (!status.ok()) return status;
    }
  }

  return bs.Seal();
}

}  // namespace apspark::apsp
