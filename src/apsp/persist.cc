#include "apsp/persist.h"

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
  // Checked before the store exists, so a rejected call leaves no files.
  if (with_paths && distances.is_packed()) {
    return InvalidArgumentError(
        "PersistSolve: successors need a dense distance matrix, not a "
        "bit-packed one");
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

  // The successor plane and the distance plane's write are independent, so
  // they run side by side on the kernel pool when each is worth a task: one
  // unit of host work per relaxation, 16 per persisted element (as the
  // store's encoder counts).
  Status status;
  linalg::DenseBlock next;
  const std::int64_t relaxations =
      with_paths ? (2 * std::ssize(graph->edges()) + n) * n : 0;
  linalg::ForEachByHostWork({relaxations, 16 * n * n}, [&](std::size_t unit) {
    if (unit == 1) {
      status = bs.PutMatrix(store::Plane::kDistance, distances);
    } else if (with_paths) {
      next = graph::SuccessorsFromDistances(*graph, distances);
    }
  });
  if (status.ok() && with_paths) {
    status = bs.PutMatrix(store::Plane::kNext, next);
  }
  return status.ok() ? bs.Seal() : status;
}

}  // namespace apspark::apsp
