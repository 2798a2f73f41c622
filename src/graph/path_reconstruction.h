// Path reconstruction.
//
// The paper computes "length of all pairs shortest paths (i.e., no paths
// themselves)" (§3). This extension recovers the actual vertex sequences:
// Floyd-Warshall with a successor matrix, plus extraction of any (s, t)
// path. Successor (rather than predecessor) tracking composes naturally
// with the k-loop: next(i, j) is the first hop of the current best i->j
// path.
#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "linalg/dense_block.h"

namespace apspark::graph {

struct ApspWithPaths {
  linalg::DenseBlock distances;
  /// next(i, j) = first hop on a shortest i->j path; -1 if unreachable.
  std::vector<std::int64_t> next;
  std::int64_t n = 0;

  std::int64_t Next(VertexId i, VertexId j) const noexcept {
    return next[static_cast<std::size_t>(i * n + j)];
  }
};

/// Floyd-Warshall with successor tracking. O(n^3) time, O(n^2) extra space.
ApspWithPaths FloydWarshallWithPaths(const Graph& g);

/// The vertex sequence of a shortest s->t path (inclusive of endpoints),
/// or NOT_FOUND if t is unreachable from s.
Result<std::vector<VertexId>> ExtractPath(const ApspWithPaths& apsp,
                                          VertexId s, VertexId t);

/// Derives a full successor matrix from an already-solved distance matrix:
/// next(i, j) = the neighbor k of i minimizing w(i, k) + dist(k, j)
/// (smallest k on ties), which is the first hop of a shortest i->j path.
/// With positive weights the chain strictly decreases remaining distance,
/// so walking it terminates at j. A zero-weight edge keeps the remaining
/// distance, so when the graph has one a second pass breaks ties across
/// such edges by hop count toward j (a per-target BFS), which keeps every
/// walk finite; positive-weight graphs skip that pass and keep the
/// smallest-k plane byte for byte. Entries are stored as doubles in an
/// n x n DenseBlock (-1 where j is unreachable, i on the diagonal) so the
/// plane persists through the same serialization as distances. O(n * m).
///
/// This is how the serving layer gets paths out of the blocked solvers,
/// which compute lengths only (the paper solves "no paths themselves") —
/// no O(n^3) re-solve with tracking is needed.
linalg::DenseBlock SuccessorsFromDistances(const Graph& g,
                                           const linalg::DenseBlock& dist);

/// Walks a successor lookup from s to t. `next_of(i, t)` returns the first
/// hop of a shortest i->t path, or -1 when unreachable — backed by anything
/// from an in-memory ApspWithPaths to block-resident store fetches.
Result<std::vector<VertexId>> ExtractPathWithLookup(
    std::int64_t n, VertexId s, VertexId t,
    const std::function<std::int64_t(VertexId, VertexId)>& next_of);

}  // namespace apspark::graph
