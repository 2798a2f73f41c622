#include "graph/path_reconstruction.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/kernel_registry.h"

namespace apspark::graph {

ApspWithPaths FloydWarshallWithPaths(const Graph& g) {
  const std::int64_t n = g.num_vertices();
  ApspWithPaths out{g.ToDenseAdjacency(),
                    std::vector<std::int64_t>(
                        static_cast<std::size_t>(n * n), -1),
                    n};
  auto& d = out.distances;
  auto& next = out.next;
  // Direct edges: the first hop is the destination itself.
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i != j && !std::isinf(d.At(i, j))) {
        next[static_cast<std::size_t>(i * n + j)] = j;
      }
    }
    next[static_cast<std::size_t>(i * n + i)] = i;
  }
  for (std::int64_t k = 0; k < n; ++k) {
    for (std::int64_t i = 0; i < n; ++i) {
      const double dik = d.At(i, k);
      if (std::isinf(dik)) continue;
      for (std::int64_t j = 0; j < n; ++j) {
        const double via = dik + d.At(k, j);
        if (via < d.At(i, j)) {
          d.Set(i, j, via);
          next[static_cast<std::size_t>(i * n + j)] =
              next[static_cast<std::size_t>(i * n + k)];
        }
      }
    }
  }
  return out;
}

Result<std::vector<VertexId>> ExtractPath(const ApspWithPaths& apsp,
                                          VertexId s, VertexId t) {
  return ExtractPathWithLookup(
      apsp.n, s, t,
      [&apsp](VertexId i, VertexId target) { return apsp.Next(i, target); });
}

linalg::DenseBlock SuccessorsFromDistances(const Graph& g,
                                           const linalg::DenseBlock& dist) {
  const std::int64_t n = g.num_vertices();
  if (dist.rows() != n || dist.cols() != n || dist.is_phantom() ||
      dist.is_packed()) {
    throw std::invalid_argument(
        "SuccessorsFromDistances: needs the dense n x n distance matrix");
  }
  // Per-vertex out-neighbor list from the edge list; parallel edges stay as
  // written — the argmin naturally selects the cheapest copy.
  std::vector<std::vector<std::pair<VertexId, double>>> adj(
      static_cast<std::size_t>(n));
  for (const Edge& e : g.edges()) {
    adj[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.weight);
    if (!g.directed()) {
      adj[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.weight);
    }
  }
  // Rows are independent (row i reads dist and writes only next row i), so
  // they fan out on the kernel pool, grouped by their relaxation count.
  std::vector<std::int64_t> work(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    work[static_cast<std::size_t>(i)] =
        (static_cast<std::int64_t>(adj[static_cast<std::size_t>(i)].size()) +
         1) *
        n;
  }
  linalg::DenseBlock next(n, n);
  linalg::ForEachByHostWork(work, [&](std::size_t row) {
    const auto i = static_cast<std::int64_t>(row);
    // Per-row scratch: best holds the current minimum, and the hop is
    // written straight into next's row i.
    std::vector<double> best(static_cast<std::size_t>(n),
                             std::numeric_limits<double>::infinity());
    double* hop = next.MutableRow(i);
    std::fill(hop, hop + n, -1.0);
    // Sweeping neighbors in the outer loop reads dist(k, .) row-wise.
    for (const auto& [k, w] : adj[row]) {
      const double* dk = dist.Row(k);
      const double kd = static_cast<double>(k);
      for (std::int64_t j = 0; j < n; ++j) {
        const double via = w + dk[j];
        double& b = best[static_cast<std::size_t>(j)];
        double& h = hop[j];
        if (via < b || (via == b && h >= 0 && kd < h)) {
          b = via;
          h = kd;
        }
      }
    }
    hop[i] = static_cast<double>(i);
  });
  return next;
}

Result<std::vector<VertexId>> ExtractPathWithLookup(
    std::int64_t n, VertexId s, VertexId t,
    const std::function<std::int64_t(VertexId, VertexId)>& next_of) {
  if (s < 0 || t < 0 || s >= n || t >= n) {
    return InvalidArgumentError("path endpoints out of range");
  }
  if (next_of(s, t) < 0) {
    return NotFoundError("no path from " + std::to_string(s) + " to " +
                         std::to_string(t));
  }
  std::vector<VertexId> path{s};
  VertexId at = s;
  while (at != t) {
    at = next_of(at, t);
    if (at < 0 || at >= n) {
      return InternalError("successor walk left the vertex range");
    }
    path.push_back(at);
    if (static_cast<std::int64_t>(path.size()) > n) {
      return InternalError("successor cycle during path extraction");
    }
  }
  return path;
}

}  // namespace apspark::graph
