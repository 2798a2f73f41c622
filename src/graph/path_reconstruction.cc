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

namespace {

using Adjacency = std::vector<std::vector<std::pair<VertexId, double>>>;

/// Re-picks the successors toward every target so no walk can cycle across
/// zero-weight edges. A tight edge (u, k) — w + dist(k, t) equal to u's best
/// — that lowers the remaining distance always makes progress; a tight edge
/// that keeps it (weight 0) only may, so the smallest-k rule can pick two
/// such edges that point at each other. Per target t: a BFS backwards over
/// those no-progress tight edges, from t and from every vertex with a
/// progress edge, gives each vertex its hop count to an exit, and a vertex
/// may take a no-progress edge only toward a smaller hop count. Among the
/// admissible tight edges the smallest k still wins, so where no
/// no-progress edge is tight the choice is the one the first pass made.
void BreakZeroWeightTies(const Adjacency& adj, const linalg::DenseBlock& dist,
                         linalg::DenseBlock& next) {
  const std::int64_t n = dist.rows();
  Adjacency radj(static_cast<std::size_t>(n));
  std::int64_t m = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (const auto& [k, w] : adj[static_cast<std::size_t>(u)]) {
      radj[static_cast<std::size_t>(k)].emplace_back(u, w);
      ++m;
    }
  }
  // Row t of the transpose is dist(., t), read contiguously per target.
  const linalg::DenseBlock dist_t = dist.Transposed();
  std::vector<std::int64_t> work(static_cast<std::size_t>(n), 2 * m + n);
  linalg::ForEachByHostWork(work, [&](std::size_t col) {
    const auto t = static_cast<VertexId>(col);
    const double* dt = dist_t.Row(t);
    const auto uz = static_cast<std::size_t>(n);
    std::vector<double> best(uz, std::numeric_limits<double>::infinity());
    for (std::size_t u = 0; u < uz; ++u) {
      for (const auto& [k, w] : adj[u]) best[u] = std::min(best[u], w + dt[k]);
    }
    // level[u] = hops from u to an exit over no-progress tight edges; -1
    // when unreached.
    std::vector<std::int64_t> level(uz, -1);
    std::vector<VertexId> queue{t};
    level[col] = 0;
    for (std::size_t u = 0; u < uz; ++u) {
      if (u == col || std::isinf(best[u])) continue;
      for (const auto& [k, w] : adj[u]) {
        if (w + dt[k] == best[u] && dt[k] < best[u]) {
          level[u] = 0;
          queue.push_back(static_cast<VertexId>(u));
          break;
        }
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId k = queue[head];
      for (const auto& [u, w] : radj[static_cast<std::size_t>(k)]) {
        const auto ui = static_cast<std::size_t>(u);
        if (level[ui] < 0 && w + dt[k] == best[ui] && dt[k] == best[ui]) {
          level[ui] = level[static_cast<std::size_t>(k)] + 1;
          queue.push_back(u);
        }
      }
    }
    for (std::size_t u = 0; u < uz; ++u) {
      // Unreached vertices (possible only through rounding) keep the first
      // pass's choice.
      if (u == col || level[u] < 0) continue;
      VertexId hop = -1;
      for (const auto& [k, w] : adj[u]) {
        if (w + dt[k] != best[u]) continue;
        const std::int64_t lk = level[static_cast<std::size_t>(k)];
        const bool admissible =
            dt[k] < best[u] || (lk >= 0 && lk < level[u]);
        if (admissible && (hop < 0 || k < hop)) hop = k;
      }
      next.MutableRow(static_cast<std::int64_t>(u))[t] =
          static_cast<double>(hop);
    }
  });
}

}  // namespace

linalg::DenseBlock SuccessorsFromDistances(const Graph& g,
                                           const linalg::DenseBlock& dist) {
  const std::int64_t n = g.num_vertices();
  if (dist.rows() != n || dist.cols() != n || dist.is_phantom() ||
      dist.is_packed()) {
    throw std::invalid_argument(
        "SuccessorsFromDistances: needs the dense n x n distance matrix");
  }
  // Per-vertex out-neighbor list from the edge list, sorted by neighbor:
  // sweeping k in ascending order, the first k to reach a minimum is the
  // smallest, so a strict `via < best` keeps the smallest-k tie-break.
  // Parallel edges stay; the argmin selects the cheapest copy.
  Adjacency adj(static_cast<std::size_t>(n));
  bool zero_weight = false;
  for (const Edge& e : g.edges()) {
    zero_weight = zero_weight || e.weight == 0.0;
    adj[static_cast<std::size_t>(e.u)].emplace_back(e.v, e.weight);
    if (!g.directed()) {
      adj[static_cast<std::size_t>(e.v)].emplace_back(e.u, e.weight);
    }
  }
  for (auto& neighbors : adj) std::sort(neighbors.begin(), neighbors.end());
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
    // Sweeping neighbors in the outer loop reads dist(k, .) row-wise; the
    // select form of the update lets the compiler vectorize over j.
    for (const auto& [k, w] : adj[row]) {
      const double* dk = dist.Row(k);
      const double kd = static_cast<double>(k);
      for (std::int64_t j = 0; j < n; ++j) {
        const double via = w + dk[j];
        double& b = best[static_cast<std::size_t>(j)];
        const bool better = via < b;
        b = better ? via : b;
        hop[j] = better ? kd : hop[j];
      }
    }
    hop[i] = static_cast<double>(i);
  });
  if (zero_weight) BreakZeroWeightTies(adj, dist, next);
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
