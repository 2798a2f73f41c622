// Weighted graph container.
//
// Vertices are dense integer indices [0, n) — the paper assumes "some initial
// pre-processing of the input graph has been performed, and each vertex is
// uniquely identified by an integer index" (§3). Undirected by default, with
// a directed mode matching the paper's note that the solvers adapt directly
// to digraphs by disregarding symmetry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/dense_block.h"

namespace apspark::graph {

using VertexId = std::int64_t;

struct Edge {
  VertexId u = 0;
  VertexId v = 0;
  double weight = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  explicit Graph(VertexId num_vertices, bool directed = false)
      : num_vertices_(num_vertices), directed_(directed) {}

  VertexId num_vertices() const noexcept { return num_vertices_; }
  std::size_t num_edges() const noexcept { return edges_.size(); }
  bool directed() const noexcept { return directed_; }
  const std::vector<Edge>& edges() const noexcept { return edges_; }

  /// Adds edge u->v (and implicitly v->u when undirected). Parallel edges are
  /// allowed; all consumers take the minimum weight.
  Status AddEdge(VertexId u, VertexId v, double weight);

  /// Dense adjacency matrix: 0 on the diagonal, edge weight where present,
  /// +inf elsewhere. Parallel edges collapse to the minimum weight.
  linalg::DenseBlock ToDenseAdjacency() const;

  /// Short human-readable summary for logs.
  std::string Summary() const;

 private:
  VertexId num_vertices_;
  bool directed_;
  std::vector<Edge> edges_;
};

}  // namespace apspark::graph
