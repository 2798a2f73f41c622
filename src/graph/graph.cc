#include "graph/graph.h"

#include <cmath>
#include <sstream>

namespace apspark::graph {

Status Graph::AddEdge(VertexId u, VertexId v, double weight) {
  if (u < 0 || u >= num_vertices_ || v < 0 || v >= num_vertices_) {
    return InvalidArgumentError("edge endpoint out of range");
  }
  if (std::isnan(weight)) {
    return InvalidArgumentError("edge weight is NaN");
  }
  edges_.push_back({u, v, weight});
  return Status::Ok();
}

linalg::DenseBlock Graph::ToDenseAdjacency() const {
  linalg::DenseBlock a(num_vertices_, num_vertices_, linalg::kInf);
  for (VertexId i = 0; i < num_vertices_; ++i) a.Set(i, i, 0.0);
  for (const Edge& e : edges_) {
    if (e.weight < a.At(e.u, e.v)) {
      a.Set(e.u, e.v, e.weight);
      if (!directed_) a.Set(e.v, e.u, e.weight);
    }
  }
  return a;
}

std::string Graph::Summary() const {
  std::ostringstream out;
  out << (directed_ ? "directed" : "undirected") << " graph, n="
      << num_vertices_ << ", m=" << edges_.size();
  return out.str();
}

}  // namespace apspark::graph
