#include "graph/io.h"

#include <fstream>
#include <sstream>

namespace apspark::graph {

void WriteEdgeListText(const Graph& g, std::ostream& out) {
  out << "# APSPark edge list\n";
  out << "apsp " << g.num_vertices() << " " << (g.directed() ? 1 : 0) << "\n";
  out.precision(17);
  for (const Edge& e : g.edges()) {
    out << e.u << " " << e.v << " " << e.weight << "\n";
  }
}

Result<Graph> ReadEdgeListText(std::istream& in) {
  std::string line;
  std::int64_t n = -1;
  bool directed = false;
  std::vector<Edge> edges;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    if (n < 0) {
      std::string tag;
      int directed_flag = 0;
      if (!(fields >> tag >> n >> directed_flag) || tag != "apsp" || n < 0) {
        return InvalidArgumentError("line " + std::to_string(line_no) +
                                    ": expected header 'apsp <n> <directed>'");
      }
      directed = directed_flag != 0;
      continue;
    }
    Edge e;
    if (!(fields >> e.u >> e.v >> e.weight)) {
      return InvalidArgumentError("line " + std::to_string(line_no) +
                                  ": expected '<u> <v> <weight>'");
    }
    edges.push_back(e);
  }
  if (n < 0) return InvalidArgumentError("missing 'apsp <n> <directed>' header");
  Graph g(n, directed);
  for (const Edge& e : edges) {
    Status status = g.AddEdge(e.u, e.v, e.weight);
    if (!status.ok()) return status;
  }
  return g;
}

Status WriteEdgeListTextFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return InternalError("cannot open for writing: " + path);
  WriteEdgeListText(g, out);
  return out ? Status::Ok() : InternalError("write failed: " + path);
}

Result<Graph> ReadEdgeListTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open: " + path);
  return ReadEdgeListText(in);
}

}  // namespace apspark::graph
