// Graph persistence: a line-oriented text edge-list format (easy to produce
// from any tool), so the library can be used on real datasets, not just
// synthetic generators.
//
// Text format:
//   # comments and blank lines ignored
//   apsp <n> <directed:0|1>
//   <u> <v> <weight>
//   ...
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace apspark::graph {

/// Writes / parses the text format.
void WriteEdgeListText(const Graph& g, std::ostream& out);
Result<Graph> ReadEdgeListText(std::istream& in);

Status WriteEdgeListTextFile(const Graph& g, const std::string& path);
Result<Graph> ReadEdgeListTextFile(const std::string& path);

}  // namespace apspark::graph
