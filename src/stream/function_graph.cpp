#include "stream/function_graph.h"

#include <algorithm>
#include <sstream>

#include "util/small_vec.h"

namespace acp::stream {

FnNodeIndex FunctionGraph::add_node(FunctionId f, const ResourceVector& required) {
  nodes_.push_back(FnNode{f, required});
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<FnNodeIndex>(nodes_.size() - 1);
}

FnEdgeIndex FunctionGraph::add_edge(FnNodeIndex from, FnNodeIndex to, double bandwidth_kbps) {
  ACP_REQUIRE(from < nodes_.size() && to < nodes_.size());
  ACP_REQUIRE(from != to);
  ACP_REQUIRE(bandwidth_kbps >= 0.0);
  const FnEdgeIndex e = static_cast<FnEdgeIndex>(edges_.size());
  edges_.push_back(FnEdge{from, to, bandwidth_kbps});
  out_[from].push_back(e);
  in_[to].push_back(e);
  return e;
}

const FnNode& FunctionGraph::node(FnNodeIndex i) const {
  ACP_REQUIRE(i < nodes_.size());
  return nodes_[i];
}

FnNode& FunctionGraph::node(FnNodeIndex i) {
  ACP_REQUIRE(i < nodes_.size());
  return nodes_[i];
}

const FnEdge& FunctionGraph::edge(FnEdgeIndex i) const {
  ACP_REQUIRE(i < edges_.size());
  return edges_[i];
}

const std::vector<FnEdgeIndex>& FunctionGraph::out_edges(FnNodeIndex i) const {
  ACP_REQUIRE(i < out_.size());
  return out_[i];
}

const std::vector<FnEdgeIndex>& FunctionGraph::in_edges(FnNodeIndex i) const {
  ACP_REQUIRE(i < in_.size());
  return in_[i];
}

std::vector<FnNodeIndex> FunctionGraph::successors(FnNodeIndex i) const {
  std::vector<FnNodeIndex> out;
  for (FnEdgeIndex e : out_edges(i)) out.push_back(edges_[e].to);
  return out;
}

std::vector<FnNodeIndex> FunctionGraph::sources() const {
  std::vector<FnNodeIndex> out;
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    if (in_[i].empty()) out.push_back(i);
  }
  return out;
}

std::vector<FnNodeIndex> FunctionGraph::sinks() const {
  std::vector<FnNodeIndex> out;
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    if (out_[i].empty()) out.push_back(i);
  }
  return out;
}

bool FunctionGraph::is_path() const {
  if (nodes_.empty()) return false;
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    if (out_[i].size() > 1 || in_[i].size() > 1) return false;
  }
  return sources().size() == 1 && sinks().size() == 1;
}

bool FunctionGraph::is_dag() const {
  // Kahn's algorithm: all nodes removable iff acyclic. Template-sized
  // graphs keep both work lists inline.
  util::SmallVec<std::size_t, 16> indeg;
  indeg.resize(nodes_.size());
  util::SmallVec<FnNodeIndex, 16> stack;
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    indeg[i] = in_[i].size();
    if (indeg[i] == 0) stack.push_back(i);
  }
  std::size_t removed = 0;
  while (!stack.empty()) {
    const FnNodeIndex n = stack.back();
    stack.pop_back();
    ++removed;
    for (FnEdgeIndex e : out_[n]) {
      if (--indeg[edges_[e].to] == 0) stack.push_back(edges_[e].to);
    }
  }
  return removed == nodes_.size();
}

std::vector<FnNodeIndex> FunctionGraph::topological_order() const {
  ACP_REQUIRE_MSG(is_dag(), "topological order requires a DAG");
  std::vector<std::size_t> indeg(nodes_.size());
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) indeg[i] = in_[i].size();
  std::vector<FnNodeIndex> order, stack;
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    if (indeg[i] == 0) stack.push_back(i);
  }
  while (!stack.empty()) {
    const FnNodeIndex n = stack.back();
    stack.pop_back();
    order.push_back(n);
    for (FnEdgeIndex e : out_[n]) {
      if (--indeg[edges_[e].to] == 0) stack.push_back(edges_[e].to);
    }
  }
  return order;
}

std::vector<std::vector<FnNodeIndex>> FunctionGraph::enumerate_paths(std::size_t max_paths) const {
  ACP_REQUIRE_MSG(is_dag(), "path enumeration requires a DAG");
  // Count first, so the result is allocated once: paths from `n` to a sink,
  // giving up (returning at most limit + 1) once `limit` is exceeded.
  const auto count_from = [this](const auto& self, FnNodeIndex n, std::size_t limit) {
    if (out_[n].empty()) return std::size_t{1};
    std::size_t total = 0;
    for (FnEdgeIndex e : out_[n]) {
      total += self(self, edges_[e].to, limit - total);
      if (total > limit) break;
    }
    return total;
  };
  std::size_t count = 0;
  for (FnNodeIndex s = 0; s < nodes_.size(); ++s) {
    if (!in_[s].empty()) continue;
    count += count_from(count_from, s, max_paths - count);
    ACP_REQUIRE_MSG(count <= max_paths, "function graph has too many source-sink paths");
  }

  // Depth-first from each source in ascending order, out-edges in insertion
  // order.
  std::vector<std::vector<FnNodeIndex>> paths;
  paths.reserve(count);
  util::SmallVec<FnNodeIndex, 16> current;
  const auto walk = [&](const auto& self, FnNodeIndex n) -> void {
    current.push_back(n);
    if (out_[n].empty()) {
      paths.emplace_back(current.begin(), current.end());
    } else {
      for (FnEdgeIndex e : out_[n]) self(self, edges_[e].to);
    }
    current.pop_back();
  };
  for (FnNodeIndex s = 0; s < nodes_.size(); ++s) {
    if (in_[s].empty()) walk(walk, s);
  }
  return paths;
}

FnEdgeIndex FunctionGraph::find_edge(FnNodeIndex from, FnNodeIndex to) const {
  ACP_REQUIRE(from < nodes_.size() && to < nodes_.size());
  for (FnEdgeIndex e : out_[from]) {
    if (edges_[e].to == to) return e;
  }
  throw PreconditionError("no such function-graph edge");
}

ResourceVector FunctionGraph::total_node_demand() const {
  ResourceVector total;
  for (const auto& n : nodes_) total += n.required;
  return total;
}

std::string FunctionGraph::to_string(const FunctionCatalog& catalog) const {
  std::ostringstream os;
  os << "FunctionGraph{" << nodes_.size() << " nodes: ";
  for (FnNodeIndex i = 0; i < nodes_.size(); ++i) {
    if (i) os << ", ";
    os << i << "=" << catalog.spec(nodes_[i].function).name;
  }
  os << "; edges: ";
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (e) os << ", ";
    os << edges_[e].from << "->" << edges_[e].to;
  }
  os << "}";
  return os.str();
}

}  // namespace acp::stream
