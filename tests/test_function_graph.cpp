// Tests for the function catalog and function graphs.
#include <gtest/gtest.h>

#include <set>

#include "stream/function.h"
#include "stream/function_graph.h"

namespace acp::stream {
namespace {

TEST(FunctionCatalog, GeneratesRequestedCount) {
  util::Rng rng(1);
  const auto cat = FunctionCatalog::generate(80, rng);
  EXPECT_EQ(cat.size(), 80u);
  EXPECT_THROW(cat.spec(80), acp::PreconditionError);
}

TEST(FunctionCatalog, EveryFormatHasAcceptors) {
  util::Rng rng(2);
  const auto cat = FunctionCatalog::generate(80, rng);
  for (FormatId f = 0; f < cat.format_count(); ++f) {
    EXPECT_FALSE(cat.functions_accepting(f).empty()) << "format " << f;
  }
}

TEST(FunctionCatalog, CompatibilityMatchesFormats) {
  util::Rng rng(3);
  const auto cat = FunctionCatalog::generate(40, rng);
  for (FunctionId a = 0; a < 10; ++a) {
    for (FunctionId b = 0; b < cat.size(); ++b) {
      EXPECT_EQ(cat.compatible(a, b),
                cat.spec(a).output_format == cat.spec(b).input_format);
    }
  }
}

TEST(FunctionCatalog, NamesAreUniqueAndDescriptive) {
  util::Rng rng(4);
  const auto cat = FunctionCatalog::generate(30, rng);
  std::set<std::string> names;
  for (FunctionId f = 0; f < cat.size(); ++f) names.insert(cat.spec(f).name);
  EXPECT_EQ(names.size(), 30u);
}

// ---- FunctionGraph ----------------------------------------------------------

FunctionGraph linear_graph(std::size_t n) {
  FunctionGraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node(static_cast<FunctionId>(i), ResourceVector(1.0, 10.0));
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_edge(static_cast<FnNodeIndex>(i), static_cast<FnNodeIndex>(i + 1), 100.0);
  }
  return g;
}

// The paper's Fig 1(b)/Fig 2 shape: split at node 0, merge at node 3.
FunctionGraph diamond_graph() {
  FunctionGraph g;
  for (int i = 0; i < 4; ++i) g.add_node(static_cast<FunctionId>(i), ResourceVector(1.0, 10.0));
  g.add_edge(0, 1, 100.0);
  g.add_edge(1, 3, 100.0);
  g.add_edge(0, 2, 100.0);
  g.add_edge(2, 3, 100.0);
  return g;
}

TEST(FunctionGraph, PathProperties) {
  const auto g = linear_graph(4);
  EXPECT_TRUE(g.is_path());
  EXPECT_TRUE(g.is_dag());
  EXPECT_EQ(g.sources(), (std::vector<FnNodeIndex>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<FnNodeIndex>{3}));
  EXPECT_EQ(g.successors(1), (std::vector<FnNodeIndex>{2}));
}

TEST(FunctionGraph, DagProperties) {
  const auto g = diamond_graph();
  EXPECT_FALSE(g.is_path());
  EXPECT_TRUE(g.is_dag());
  const auto paths = g.enumerate_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<FnNodeIndex>{0, 1, 3}));
  EXPECT_EQ(paths[1], (std::vector<FnNodeIndex>{0, 2, 3}));
}

TEST(FunctionGraph, TopologicalOrderRespectsEdges) {
  const auto g = diamond_graph();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (FnEdgeIndex e = 0; e < g.edge_count(); ++e) {
    EXPECT_LT(pos[g.edge(e).from], pos[g.edge(e).to]);
  }
}

TEST(FunctionGraph, CycleDetection) {
  FunctionGraph g;
  g.add_node(0, {});
  g.add_node(1, {});
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 1.0);
  EXPECT_FALSE(g.is_dag());
  EXPECT_THROW(g.topological_order(), acp::PreconditionError);
  EXPECT_THROW(g.enumerate_paths(), acp::PreconditionError);
}

TEST(FunctionGraph, FindEdge) {
  const auto g = diamond_graph();
  EXPECT_EQ(g.edge(g.find_edge(0, 1)).to, 1u);
  EXPECT_THROW(g.find_edge(1, 0), acp::PreconditionError);
  EXPECT_THROW(g.find_edge(1, 2), acp::PreconditionError);
}

TEST(FunctionGraph, RejectsSelfEdgeAndBadIndices) {
  FunctionGraph g;
  g.add_node(0, {});
  EXPECT_THROW(g.add_edge(0, 0, 1.0), acp::PreconditionError);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), acp::PreconditionError);
}

TEST(FunctionGraph, TotalNodeDemand) {
  const auto g = linear_graph(3);
  const auto total = g.total_node_demand();
  EXPECT_DOUBLE_EQ(total.cpu(), 3.0);
  EXPECT_DOUBLE_EQ(total.memory_mb(), 30.0);
}

TEST(FunctionGraph, PathEnumerationCapIsEnforced) {
  // A ladder of diamonds has exponentially many paths.
  FunctionGraph g;
  const int kDiamonds = 8;  // 2^8 = 256 paths > 64 default cap
  FnNodeIndex prev = g.add_node(0, {});
  for (int d = 0; d < kDiamonds; ++d) {
    const auto a = g.add_node(1, {});
    const auto b = g.add_node(2, {});
    const auto join = g.add_node(3, {});
    g.add_edge(prev, a, 1.0);
    g.add_edge(prev, b, 1.0);
    g.add_edge(a, join, 1.0);
    g.add_edge(b, join, 1.0);
    prev = join;
  }
  EXPECT_THROW(g.enumerate_paths(), acp::PreconditionError);
  EXPECT_THROW(g.enumerate_paths(255), acp::PreconditionError);
  const auto paths = g.enumerate_paths(256);
  ASSERT_EQ(paths.size(), 256u);
  EXPECT_EQ(g.enumerate_paths(1024), paths);
  // Depth-first, out-edges in insertion order: the first path takes every
  // diamond's first arm (node 1 + 3d), the last every second arm (2 + 3d).
  std::vector<FnNodeIndex> first{0}, last{0};
  for (FnNodeIndex d = 0; d < kDiamonds; ++d) {
    first.insert(first.end(), {1 + 3 * d, 3 + 3 * d});
    last.insert(last.end(), {2 + 3 * d, 3 + 3 * d});
  }
  EXPECT_EQ(paths.front(), first);
  EXPECT_EQ(paths.back(), last);
  // Path 1 differs from path 0 only in the last diamond.
  std::vector<FnNodeIndex> second = first;
  second[second.size() - 2] = 2 + 3 * (kDiamonds - 1);
  EXPECT_EQ(paths[1], second);
}

TEST(FunctionGraph, PathEnumerationVisitsSourcesInAscendingOrder) {
  // Two sources feeding one sink; the higher-numbered source is added first
  // as an edge, but enumeration starts from the lowest source index.
  FunctionGraph g;
  const auto sink = g.add_node(0, {});
  const auto s1 = g.add_node(1, {});
  const auto s2 = g.add_node(2, {});
  g.add_edge(s2, sink, 1.0);
  g.add_edge(s1, sink, 1.0);
  const auto paths = g.enumerate_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (std::vector<FnNodeIndex>{s1, sink}));
  EXPECT_EQ(paths[1], (std::vector<FnNodeIndex>{s2, sink}));
}

TEST(FunctionGraph, SingleNodeGraphHasOnePath) {
  FunctionGraph g;
  g.add_node(7, {});
  const auto paths = g.enumerate_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], (std::vector<FnNodeIndex>{0}));
  EXPECT_TRUE(g.is_path());
}

}  // namespace
}  // namespace acp::stream
