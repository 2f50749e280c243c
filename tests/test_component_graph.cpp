// Tests for ComponentGraph and CompositionEvaluator: Eq. 1 (φ), Eq. 2–5
// constraint checks, co-location rules (paper footnotes 4, 5, 8).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "net/topology.h"
#include "stream/component_graph.h"
#include "test_helpers.h"

namespace acp::stream {
namespace {

struct CgFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 150;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 8;
    oc.min_loss_rate = 0.0;
    oc.max_loss_rate = 0.0;  // loss-free links keep hand computations simple
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<StreamSystem>(*mesh, FunctionCatalog::generate(6, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    // A compatible chain hosted on nodes 0..2, plus a co-located spare.
    chain = acp::testing::compatible_chain(sys->catalog(), 3);
    c0 = sys->add_component(chain[0], 0, QoSVector::from_metrics(10.0, 0.0));
    c1 = sys->add_component(chain[1], 1, QoSVector::from_metrics(10.0, 0.0));
    c2 = sys->add_component(chain[2], 2, QoSVector::from_metrics(10.0, 0.0));
    c1_on_node0 = sys->add_component(chain[1], 0, QoSVector::from_metrics(10.0, 0.0));

    // Request: the chain, each fn needing (10 cpu, 100 MB), 100 kbps links.
    fg.add_node(chain[0], ResourceVector(10.0, 100.0));
    fg.add_node(chain[1], ResourceVector(10.0, 100.0));
    fg.add_node(chain[2], ResourceVector(10.0, 100.0));
    fg.add_edge(0, 1, 100.0);
    fg.add_edge(1, 2, 100.0);
  }

  QoSVector loose_req() const { return QoSVector::from_metrics(10000.0, 0.5); }

  /// φ(λ) against the ground truth, or nullopt when Eqs. 4–5 fail.
  std::optional<double> phi(const ComponentGraph& g) {
    return CompositionEvaluator(*sys).phi(fg, g.assignment(), sys->true_state(), 0.0);
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
  FunctionGraph fg;
  ComponentId c0{}, c1{}, c2{}, c1_on_node0{};
  std::vector<FunctionId> chain;
};

TEST_F(CgFixture, AssignmentLifecycle) {
  ComponentGraph g(fg);
  EXPECT_FALSE(g.fully_assigned());
  g.assign(0, c0);
  EXPECT_TRUE(g.is_assigned(0));
  EXPECT_FALSE(g.is_assigned(1));
  EXPECT_THROW(g.component_at(1), acp::PreconditionError);
  g.assign(1, c1);
  g.assign(2, c2);
  EXPECT_TRUE(g.fully_assigned());
  EXPECT_EQ(g.components().size(), 3u);
}

TEST_F(CgFixture, FunctionsMatchDetectsWrongComponent) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c1);  // wrong: c1 provides fn 1, slot needs fn 2
  EXPECT_FALSE(g.functions_match(*sys));
  g.assign(2, c2);
  EXPECT_TRUE(g.functions_match(*sys));
}

TEST_F(CgFixture, PathQosSumsComponentsAndLinks) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  const auto paths = fg.enumerate_paths();
  ASSERT_EQ(paths.size(), 1u);
  const auto q = g.path_qos(*sys, paths[0]);
  const double expected_delay =
      30.0 + mesh->virtual_link_delay(0, 1) + mesh->virtual_link_delay(1, 2);
  EXPECT_NEAR(q.delay_ms(), expected_delay, 1e-9);
  EXPECT_NEAR(q.loss_probability(), 0.0, 1e-12);
}

TEST_F(CgFixture, SatisfiesQosAgainstTightBound) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  CompositionEvaluator eval(*sys);
  const auto paths = fg.enumerate_paths();
  const PolicyConstraint any;
  EXPECT_TRUE(eval.evaluate(g, paths, loose_req(), any, sys->true_state(), 0.0).has_value());
  EXPECT_FALSE(eval.evaluate(g, paths, QoSVector::from_metrics(29.0, 0.5), any,
                             sys->true_state(), 0.0)
                   .has_value());
}

TEST_F(CgFixture, DemandAggregatesOnSharedNode) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1_on_node0);  // co-located with c0 on node 0
  g.assign(2, c2);
  CompositionEvaluator eval(*sys);
  eval.aggregate(fg, g.assignment());
  const auto& demand = eval.node_demand();
  ASSERT_EQ(demand.size(), 2u);
  EXPECT_EQ(demand[0].node, 0u);
  EXPECT_DOUBLE_EQ(demand[0].demand.cpu(), 20.0);
  EXPECT_DOUBLE_EQ(demand[0].demand.memory_mb(), 200.0);
  EXPECT_EQ(demand[1].node, 2u);
  EXPECT_DOUBLE_EQ(demand[1].demand.cpu(), 10.0);
}

TEST_F(CgFixture, CoLocatedEdgeConsumesNoBandwidth) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1_on_node0);
  g.assign(2, c2);
  CompositionEvaluator eval(*sys);
  eval.aggregate(fg, g.assignment());
  // Only edge 1→2 (node 0 → node 2) uses the network: 100 kbps on each
  // link of its virtual link, nothing elsewhere.
  const auto& path = mesh->virtual_link_path(0, 2);
  ASSERT_EQ(eval.link_demand().size(), path.size());
  for (const auto& l : eval.link_demand()) {
    EXPECT_NE(std::find(path.begin(), path.end(), l.link), path.end());
    EXPECT_DOUBLE_EQ(l.kbps, 100.0);
  }
}

TEST_F(CgFixture, PhiMatchesHandComputation) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  // Empty system: every node has (100 cpu, 1000 MB); each fn needs
  // (10, 100). Node terms: 3 * (10/100 + 100/1000) = 0.6. Link terms: per
  // edge, b/(rb + b) where rb is the bottleneck residual after BOTH edges'
  // demands (the two virtual links may share overlay links).
  double expected = 3.0 * (10.0 / 100.0 + 100.0 / 1000.0);
  std::map<net::OverlayLinkIndex, double> agg;
  for (auto l : mesh->virtual_link_path(0, 1)) agg[l] += 100.0;
  for (auto l : mesh->virtual_link_path(1, 2)) agg[l] += 100.0;
  for (const auto& pair : {std::pair<NodeId, NodeId>{0, 1}, {1, 2}}) {
    double residual = std::numeric_limits<double>::infinity();
    for (auto l : mesh->virtual_link_path(pair.first, pair.second)) {
      residual = std::min(residual, sys->link_pool(l).capacity() - agg[l]);
    }
    expected += 100.0 / (residual + 100.0);
  }
  EXPECT_NEAR(phi(g).value(), expected, 1e-9);
}

TEST_F(CgFixture, PhiCoLocationUsesJointResidual) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1_on_node0);
  g.assign(2, c2);
  // Node 0 hosts both: residual = (100-20, 1000-200); each term uses
  // r/(rr + r) = 10/(80+10), 100/(800+100).
  double expected = 2.0 * (10.0 / 90.0 + 100.0 / 900.0)  // two components on node 0
                    + (10.0 / 100.0 + 100.0 / 1000.0);   // c2 alone on node 2
  // One bandwidth term for the single network edge (0→2), with the
  // bottleneck residual along its virtual link.
  double residual = std::numeric_limits<double>::infinity();
  for (auto l : mesh->virtual_link_path(0, 2)) {
    residual = std::min(residual, sys->link_pool(l).capacity() - 100.0);
  }
  expected += 100.0 / (residual + 100.0);
  EXPECT_NEAR(phi(g).value(), expected, 1e-9);
}

TEST_F(CgFixture, PhiIncreasesOnLoadedNodes) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  const double before = phi(g).value();
  ASSERT_TRUE(sys->commit_node_direct(9, 1, ResourceVector(50.0, 500.0), 0.0));
  const double after = phi(g).value();
  EXPECT_GT(after, before);
}

TEST_F(CgFixture, ResourcesFeasibleDetectsOverload) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  EXPECT_TRUE(phi(g).has_value());
  ASSERT_TRUE(sys->commit_node_direct(9, 1, ResourceVector(95.0, 10.0), 0.0));
  EXPECT_FALSE(phi(g).has_value());
}

TEST_F(CgFixture, QualifiedCombinesAllConstraints) {
  ComponentGraph g(fg);
  g.assign(0, c0);
  g.assign(1, c1);
  g.assign(2, c2);
  EXPECT_TRUE(g.qualified(*sys, sys->true_state(), loose_req(), PolicyConstraint{}, 0.0));
  EXPECT_FALSE(g.qualified(*sys, sys->true_state(), QoSVector::from_metrics(1.0, 0.001),
                           PolicyConstraint{}, 0.0));
}

TEST_F(CgFixture, EqualityComparesAssignments) {
  ComponentGraph a(fg), b(fg);
  a.assign(0, c0);
  b.assign(0, c0);
  EXPECT_TRUE(a == b);
  b.assign(1, c1);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace acp::stream
