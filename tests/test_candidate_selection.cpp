// Tests for per-hop candidate selection: risk function D(c) (Eq. 9),
// congestion function W(c) (Eq. 10), qualification filtering (Eqs. 6–8),
// and best-M / random-M selection.
#include <gtest/gtest.h>

#include <memory>

#include "core/candidate_selection.h"
#include "core/whatif.h"
#include "net/topology.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::QoSVector;
using stream::ResourceVector;

struct SelectionFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 150;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 8;
    oc.min_loss_rate = 0.0;
    oc.max_loss_rate = 0.0;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(4, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    // fn 1 candidates on nodes 1..4, equal QoS except candidate 2 (slower).
    cands.push_back(sys->add_component(1, 1, QoSVector::from_metrics(10.0, 0.0)));
    cands.push_back(sys->add_component(1, 2, QoSVector::from_metrics(50.0, 0.0)));
    cands.push_back(sys->add_component(1, 3, QoSVector::from_metrics(10.0, 0.0)));
    cands.push_back(sys->add_component(1, 4, QoSVector::from_metrics(10.0, 0.0)));

    req.id = 1;
    req.graph.add_node(0, ResourceVector(10.0, 100.0));
    req.graph.add_node(1, ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.qos_req = QoSVector::from_metrics(1000.0, 0.5);

    ctx.sys = sys.get();
    ctx.req = &req;
    ctx.next_fn = 1;
    ctx.now = 0.0;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::vector<ComponentId> cands;
  workload::Request req;
  HopContext ctx;
};

TEST_F(SelectionFixture, RiskIsAccumulationOverRequirement) {
  ctx.accumulated = QoSVector::from_metrics(100.0, 0.0);
  // No upstream: risk = (100 + 10) / 1000 on the delay dim.
  EXPECT_NEAR(risk_function(ctx, cands[0]), 110.0 / 1000.0, 1e-9);
  EXPECT_NEAR(risk_function(ctx, cands[1]), 150.0 / 1000.0, 1e-9);
}

TEST_F(SelectionFixture, RiskIncludesUpstreamVirtualLink) {
  ctx.has_upstream = true;
  ctx.current_node = 0;
  ctx.current_function = 0;
  ctx.edge_bw_kbps = 100.0;
  const double link_delay = mesh->virtual_link_delay(0, 1);
  EXPECT_NEAR(risk_function(ctx, cands[0]), (10.0 + link_delay) / 1000.0, 1e-9);
}

TEST_F(SelectionFixture, CongestionReflectsLoad) {
  const double w_before = congestion_function(ctx, sys->true_state(), cands[0]);
  EXPECT_NEAR(w_before, 10.0 / 100.0 + 100.0 / 1000.0, 1e-9);
  ASSERT_TRUE(sys->commit_node_direct(9, 1, ResourceVector(60.0, 600.0), 0.0));
  const double w_after = congestion_function(ctx, sys->true_state(), cands[0]);
  EXPECT_GT(w_after, w_before);
  EXPECT_NEAR(w_after, 10.0 / 40.0 + 100.0 / 400.0, 1e-9);
}

TEST_F(SelectionFixture, FilterRejectsQoSViolation) {
  // Eq. 6: accumulated + candidate must stay within the requirement.
  ctx.accumulated = QoSVector::from_metrics(995.0, 0.0);
  const auto q = filter_qualified(ctx, sys->true_state(), cands);
  EXPECT_TRUE(q.empty());
}

TEST_F(SelectionFixture, FilterRejectsResourceShortage) {
  // Eq. 7: drain node 1 so candidate 0 no longer fits.
  ASSERT_TRUE(sys->commit_node_direct(9, 1, ResourceVector(95.0, 0.0), 0.0));
  const auto q = filter_qualified(ctx, sys->true_state(), cands);
  EXPECT_EQ(q.size(), 3u);
  for (auto c : q) EXPECT_NE(c, cands[0]);
}

TEST_F(SelectionFixture, FilterRejectsBandwidthShortage) {
  // Eq. 8: saturate the virtual link 0→1.
  ctx.has_upstream = true;
  ctx.current_node = 0;
  ctx.current_function = 0;
  ctx.edge_bw_kbps = 100.0;
  for (auto l : mesh->virtual_link_path(0, 1)) {
    const double cap = sys->link_pool(l).capacity();
    ASSERT_TRUE(sys->link_pool(l).commit_direct(9, cap - 50.0, 0.0));
  }
  const auto q = filter_qualified(ctx, sys->true_state(), cands);
  for (auto c : q) EXPECT_NE(c, cands[0]);
}

TEST_F(SelectionFixture, FilterChecksRateCompatibility) {
  ctx.has_upstream = true;
  ctx.current_node = 0;
  // Pick an upstream function incompatible with fn 1 if one exists.
  const auto& cat = sys->catalog();
  for (stream::FunctionId f = 0; f < cat.size(); ++f) {
    if (!cat.compatible(f, 1)) {
      ctx.current_function = f;
      EXPECT_TRUE(filter_qualified(ctx, sys->true_state(), cands).empty());
      return;
    }
  }
  GTEST_SKIP() << "catalog happens to make every function compatible with fn 1";
}

TEST_F(SelectionFixture, SelectBestPrefersLowRisk) {
  const auto best = select_best(ctx, sys->true_state(), cands, 2, /*eps=*/0.001);
  ASSERT_EQ(best.size(), 2u);
  // Candidate 1 (50ms) must not be among the top 2 of four.
  EXPECT_EQ(std::count(best.begin(), best.end(), cands[1]), 0);
}

TEST_F(SelectionFixture, SelectBestBreaksRiskTiesByCongestion) {
  // Load node 1 so cands[0] has similar risk but worse congestion than
  // cands[2]/cands[3].
  ASSERT_TRUE(sys->commit_node_direct(9, 1, ResourceVector(80.0, 800.0), 0.0));
  const auto best = select_best(ctx, sys->true_state(), cands, 2, /*eps=*/0.5);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(std::count(best.begin(), best.end(), cands[0]), 0);
}

TEST_F(SelectionFixture, SelectBestReturnsAllWhenFewerThanM) {
  const auto best = select_best(ctx, sys->true_state(), cands, 10, 0.05);
  EXPECT_EQ(best.size(), cands.size());
}

TEST_F(SelectionFixture, SelectRandomRespectsMAndMembership) {
  util::Rng rng(7);
  const auto sel = select_random(cands, 2, rng);
  ASSERT_EQ(sel.size(), 2u);
  for (auto c : sel) {
    EXPECT_NE(std::find(cands.begin(), cands.end(), c), cands.end());
  }
  EXPECT_NE(sel[0], sel[1]);
}

TEST(ProbeCount, CeilOfAlphaTimesK) {
  EXPECT_EQ(probe_count(10, 0.3), 3u);
  EXPECT_EQ(probe_count(10, 0.25), 3u);  // ceil
  EXPECT_EQ(probe_count(10, 1.0), 10u);
  EXPECT_EQ(probe_count(3, 0.1), 1u);  // at least one
  EXPECT_EQ(probe_count(0, 0.5), 0u);
  EXPECT_THROW(probe_count(5, 0.0), acp::PreconditionError);
  EXPECT_THROW(probe_count(5, 1.5), acp::PreconditionError);
}

// ---- WhatIfView ----------------------------------------------------------------

TEST_F(SelectionFixture, WhatIfSubtractsHypotheticalLoad) {
  WhatIfView view(sys->true_state());
  EXPECT_DOUBLE_EQ(view.node_available(1, 0.0).cpu(), 100.0);
  view.take_node(1, ResourceVector(30.0, 300.0));
  view.take_node(1, ResourceVector(10.0, 100.0));
  EXPECT_DOUBLE_EQ(view.node_available(1, 0.0).cpu(), 60.0);
  EXPECT_DOUBLE_EQ(sys->true_state().node_available(1, 0.0).cpu(), 100.0);  // untouched
  view.reset();
  EXPECT_DOUBLE_EQ(view.node_available(1, 0.0).cpu(), 100.0);
}

TEST_F(SelectionFixture, WhatIfAppliesWholeComposition) {
  stream::ComponentGraph g(req.graph);
  const auto c_fn0 = sys->add_component(0, 1, QoSVector::from_metrics(5.0, 0.0));
  g.assign(0, c_fn0);
  g.assign(1, cands[0]);  // also node 1: co-located
  WhatIfView view(sys->true_state());
  view.apply_composition(*sys, g);
  EXPECT_DOUBLE_EQ(view.node_available(1, 0.0).cpu(), 80.0);  // both demands
  // Co-located edge: no link bandwidth taken anywhere.
  for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
    EXPECT_DOUBLE_EQ(view.link_available_kbps(l, 0.0), sys->link_pool(l).capacity());
  }
}

}  // namespace
}  // namespace acp::core
