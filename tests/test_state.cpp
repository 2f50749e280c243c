// Tests for hierarchical state management: threshold-triggered coarse
// global state, aggregation publish, local state staleness.
#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"
#include "state/global_state.h"
#include "state/local_state.h"

namespace acp::state {
namespace {

struct StateFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 150;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 10;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(5, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, stream::ResourceVector(100.0, 1000.0));
    }
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  sim::Engine engine;
  obs::MetricsRegistry counters;
};

TEST_F(StateFixture, StartSeedsFromGroundTruth) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  EXPECT_DOUBLE_EQ(mgr.view().node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(StateFixture, SmallChangesAreFilteredOut) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  // 5% change: below the 10% threshold — no update message, stale view.
  ASSERT_TRUE(sys->commit_node_direct(1, 2, stream::ResourceVector(5.0, 50.0), 0.0));
  mgr.run_check_sweep();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 0u);
  EXPECT_DOUBLE_EQ(mgr.view().node_available(2, 0.0).cpu(), 100.0);  // stale
}

TEST_F(StateFixture, SignificantChangesTriggerUpdate) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 2, stream::ResourceVector(20.0, 50.0), 0.0));
  mgr.run_check_sweep();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 1u);
  EXPECT_DOUBLE_EQ(mgr.view().node_available(2, 0.0).cpu(), 80.0);  // fresh
}

TEST_F(StateFixture, LinkUpdatesFlowThroughAggregationPublish) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  const net::OverlayLinkIndex l = 0;
  const double cap = sys->link_pool(l).capacity();
  ASSERT_TRUE(sys->link_pool(l).commit_direct(1, cap * 0.5, 0.0));

  mgr.run_check_sweep();
  // The owner reported to the aggregation node…
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateAggregationUpdates), 1u);
  // …but the published global copy is only refreshed at the next publish.
  EXPECT_DOUBLE_EQ(mgr.view().link_available_kbps(l, 0.0), cap);
  mgr.run_publish();
  EXPECT_DOUBLE_EQ(mgr.view().link_available_kbps(l, 0.0), cap * 0.5);
}

TEST_F(StateFixture, AggregationRoleRotates) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  const auto first = mgr.aggregation_node();
  mgr.run_publish();
  EXPECT_NE(mgr.aggregation_node(), first);
}

TEST_F(StateFixture, PeriodicTicksRunThroughEngine) {
  GlobalStateConfig cfg;
  cfg.check_interval_s = 10.0;
  cfg.aggregation_publish_interval_s = 60.0;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 4, stream::ResourceVector(50.0, 500.0), 0.0));
  engine.run_until(10.5);  // one check tick
  EXPECT_DOUBLE_EQ(mgr.view().node_available(4, engine.now()).cpu(), 50.0);
}

TEST_F(StateFixture, StartTwiceThrows) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  EXPECT_THROW(mgr.start(), acp::PreconditionError);
}

// ---- Local state -------------------------------------------------------------

TEST_F(StateFixture, LocalViewSelfIsAlwaysExact) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 3, stream::ResourceVector(40.0, 100.0), 0.0));
  // No refresh has run since the commit, but node 3 knows itself.
  EXPECT_DOUBLE_EQ(mgr.view_from(3).node_available(3, 0.0).cpu(), 60.0);
  // A remote vantage still sees the stale snapshot.
  EXPECT_DOUBLE_EQ(mgr.view_from(0).node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(StateFixture, LocalRefreshUpdatesNeighborhood) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 3, stream::ResourceVector(40.0, 100.0), 0.0));
  mgr.run_refresh();
  EXPECT_DOUBLE_EQ(mgr.view_from(0).node_available(3, 0.0).cpu(), 60.0);
}

TEST_F(StateFixture, AdjacentLinksAreExactFromEitherEnd) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  const net::OverlayLinkIndex l = 0;
  const auto& link = mesh->link(l);
  const double cap = sys->link_pool(l).capacity();
  ASSERT_TRUE(sys->link_pool(l).commit_direct(1, cap * 0.3, 0.0));
  EXPECT_DOUBLE_EQ(mgr.view_from(link.a).link_available_kbps(l, 0.0), cap * 0.7);
  EXPECT_DOUBLE_EQ(mgr.view_from(link.b).link_available_kbps(l, 0.0), cap * 0.7);
}

TEST_F(StateFixture, RefreshMessagesCountedOnlyWhenEnabled) {
  LocalStateConfig cfg;
  cfg.count_messages = true;
  LocalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  EXPECT_GT(counters.counter_family_total(obs::metric::kStateLocalRefresh), 0u);
}

}  // namespace
}  // namespace acp::state
