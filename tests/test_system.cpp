// Tests for StreamSystem: population, admission, virtual-link reservations.
#include <gtest/gtest.h>

#include "net/topology.h"
#include "stream/system.h"

namespace acp::stream {
namespace {

struct SystemFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 200;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 12;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<StreamSystem>(*mesh, FunctionCatalog::generate(10, crng));
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
};

TEST_F(SystemFixture, AddComponentIndexes) {
  const auto c0 = sys->add_component(3, 5, QoSVector::from_metrics(10, 0.01));
  const auto c1 = sys->add_component(3, 7, QoSVector::from_metrics(12, 0.0));
  const auto c2 = sys->add_component(4, 5, QoSVector::from_metrics(8, 0.0));
  EXPECT_EQ(sys->component_count(), 3u);
  EXPECT_EQ(sys->components_providing(3), (std::vector<ComponentId>{c0, c1}));
  EXPECT_EQ(sys->components_providing(4), (std::vector<ComponentId>{c2}));
  EXPECT_TRUE(sys->components_providing(9).empty());
  EXPECT_EQ(sys->components_on(5), (std::vector<ComponentId>{c0, c2}));
  EXPECT_EQ(sys->component(c1).node, 7u);
  EXPECT_EQ(sys->component(c1).function, 3u);
}

TEST_F(SystemFixture, AddComponentValidatesInputs) {
  EXPECT_THROW(sys->add_component(99, 0, {}), acp::PreconditionError);
  EXPECT_THROW(sys->add_component(0, 999, {}), acp::PreconditionError);
}

TEST_F(SystemFixture, CapacityCannotChangeUnderAllocations) {
  ASSERT_TRUE(sys->commit_node_direct(1, 0, ResourceVector(1, 1), 0.0));
  EXPECT_THROW(sys->set_node_capacity(0, ResourceVector(5, 5)), acp::PreconditionError);
}

TEST_F(SystemFixture, TrueStateReflectsPools) {
  const auto& view = sys->true_state();
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 100.0);
  ASSERT_TRUE(sys->commit_node_direct(9, 3, ResourceVector(40, 100), 0.0));
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 60.0);
  sys->release_session(9);
  EXPECT_DOUBLE_EQ(view.node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(SystemFixture, VirtualLinkReservationIsAllOrNothing) {
  // Pick two distinct nodes with a multi-link path if possible.
  const NodeId a = 0, b = static_cast<NodeId>(sys->node_count() - 1);
  const auto& path = mesh->virtual_link_path(a, b);
  ASSERT_FALSE(path.empty());

  // Saturate the LAST link on the path so reservation must roll back.
  const auto last = path.back();
  const double cap = sys->link_pool(last).capacity();
  ASSERT_TRUE(sys->link_pool(last).commit(cap, 0.0));

  EXPECT_FALSE(sys->reserve_virtual_link_transient(1, 0, a, b, 100.0, 0.0, 10.0));
  // Roll back must leave earlier links untouched.
  for (auto l : path) {
    if (l != last) {
      EXPECT_EQ(sys->link_pool(l).live_transient_count(0.0), 0u) << "link " << l;
    }
  }
}

TEST_F(SystemFixture, VirtualLinkReservationSucceedsAndConfirms) {
  const NodeId a = 0, b = 5;
  ASSERT_TRUE(sys->reserve_virtual_link_transient(1, 7, a, b, 100.0, 0.0, 10.0));
  EXPECT_TRUE(sys->confirm_virtual_link(1, 7, a, b, /*session=*/3, 0.0));
  for (auto l : mesh->virtual_link_path(a, b)) {
    EXPECT_DOUBLE_EQ(sys->link_pool(l).available(99.0),
                     sys->link_pool(l).capacity() - 100.0);
  }
  sys->release_session(3);
  for (auto l : mesh->virtual_link_path(a, b)) {
    EXPECT_DOUBLE_EQ(sys->link_pool(l).available(99.0), sys->link_pool(l).capacity());
  }
}

TEST_F(SystemFixture, CoLocatedVirtualLinkIsFree) {
  EXPECT_TRUE(sys->reserve_virtual_link_transient(1, 0, 4, 4, 1e12, 0.0, 10.0));
  EXPECT_TRUE(sys->confirm_virtual_link(1, 0, 4, 4, 2, 0.0));
}

TEST_F(SystemFixture, CancelRequestClearsEverywhere) {
  ASSERT_TRUE(sys->reserve_node_transient(5, 0, 2, ResourceVector(10, 10), 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(5, 1, 0, 3, 50.0, 0.0, 60.0));
  sys->cancel_request(5);
  EXPECT_EQ(sys->node_pool(2).live_transient_count(0.0), 0u);
  for (auto l : mesh->virtual_link_path(0, 3)) {
    EXPECT_EQ(sys->link_pool(l).live_transient_count(0.0), 0u);
  }
}

TEST_F(SystemFixture, RequestScopedViewExcludesOwnTransients) {
  ASSERT_TRUE(sys->reserve_node_transient(5, 0, 2, ResourceVector(30, 300), 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_node_transient(6, 0, 2, ResourceVector(10, 100), 0.0, 60.0));
  const StreamSystem::RequestScopedView mine(*sys, 5);
  // Request 5 sees only request 6's hold.
  EXPECT_DOUBLE_EQ(mine.node_available(2, 1.0).cpu(), 90.0);
  // The plain true view sees both.
  EXPECT_DOUBLE_EQ(sys->true_state().node_available(2, 1.0).cpu(), 60.0);
}

// ---- Session-keyed commits (StreamSystem owns each session's records) -----

TEST_F(SystemFixture, ConfirmConvertsTransientIntoSession) {
  sys->set_node_capacity(0, ResourceVector(10.0, 100.0));
  ASSERT_TRUE(sys->reserve_node_transient(1, 0, 0, ResourceVector(4.0, 40.0), 0.0, 10.0));
  ASSERT_TRUE(sys->confirm_node(1, 0, 0, /*session=*/77, 5.0));
  // Committed allocations do not expire.
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(100.0).cpu(), 6.0);
  EXPECT_EQ(sys->node_pool(0).committed_count(), 1u);
  ASSERT_EQ(sys->node_commits(77).size(), 1u);
  EXPECT_EQ(sys->node_commits(77)[0].node, 0u);
  EXPECT_EQ(sys->node_commits(77)[0].amount, ResourceVector(4.0, 40.0));
  sys->release_session(77);
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(100.0).cpu(), 10.0);
  EXPECT_EQ(sys->node_pool(0).committed_count(), 0u);
  EXPECT_EQ(sys->committed_session_count(), 0u);
}

TEST_F(SystemFixture, ConfirmIntoSessionFailsAfterExpiry) {
  ASSERT_TRUE(sys->reserve_node_transient(1, 0, 0, ResourceVector(4.0, 40.0), 0.0, 10.0));
  EXPECT_FALSE(sys->confirm_node(1, 0, 0, 77, 10.0));
  EXPECT_FALSE(sys->confirm_node(9, 9, 0, 77, 5.0));  // never existed
  EXPECT_TRUE(sys->node_commits(77).empty());
  EXPECT_EQ(sys->committed_session_count(), 0u);
}

TEST_F(SystemFixture, DirectCommitAndTargetedRelease) {
  sys->set_node_capacity(0, ResourceVector(10.0, 100.0));
  ASSERT_TRUE(sys->commit_node_direct(5, 0, ResourceVector(4.0, 20.0), 0.0));
  ASSERT_TRUE(sys->commit_node_direct(5, 0, ResourceVector(3.0, 20.0), 0.0));
  EXPECT_FALSE(sys->commit_node_direct(6, 0, ResourceVector(4.0, 20.0), 0.0));
  EXPECT_TRUE(sys->release_node_direct(5, 0, ResourceVector(4.0, 20.0)));
  EXPECT_FALSE(sys->release_node_direct(5, 0, ResourceVector(9.0, 9.0)));
  EXPECT_FALSE(sys->release_node_direct(6, 0, ResourceVector(3.0, 20.0)));  // not 6's
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 7.0);
  ASSERT_EQ(sys->node_commits(5).size(), 1u);
  EXPECT_EQ(sys->node_commits(5)[0].amount, ResourceVector(3.0, 20.0));
  sys->release_session(5);
  EXPECT_DOUBLE_EQ(sys->node_pool(0).available(0.0).cpu(), 10.0);
}

TEST_F(SystemFixture, BandwidthConfirmIntoSessionAndRelease) {
  const NodeId a = 0, b = 5;
  const auto path = mesh->virtual_link_path(a, b);
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(sys->reserve_virtual_link_transient(1, 0, a, b, 400.0, 0.0, 10.0));
  ASSERT_TRUE(sys->confirm_virtual_link(1, 0, a, b, /*session=*/9, 1.0));
  ASSERT_EQ(sys->link_commits(9).size(), path.size());
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(sys->link_commits(9)[i].link, path[i]);  // walk order
    EXPECT_EQ(sys->link_commits(9)[i].kbps, 400.0);
    EXPECT_DOUBLE_EQ(sys->link_pool(path[i]).available(99.0),
                     sys->link_pool(path[i]).capacity() - 400.0);
  }
  sys->release_session(9);
  for (const auto l : path) {
    EXPECT_DOUBLE_EQ(sys->link_pool(l).available(99.0), sys->link_pool(l).capacity());
    EXPECT_EQ(sys->link_pool(l).committed_count(), 0u);
  }
}

TEST_F(SystemFixture, HoldListNamesEveryCreatedRecordOnce) {
  const NodeId a = 0, b = 5;
  const auto path = mesh->virtual_link_path(a, b);
  ASSERT_TRUE(sys->reserve_node_transient(3, 0, 2, ResourceVector(1, 1), 0.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(3, 1, a, b, 10.0, 0.0, 60.0));
  // Refreshes take no new record, so they list nothing.
  ASSERT_TRUE(sys->reserve_node_transient(3, 0, 2, ResourceVector(1, 1), 1.0, 60.0));
  ASSERT_TRUE(sys->reserve_virtual_link_transient(3, 1, a, b, 10.0, 1.0, 60.0));
  const auto holds = sys->hold_list(3);
  ASSERT_EQ(holds.size(), 1 + path.size());
  EXPECT_EQ(holds[0], StreamSystem::PoolRef{2});
  for (std::size_t i = 0; i < path.size(); ++i) {
    EXPECT_EQ(holds[1 + i], path[i] | StreamSystem::kLinkPool);
  }
  sys->cancel_request(3);
  EXPECT_TRUE(sys->hold_list(3).empty());
  EXPECT_EQ(sys->held_request_count(), 0u);
}

TEST_F(SystemFixture, DirectVirtualLinkCommitRollsBackOnFailure) {
  const NodeId a = 1, b = static_cast<NodeId>(sys->node_count() - 2);
  const auto& path = mesh->virtual_link_path(a, b);
  ASSERT_FALSE(path.empty());
  const auto last = path.back();
  const double cap = sys->link_pool(last).capacity();
  ASSERT_TRUE(sys->link_pool(last).commit(cap, 0.0));

  EXPECT_FALSE(sys->commit_virtual_link_direct(7, a, b, 100.0, 0.0));
  for (auto l : path) {
    if (l != last) {
      EXPECT_DOUBLE_EQ(sys->link_pool(l).available(0.0), sys->link_pool(l).capacity())
          << "link " << l;
    }
  }
}

}  // namespace
}  // namespace acp::stream
