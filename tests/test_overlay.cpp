#include "net/overlay.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "net/topology.h"

namespace acp::net {
namespace {

struct OverlayFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    TopologyConfig tc;
    tc.node_count = 600;
    ip = generate_power_law_topology(tc, rng);
    OverlayConfig oc;
    oc.member_count = 50;
    util::Rng orng(43);
    mesh = std::make_unique<OverlayMesh>(ip, oc, orng);
  }

  Graph ip;
  std::unique_ptr<OverlayMesh> mesh;
};

TEST_F(OverlayFixture, SelectsRequestedMemberCount) {
  EXPECT_EQ(mesh->node_count(), 50u);
}

TEST_F(OverlayFixture, MembersAreDistinctIpHosts) {
  std::set<NodeIndex> hosts;
  for (OverlayNodeIndex o = 0; o < mesh->node_count(); ++o) hosts.insert(mesh->ip_host(o));
  EXPECT_EQ(hosts.size(), mesh->node_count());
}

TEST_F(OverlayFixture, MeshIsConnected) {
  EXPECT_TRUE(mesh->mesh_graph().is_connected());
}

TEST_F(OverlayFixture, EveryNodeHasAtLeastLogNNeighbors) {
  // ceil(log2 50) = 6 wiring attempts per node; dedup can reduce a node's
  // own attempts but neighbors wire back, so degree stays >= ~log N / 2.
  for (OverlayNodeIndex o = 0; o < mesh->node_count(); ++o) {
    EXPECT_GE(mesh->neighbors_of(o).size(), 3u) << "node " << o;
  }
}

TEST_F(OverlayFixture, LinkDelayEqualsIpShortestPath) {
  // Spot-check: each overlay link's delay must equal the IP shortest-path
  // delay between its endpoint hosts.
  RoutingTable rt(ip);
  for (std::size_t l = 0; l < std::min<std::size_t>(mesh->link_count(), 20); ++l) {
    const auto& link = mesh->link(static_cast<OverlayLinkIndex>(l));
    EXPECT_DOUBLE_EQ(link.delay_ms, rt.distance(mesh->ip_host(link.a), mesh->ip_host(link.b)));
  }
}

TEST_F(OverlayFixture, LinkLossWithinConfiguredRange) {
  for (std::size_t l = 0; l < mesh->link_count(); ++l) {
    const auto& link = mesh->link(static_cast<OverlayLinkIndex>(l));
    EXPECT_GE(link.loss_rate, 0.0);
    EXPECT_LE(link.loss_rate, 0.005);
    EXPECT_NEAR(link.additive_loss, -std::log(1.0 - link.loss_rate), 1e-12);
  }
}

TEST_F(OverlayFixture, VirtualLinkPathIsContiguous) {
  for (OverlayNodeIndex a = 0; a < 10; ++a) {
    for (OverlayNodeIndex b = 0; b < mesh->node_count(); ++b) {
      const auto& path = mesh->virtual_link_path(a, b);
      if (a == b) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      ASSERT_FALSE(path.empty());
      // Links must chain from a to b.
      OverlayNodeIndex at = a;
      for (OverlayLinkIndex l : path) at = mesh->link(l).other(at);
      EXPECT_EQ(at, b);
    }
  }
}

TEST_F(OverlayFixture, VirtualLinkDelayMatchesPathSum) {
  for (OverlayNodeIndex a = 0; a < 5; ++a) {
    for (OverlayNodeIndex b = 0; b < mesh->node_count(); ++b) {
      double sum = 0;
      for (OverlayLinkIndex l : mesh->virtual_link_path(a, b)) sum += mesh->link(l).delay_ms;
      EXPECT_DOUBLE_EQ(mesh->virtual_link_qos(a, b).delay_ms, sum);
    }
  }
}

TEST_F(OverlayFixture, CoLocationHasZeroDelay) {
  EXPECT_DOUBLE_EQ(mesh->virtual_link_qos(7, 7).delay_ms, 0.0);
}

TEST_F(OverlayFixture, ClosestMemberIsAMemberAndOptimal) {
  RoutingTable rt(ip);
  for (NodeIndex client = 0; client < 20; ++client) {
    const auto member = mesh->closest_member(client);
    ASSERT_LT(member, mesh->node_count());
    const double chosen = rt.distance(mesh->ip_host(member), client);
    for (OverlayNodeIndex o = 0; o < mesh->node_count(); ++o) {
      EXPECT_LE(chosen, rt.distance(mesh->ip_host(o), client) + 1e-9);
    }
  }
}

TEST_F(OverlayFixture, ClosestMemberOfMemberHostIsItself) {
  const auto host = mesh->ip_host(13);
  EXPECT_EQ(mesh->closest_member(host), 13u);
}

TEST(Overlay, RejectsMoreMembersThanHosts) {
  util::Rng rng(1);
  TopologyConfig tc;
  tc.node_count = 10;
  const auto ip = generate_power_law_topology(tc, rng);
  OverlayConfig oc;
  oc.member_count = 11;
  util::Rng orng(2);
  EXPECT_THROW(OverlayMesh(ip, oc, orng), acp::PreconditionError);
}

class OverlaySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlaySizeSweep, ConnectedAtEverySize) {
  util::Rng rng(77);
  TopologyConfig tc;
  tc.node_count = 800;
  const auto ip = generate_power_law_topology(tc, rng);
  OverlayConfig oc;
  oc.member_count = GetParam();
  util::Rng orng(78);
  OverlayMesh mesh(ip, oc, orng);
  EXPECT_TRUE(mesh.mesh_graph().is_connected());
  EXPECT_EQ(mesh.node_count(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlaySizeSweep, ::testing::Values(2, 5, 20, 100, 300));

}  // namespace
}  // namespace acp::net
