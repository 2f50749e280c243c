// Torus XL fabric (bench/fig7_xl substrate): arithmetic link ids, the
// deterministic Manhattan staircase walk, identity deputy mapping, and the
// for_each_virtual_link fast path — checked against first principles and
// against the materializing virtual_link_path on both fabric kinds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exp/system_builder.h"
#include "net/overlay.h"
#include "net/topology.h"
#include "util/rng.h"

namespace {

using acp::net::OverlayLinkIndex;
using acp::net::OverlayMesh;
using acp::net::OverlayNodeIndex;

constexpr std::uint32_t kRows = 7;
constexpr std::uint32_t kCols = 9;

OverlayMesh make_torus() { return OverlayMesh::torus(kRows, kCols, 2.0, 1.0e6); }

std::uint32_t manhattan(OverlayNodeIndex a, OverlayNodeIndex b) {
  const std::uint32_t dr =
      (b / kCols + kRows - a / kCols) % kRows;
  const std::uint32_t dc = (b % kCols + kCols - a % kCols) % kCols;
  return std::min(dr, kRows - dr) + std::min(dc, kCols - dc);
}

TEST(Torus, GeometryAndLinkIds) {
  const OverlayMesh mesh = make_torus();
  EXPECT_TRUE(mesh.is_torus());
  EXPECT_EQ(mesh.node_count(), static_cast<std::size_t>(kRows) * kCols);
  EXPECT_EQ(mesh.link_count(), 2u * kRows * kCols);

  // Node i owns link 2i (right neighbor) and 2i+1 (down neighbor).
  for (OverlayNodeIndex n = 0; n < mesh.node_count(); ++n) {
    const std::uint32_t r = n / kCols, c = n % kCols;
    const auto& right = mesh.link(2 * n);
    EXPECT_EQ(right.a, n);
    EXPECT_EQ(right.b, r * kCols + (c + 1) % kCols);
    const auto& down = mesh.link(2 * n + 1);
    EXPECT_EQ(down.a, n);
    EXPECT_EQ(down.b, ((r + 1) % kRows) * kCols + c);
    EXPECT_EQ(right.delay_ms, 2.0);
    EXPECT_EQ(right.loss_rate, 0.0);
    // Degree 4: own right/down plus the left/up neighbors' links.
    EXPECT_EQ(mesh.links_of(n).size(), 4u);
  }
  // Identity member mapping.
  for (OverlayNodeIndex n = 0; n < mesh.node_count(); ++n) {
    EXPECT_EQ(mesh.ip_host(n), n);
    EXPECT_EQ(mesh.closest_member(n), n);
  }
}

TEST(Torus, StaircaseWalkIsAValidShortestPath) {
  const OverlayMesh mesh = make_torus();
  for (OverlayNodeIndex a = 0; a < mesh.node_count(); ++a) {
    for (OverlayNodeIndex b = 0; b < mesh.node_count(); ++b) {
      const auto& path = mesh.virtual_link_path(a, b);
      ASSERT_EQ(path.size(), manhattan(a, b)) << a << "->" << b;
      ASSERT_EQ(mesh.virtual_link_hops(a, b), path.size());
      // The links chain a → ... → b through shared endpoints.
      OverlayNodeIndex here = a;
      for (const OverlayLinkIndex l : path) {
        const auto& link = mesh.link(l);
        ASSERT_TRUE(link.a == here || link.b == here) << a << "->" << b;
        here = link.other(here);
      }
      ASSERT_EQ(here, b);
      // Delay = hops × uniform link delay, and symmetric.
      ASSERT_DOUBLE_EQ(mesh.virtual_link_qos(a, b).delay_ms,
                       2.0 * static_cast<double>(path.size()));
      ASSERT_DOUBLE_EQ(mesh.virtual_link_qos(a, b).delay_ms, mesh.virtual_link_qos(b, a).delay_ms);
    }
  }
}

TEST(Torus, ForEachMatchesMaterializedPath) {
  const OverlayMesh mesh = make_torus();
  acp::util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<OverlayNodeIndex>(rng.below(mesh.node_count()));
    const auto b = static_cast<OverlayNodeIndex>(rng.below(mesh.node_count()));
    std::vector<OverlayLinkIndex> walked;
    mesh.for_each_virtual_link(a, b, [&](OverlayLinkIndex l) { walked.push_back(l); });
    EXPECT_EQ(walked, mesh.virtual_link_path(a, b));
  }
}

TEST(Torus, WalkIsDeterministicWithPositiveTieBreak) {
  // kCols = 9 with a column distance of 4 vs 5: shorter wrap wins; an exact
  // tie (impossible on odd sizes) is covered on an even-size torus below.
  const OverlayMesh mesh = make_torus();
  const auto& p1 = mesh.virtual_link_path(0, 4);  // 4 right vs 5 left: right
  ASSERT_EQ(p1.size(), 4u);
  EXPECT_EQ(p1[0], 0u);  // link_right(0,0) = 2*0

  const OverlayMesh even = OverlayMesh::torus(4, 6, 1.0, 1.0e6);
  // Row distance 2 both ways on 4 rows: tie → positive (downward) walk.
  const auto& p2 = even.virtual_link_path(0, 2 * 6);
  ASSERT_EQ(p2.size(), 2u);
  EXPECT_EQ(p2[0], 1u);                // link_down(0,0) = 2*0+1
  EXPECT_EQ(p2[1], 2u * 6u + 1u);      // link_down(1,0)
}

TEST(Torus, ClosestMemberWhereScansByManhattanDelay) {
  const OverlayMesh mesh = make_torus();
  // Only nodes in row 3 eligible: the winner is the row-3 node in the same
  // column (column distance 0).
  const auto eligible = [](OverlayNodeIndex o) { return o / kCols == 3; };
  EXPECT_EQ(mesh.closest_member_where(5, eligible), 3u * kCols + 5u);
  // Nothing eligible: falls back to the identity member.
  const auto nothing = [](OverlayNodeIndex) { return false; };
  EXPECT_EQ(mesh.closest_member_where(17, nothing), 17u);
}

TEST(Torus, BuildFabricUsesTorusAndSkipsInet) {
  acp::exp::SystemConfig cfg;
  cfg.torus_rows = 8;
  cfg.torus_cols = 10;
  const auto fabric = acp::exp::build_fabric(cfg);
  ASSERT_NE(fabric.mesh, nullptr);
  EXPECT_TRUE(fabric.mesh->is_torus());
  EXPECT_EQ(fabric.mesh->node_count(), 80u);
  EXPECT_EQ(fabric.ip.node_count(), 80u);  // identity-mapped hosts
  // Deployment over the torus fabric works end to end.
  const auto dep = acp::exp::build_deployment(fabric, cfg);
  EXPECT_EQ(dep.sys->node_count(), 80u);
}

TEST(Torus, FiftyThousandNodeWorldBuildsInstantly) {
  // The entire point of the torus fabric: O(N) construction. 51200 nodes /
  // 102400 links build in well under a second; spot-check far corners.
  const OverlayMesh mesh = OverlayMesh::torus(200, 256, 1.0, 1.0e6);
  EXPECT_EQ(mesh.node_count(), 51200u);
  EXPECT_EQ(mesh.link_count(), 102400u);
  const OverlayNodeIndex antipode = 100u * 256u + 128u;  // (100, 128) from (0, 0)
  EXPECT_EQ(mesh.virtual_link_hops(0, antipode), 100u + 128u);
  EXPECT_DOUBLE_EQ(mesh.virtual_link_qos(0, antipode).delay_ms, 228.0);
  EXPECT_EQ(mesh.virtual_link_hops(0, 51199u), 2u);  // corner wraps both axes
}

TEST(NormalMesh, ForEachMatchesMaterializedPath) {
  // The fast path must be a pure refactor on paper-scale fabrics too.
  acp::net::TopologyConfig tcfg;
  tcfg.node_count = 200;
  acp::util::Rng rng(11);
  const auto ip = acp::net::generate_power_law_topology(tcfg, rng);
  acp::net::OverlayConfig ocfg;
  ocfg.member_count = 40;
  const OverlayMesh mesh(ip, ocfg, rng);
  EXPECT_FALSE(mesh.is_torus());
  for (OverlayNodeIndex a = 0; a < mesh.node_count(); ++a) {
    for (OverlayNodeIndex b = 0; b < mesh.node_count(); ++b) {
      std::vector<OverlayLinkIndex> walked;
      mesh.for_each_virtual_link(a, b, [&](OverlayLinkIndex l) { walked.push_back(l); });
      ASSERT_EQ(walked, mesh.virtual_link_path(a, b));
    }
  }
}

}  // namespace
