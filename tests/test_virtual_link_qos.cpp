// O(1) virtual-link QoS (OverlayMesh::virtual_link_qos and the
// StreamSystem query over it) against a walk-order reference: start from
// zero and add each overlay link's (delay, additive loss) along
// for_each_virtual_link, the sum the hot paths used to compute per read.
// Every ordered pair of several tori and an Inet mesh must match bit for
// bit. At a 0.3 ms link delay, k × 0.3 and k repeated adds first differ at
// six hops, so the 7×8 torus is what tells a repeated-add table from a
// multiplied one.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>

#include "net/overlay.h"
#include "net/topology.h"
#include "stream/system.h"
#include "util/rng.h"

namespace acp::net {
namespace {

PathQoS walk_sum(const OverlayMesh& mesh, OverlayNodeIndex a, OverlayNodeIndex b) {
  PathQoS q;
  mesh.for_each_virtual_link(a, b, [&](OverlayLinkIndex l) {
    q.delay_ms += mesh.link(l).delay_ms;
    q.additive_loss += mesh.link(l).additive_loss;
  });
  return q;
}

/// Checks every ordered pair; returns how many pairs' walk sum differs from
/// hops × the first link's delay.
std::size_t check_every_pair(const OverlayMesh& mesh) {
  const stream::StreamSystem sys(mesh, stream::FunctionCatalog{});
  std::size_t multiplied_differs = 0;
  for (OverlayNodeIndex a = 0; a < mesh.node_count(); ++a) {
    for (OverlayNodeIndex b = 0; b < mesh.node_count(); ++b) {
      const PathQoS ref = walk_sum(mesh, a, b);
      const PathQoS got = mesh.virtual_link_qos(a, b);
      EXPECT_EQ(got.delay_ms, ref.delay_ms) << a << "->" << b;
      EXPECT_EQ(got.additive_loss, ref.additive_loss) << a << "->" << b;
      EXPECT_EQ(sys.virtual_link_qos(a, b),
                stream::QoSVector::from_additive(ref.delay_ms, ref.additive_loss))
          << a << "->" << b;
      if (a == b) {
        EXPECT_EQ(got.delay_ms, 0.0);
        EXPECT_EQ(got.additive_loss, 0.0);
      }
      const double hops = static_cast<double>(mesh.virtual_link_hops(a, b));
      if (hops * mesh.link(0).delay_ms != ref.delay_ms) ++multiplied_differs;
    }
  }
  return multiplied_differs;
}

TEST(VirtualLinkQoS, TorusTableMatchesWalkOrderSum) {
  std::size_t multiplied_differs = 0;
  for (const auto& [rows, cols] : {std::pair{3, 4}, std::pair{5, 6}, std::pair{7, 8}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    const OverlayMesh mesh = OverlayMesh::torus(rows, cols, 0.3, 1000.0);
    multiplied_differs += check_every_pair(mesh);
  }
  // The table must be built by repeated addition: k × d is not the walk's sum.
  EXPECT_GT(multiplied_differs, 0u);
}

TEST(VirtualLinkQoS, InetPairSumsMatchWalkOrderSum) {
  util::Rng rng(17);
  TopologyConfig tc;
  tc.node_count = 300;
  const Graph ip = generate_power_law_topology(tc, rng);
  OverlayConfig oc;
  oc.member_count = 40;
  oc.max_loss_rate = 0.01;
  const OverlayMesh mesh(ip, oc, rng);
  check_every_pair(mesh);
  // Lossy links: the loss dimension is exercised, not just zero.
  EXPECT_GT(mesh.virtual_link_qos(0, 1).additive_loss, 0.0);
}

}  // namespace
}  // namespace acp::net
