// Differential test of core::ClaimLedger — the windowed engine's per-request
// admission bookkeeping — against the linear scans it replaced, kept here
// as the reference: every admission scanned the request's whole claim list
// twice per overlay link (once for a (link, tag) refresh, once to subtract
// the other-tag claims). Seeded sequences on a torus admit overlapping
// virtual links and nodes, refresh (link, tag) and (node, tag) pairs, fail
// all-or-nothing partway along a virtual link, and change the frozen pool
// state between admissions. After every step both ledgers must have made
// the same admit decision and must read bit-identical availabilities for
// every link, node and tag.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/claim_ledger.h"
#include "util/rng.h"
#include "util/small_vec.h"

namespace acp::core {
namespace {

using stream::NodeId;
using stream::RequestId;
using stream::ResourceVector;
using stream::StreamSystem;

// ---- Reference: the linear-scan admission ---------------------------------

class ScanLedger {
 public:
  ScanLedger(const StreamSystem& sys, RequestId rid) : sys_(&sys), rid_(rid) {}

  std::optional<ResourceVector> node_available(std::uint32_t tag, NodeId node,
                                               double now) const {
    for (const auto& rec : node_claims_) {
      if (rec.node == node && rec.tag == tag) return std::nullopt;
    }
    ResourceVector avail = sys_->node_pool(node).available_excluding(now, rid_);
    for (const auto& rec : node_claims_) {
      if (rec.node == node && rec.tag != tag) avail -= rec.amount;
    }
    return avail;
  }

  std::optional<double> link_available(std::uint32_t tag, net::OverlayLinkIndex l,
                                       double now) const {
    for (const auto& rec : link_claims_) {
      if (rec.link == l && rec.tag == tag) return std::nullopt;
    }
    double avail = sys_->link_pool(l).available_excluding(now, rid_);
    for (const auto& rec : link_claims_) {
      if (rec.link == l && rec.tag != tag) avail -= rec.kbps;
    }
    return avail;
  }

  bool admit_node(std::uint32_t tag, NodeId node, const ResourceVector& amount, double now) {
    for (const auto& rec : node_claims_) {
      if (rec.node == node && rec.tag == tag) return true;  // refresh
    }
    ResourceVector avail = sys_->node_pool(node).available_excluding(now, rid_);
    for (const auto& rec : node_claims_) {
      if (rec.node == node && rec.tag != tag) avail -= rec.amount;
    }
    if (!stream::pool_fits(amount, avail)) return false;
    node_claims_.push_back({node, tag, amount});
    return true;
  }

  /// As the protocol's admission did; `admitted_links` reports how many
  /// overlay links passed before a failure (or in total).
  bool admit_link(std::uint32_t tag, NodeId a, NodeId b, double kbps, double now,
                  std::size_t* admitted_links, std::size_t* refreshed_links) {
    bool ok = true;
    util::SmallVec<net::OverlayLinkIndex, 16> fresh;
    *admitted_links = 0;
    *refreshed_links = 0;
    sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
      if (!ok) return;
      for (const auto& rec : link_claims_) {
        if (rec.link == l && rec.tag == tag) {
          ++*admitted_links;
          ++*refreshed_links;
          return;  // already claimed: refresh
        }
      }
      double avail = sys_->link_pool(l).available_excluding(now, rid_);
      for (const auto& rec : link_claims_) {
        if (rec.link == l && rec.tag != tag) avail -= rec.kbps;
      }
      if (!stream::pool_fits(kbps, avail)) {
        ok = false;
        return;
      }
      ++*admitted_links;
      fresh.push_back(l);
    });
    if (!ok) return false;
    for (const net::OverlayLinkIndex l : fresh) link_claims_.push_back({l, tag, kbps});
    return true;
  }

  /// Other-tag claims a fresh `tag` claim on `l` is checked against.
  std::size_t other_tag_claims(std::uint32_t tag, net::OverlayLinkIndex l) const {
    std::size_t n = 0;
    for (const auto& rec : link_claims_) n += rec.link == l && rec.tag != tag ? 1 : 0;
    return n;
  }

 private:
  struct NodeClaim {
    NodeId node;
    std::uint32_t tag;
    ResourceVector amount;
  };
  struct LinkClaim {
    net::OverlayLinkIndex link;
    std::uint32_t tag;
    double kbps;
  };
  const StreamSystem* sys_;
  RequestId rid_;
  util::SmallVec<NodeClaim, 16> node_claims_;
  util::SmallVec<LinkClaim, 32> link_claims_;
};

// ---- World ------------------------------------------------------------------

constexpr RequestId kRequest = 1;
constexpr std::uint32_t kTags = 4;

std::unique_ptr<StreamSystem> make_system(const net::OverlayMesh& mesh, util::Rng& rng) {
  auto sys = std::make_unique<StreamSystem>(mesh, stream::FunctionCatalog::generate(4, rng));
  for (NodeId n = 0; n < sys->node_count(); ++n) {
    sys->set_node_capacity(n, ResourceVector(rng.uniform(60.0, 120.0), rng.uniform(600.0, 1200.0)));
  }
  return sys;
}

/// How often the sequences hit each interesting case (asserted non-zero,
/// so the random mix cannot silently stop exercising one).
struct Tally {
  std::size_t link_admits = 0;
  std::size_t link_refreshes = 0;     ///< an admitted virtual link refreshed a claimed link
  std::size_t partial_failures = 0;   ///< failed after at least one link passed
  std::size_t chained_reads = 0;      ///< availability read over >= 2 other-tag claims
  std::size_t node_refreshes = 0;
  std::size_t node_failures = 0;
  std::size_t pool_changes = 0;
};

void expect_equal(const std::optional<double>& fast, const std::optional<double>& ref,
                  const std::string& where) {
  ASSERT_EQ(fast.has_value(), ref.has_value()) << where;
  if (fast) {
    EXPECT_EQ(*fast, *ref) << where;
  }
}

void run_sequence(std::uint64_t seed, Tally& tally) {
  util::Rng rng(seed * 7919 + 3);
  const net::OverlayMesh mesh = net::OverlayMesh::torus(5, 6, 1.0, 1000.0);
  std::unique_ptr<StreamSystem> sys = make_system(mesh, rng);
  const auto pick_node = [&] { return static_cast<NodeId>(rng.below(sys->node_count())); };
  const auto pick_link = [&] {
    return static_cast<net::OverlayLinkIndex>(rng.below(mesh.link_count()));
  };

  // Other requests' holds make pool availability uneven; some links sit
  // close to full, so long virtual links fail partway.
  RequestId next_other = 100;
  double now = 0.0;
  const auto load_link = [&] {
    const net::OverlayLinkIndex l = pick_link();
    const double kbps = rng.uniform(0.2, 0.9) * mesh.link(l).capacity_kbps;
    sys->link_pool(l).force_reserve_transient(next_other++, 0, kbps, now,
                                              now + rng.uniform(1.0, 40.0));
  };
  for (std::size_t i = 0; i < mesh.link_count() / 2; ++i) load_link();
  for (NodeId n = 0; n < sys->node_count(); ++n) {
    if (rng.below(2) == 0) {
      sys->node_pool(n).commit(
          ResourceVector(rng.uniform(10.0, 50.0), rng.uniform(100.0, 500.0)), 0.0);
    }
  }

  ClaimLedger fast(*sys, kRequest);
  ScanLedger ref(*sys, kRequest);
  struct Admitted {
    std::uint32_t tag;
    NodeId a;
    NodeId b;
  };
  std::vector<Admitted> admitted;

  for (int step = 0; step < 300; ++step) {
    const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.6) {
      // A virtual link: half the time one already admitted (a refresh) or
      // one sharing its start with a new tag or end, else a fresh pair.
      std::uint32_t tag = static_cast<std::uint32_t>(rng.below(kTags));
      NodeId a = pick_node();
      NodeId b = pick_node();
      if (!admitted.empty() && rng.bernoulli(0.5)) {
        const Admitted& prev = admitted[rng.below(admitted.size())];
        a = prev.a;
        if (rng.bernoulli(0.5)) b = prev.b;
        if (rng.bernoulli(0.6)) tag = prev.tag;
      }
      if (a == b) continue;
      const double kbps = rng.uniform(15.0, 260.0);
      std::size_t passed = 0;
      std::size_t refreshed = 0;
      const bool want = ref.admit_link(tag, a, b, kbps, now, &passed, &refreshed);
      ASSERT_EQ(fast.admit_link(tag, a, b, kbps, now), want) << where;
      if (want) {
        ++tally.link_admits;
        if (refreshed > 0) ++tally.link_refreshes;
        admitted.push_back({tag, a, b});
      } else if (passed > 0) {
        ++tally.partial_failures;
      }
    } else if (roll < 0.85) {
      const std::uint32_t tag = static_cast<std::uint32_t>(rng.below(kTags));
      const NodeId n = pick_node();
      const ResourceVector amount(rng.uniform(2.0, 40.0), rng.uniform(20.0, 400.0));
      if (!ref.node_available(tag, n, now)) ++tally.node_refreshes;
      const bool want = ref.admit_node(tag, n, amount, now);
      ASSERT_EQ(fast.admit_node(tag, n, amount, now), want) << where;
      if (!want) ++tally.node_failures;
    } else {
      // A new window: other requests' holds come, go and expire.
      ++tally.pool_changes;
      if (rng.bernoulli(0.5)) {
        load_link();
      } else {
        sys->link_pool(pick_link()).cancel_request(100 + rng.below(next_other - 100));
      }
      now += rng.uniform(0.0, 3.0);
    }

    for (net::OverlayLinkIndex l = 0; l < mesh.link_count(); ++l) {
      for (std::uint32_t tag = 0; tag < kTags; ++tag) {
        if (ref.other_tag_claims(tag, l) >= 2) ++tally.chained_reads;
        expect_equal(fast.link_available(tag, l, now), ref.link_available(tag, l, now),
                     where + " link " + std::to_string(l) + " tag " + std::to_string(tag));
      }
    }
    for (NodeId n = 0; n < sys->node_count(); ++n) {
      for (std::uint32_t tag = 0; tag < kTags; ++tag) {
        const auto f = fast.node_available(tag, n, now);
        const auto r = ref.node_available(tag, n, now);
        ASSERT_EQ(f.has_value(), r.has_value()) << where << " node " << n;
        if (!f) continue;
        EXPECT_EQ(f->cpu(), r->cpu()) << where << " node " << n;
        EXPECT_EQ(f->memory_mb(), r->memory_mb()) << where << " node " << n;
      }
    }
    if (testing::Test::HasFailure()) return;
  }
}

TEST(ClaimLedger, MatchesLinearScanAdmissionOnTorus) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    run_sequence(seed, tally);
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(tally.link_admits, 0u);
  EXPECT_GT(tally.link_refreshes, 0u);
  EXPECT_GT(tally.partial_failures, 0u);
  EXPECT_GT(tally.chained_reads, 0u);
  EXPECT_GT(tally.node_refreshes, 0u);
  EXPECT_GT(tally.node_failures, 0u);
  EXPECT_GT(tally.pool_changes, 0u);
}

}  // namespace
}  // namespace acp::core
