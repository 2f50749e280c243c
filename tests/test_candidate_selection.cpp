// Tests for per-hop candidate selection: risk function D(c) (Eq. 9),
// congestion function W(c) (Eq. 10), qualification filtering (Eqs. 6–8),
// and best-M / random-M selection.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/candidate_selection.h"
#include "core/whatif.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "state/global_state.h"

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
  const double link_delay = mesh->virtual_link_qos(0, 1).delay_ms;
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
    ASSERT_TRUE(sys->link_pool(l).commit(cap - 50.0, 0.0));
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

// ---- One filter-and-score pass ----------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Forwards to another view, counting node reads per node and virtual-link
/// reads per ordered pair.
class HopReadCounter final : public stream::StateView {
 public:
  explicit HopReadCounter(const stream::StateView& inner) : inner_(inner) {}

  ResourceVector node_available(stream::NodeId node, double now) const override {
    ++node_reads[node];
    return inner_.node_available(node, now);
  }
  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    return inner_.link_available_kbps(l, now);
  }
  double virtual_link_available_kbps(const net::OverlayMesh& mesh, stream::NodeId a,
                                     stream::NodeId b, double now) const override {
    ++virtual_link_reads[{a, b}];
    return inner_.virtual_link_available_kbps(mesh, a, b, now);
  }

  mutable std::map<stream::NodeId, int> node_reads;
  mutable std::map<std::pair<stream::NodeId, stream::NodeId>, int> virtual_link_reads;

 private:
  const stream::StateView& inner_;
};

/// The per-hop qualification check by check, reading `view` afresh for each
/// check and scoring nothing: the reference for qualified ids and reasons.
std::vector<ComponentId> reference_filter(const HopContext& ctx, const stream::StateView& view,
                                          const std::vector<ComponentId>& candidates,
                                          HopFilterStats& stats) {
  stats = HopFilterStats{};
  std::vector<ComponentId> out;
  const ResourceVector& required = ctx.req->graph.node(ctx.next_fn).required;
  for (ComponentId c : candidates) {
    const stream::Component& cand = ctx.sys->component(c);
    if (!ctx.req->policy.admits(ctx.sys->component_attributes(c))) {
      ++stats.policy;
      continue;
    }
    if (ctx.has_upstream && !ctx.sys->catalog().compatible(ctx.current_function, cand.function)) {
      ++stats.rate_incompatible;
      continue;
    }
    QoSVector total = ctx.accumulated;
    total += cand.qos;
    if (ctx.has_upstream) total += ctx.sys->virtual_link_qos(ctx.current_node, cand.node);
    if (!total.satisfies(ctx.req->qos_req)) {
      ++stats.qos_bound;
      continue;
    }
    if (!required.fits_within(view.node_available(cand.node, ctx.now))) {
      ++stats.node_resources;
      continue;
    }
    if (ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0 &&
        ctx.edge_bw_kbps > view.virtual_link_available_kbps(ctx.sys->mesh(), ctx.current_node,
                                                            cand.node, ctx.now)) {
      ++stats.link_bandwidth;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// A 30-member Inet world with 24 candidates for function 1 (every third
/// co-located with the one before it, security levels cycling), loaded nodes
/// and links, and a coarse view that misses the load committed after start.
struct PassWorld : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 300;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 30;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(6, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(wrng.uniform(30.0, 100.0),
                                               wrng.uniform(300.0, 1000.0)));
    }
    for (int i = 0; i < 24; ++i) {
      const stream::NodeId node =
          i % 3 == 2 ? sys->component(cands.back()).node
                     : static_cast<stream::NodeId>(wrng.below(sys->node_count()));
      cands.push_back(sys->add_component(
          1, node, QoSVector::from_metrics(wrng.uniform(5.0, 60.0), wrng.uniform(0.0, 0.01))));
      sys->set_component_attributes(
          cands.back(), {static_cast<stream::SecurityLevel>(i % 4), stream::LicenseClass::kPermissive});
    }
    req.id = 1;
    req.graph.add_node(0, ResourceVector(10.0, 100.0));
    req.graph.add_node(1, ResourceVector(20.0, 200.0));
    req.graph.add_edge(0, 1, 100.0);
    req.qos_req = QoSVector::from_metrics(150.0, 0.05);

    load(1);  // seen by the coarse view
    global = std::make_unique<state::GlobalStateManager>(*sys, engine, counters);
    global->start();
    load(2);  // only the true state sees this
  }

  /// Commits up to 60% of each node's capacity and up to all of every other
  /// link's, under `session`.
  void load(stream::SessionId session) {
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      const ResourceVector avail = sys->node_pool(n).available(0.0);
      const double f = wrng.uniform(0.0, 0.6);
      ASSERT_TRUE(sys->commit_node_direct(session, n,
                                          ResourceVector(f * avail.cpu(), f * avail.memory_mb()),
                                          0.0));
    }
    for (net::OverlayLinkIndex l = session % 2; l < mesh->link_count(); l += 2) {
      const double f = wrng.uniform(0.0, 0.999);
      ASSERT_TRUE(sys->link_pool(l).commit(f * sys->link_pool(l).available(0.0), 0.0));
    }
  }

  util::Rng wrng{45};
  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::vector<ComponentId> cands;
  workload::Request req;
  sim::Engine engine;
  obs::MetricsRegistry counters;
  std::unique_ptr<state::GlobalStateManager> global;
};

TEST_F(PassWorld, OnePassQualifiesScoresAndRanksLikeTheReferences) {
  std::map<stream::NodeId, int> hosted;
  for (ComponentId c : cands) ++hosted[sys->component(c).node];
  double link_cap = 0.0;
  for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
    link_cap = std::max(link_cap, sys->link_pool(l).capacity());
  }
  const std::array<double, 5> edge_bw{0.0, 1e-3 * link_cap, 0.05 * link_cap, 0.3 * link_cap,
                                      0.8 * link_cap};
  const std::array<RankingPolicy, 3> policies{RankingPolicy::kRiskThenCongestion,
                                              RankingPolicy::kRiskOnly,
                                              RankingPolicy::kCongestionOnly};
  const std::array<const stream::StateView*, 2> views{&global->view(), &sys->true_state()};
  HopFilterStats seen;
  std::size_t colocated = 0, upstream_free = 0, ranked = 0;
  util::Rng rng(46);

  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE(trial);
    HopContext ctx;
    ctx.sys = sys.get();
    ctx.req = &req;
    ctx.next_fn = 1;
    req.policy = stream::PolicyConstraint{};
    if (rng.below(4) == 0) req.policy.require_security(stream::SecurityLevel::kBasic);
    ctx.accumulated = QoSVector::from_metrics(rng.uniform(0.0, 120.0), rng.uniform(0.0, 0.04));
    if (rng.below(4) != 0) {
      ctx.has_upstream = true;
      ctx.current_node = rng.below(3) == 0 ? sys->component(cands[rng.below(cands.size())]).node
                                           : static_cast<stream::NodeId>(
                                                 rng.below(sys->node_count()));
      ctx.current_function = static_cast<stream::FunctionId>(rng.below(sys->catalog().size()));
      ctx.edge_bw_kbps = edge_bw[rng.below(edge_bw.size())];
    } else {
      ++upstream_free;
    }

    for (const stream::StateView* view : views) {
      HopFilterStats want_stats;
      const auto want = reference_filter(ctx, *view, cands, want_stats);
      const HopReadCounter counted(*view);
      std::vector<ScoredCandidate> scored;
      HopFilterStats stats;
      filter_qualified_into(ctx, counted, cands, scored, &stats);

      std::vector<ComponentId> got;
      for (const ScoredCandidate& sc : scored) got.push_back(sc.id);
      EXPECT_EQ(got, want);
      EXPECT_EQ(stats.policy, want_stats.policy);
      EXPECT_EQ(stats.rate_incompatible, want_stats.rate_incompatible);
      EXPECT_EQ(stats.qos_bound, want_stats.qos_bound);
      EXPECT_EQ(stats.node_resources, want_stats.node_resources);
      EXPECT_EQ(stats.link_bandwidth, want_stats.link_bandwidth);
      if (view == views[0]) {
        seen.policy += stats.policy;
        seen.rate_incompatible += stats.rate_incompatible;
        seen.qos_bound += stats.qos_bound;
        seen.node_resources += stats.node_resources;
        seen.link_bandwidth += stats.link_bandwidth;
      }

      for (const ScoredCandidate& sc : scored) {
        EXPECT_EQ(bits(sc.risk), bits(risk_function(ctx, sc.id)));
        EXPECT_EQ(bits(sc.congestion), bits(congestion_function(ctx, *view, sc.id)));
        colocated += ctx.has_upstream && sys->component(sc.id).node == ctx.current_node;
      }

      // Each candidate's node and virtual link is read at most once.
      for (const auto& [node, reads] : counted.node_reads) EXPECT_LE(reads, hosted[node]);
      for (const auto& [pair, reads] : counted.virtual_link_reads) {
        EXPECT_EQ(pair.first, ctx.current_node);
        EXPECT_LE(reads, hosted[pair.second]);
      }

      for (const RankingPolicy policy : policies) {
        for (const std::size_t m : {std::size_t{1}, std::size_t{3}, scored.size() / 2,
                                    scored.size() + 1}) {
          auto best = scored;
          select_best_into(best, m, 0.05, policy);
          std::vector<ComponentId> best_ids;
          for (const ScoredCandidate& sc : best) best_ids.push_back(sc.id);
          EXPECT_EQ(best_ids, select_best(ctx, *view, want, m, 0.05, policy));
          ranked += scored.size() > m;
        }
      }
    }
  }
  // Every check, co-location, the no-upstream hop and the ranking all ran.
  EXPECT_GT(seen.policy, 0u);
  EXPECT_GT(seen.rate_incompatible, 0u);
  EXPECT_GT(seen.qos_bound, 0u);
  EXPECT_GT(seen.node_resources, 0u);
  EXPECT_GT(seen.link_bandwidth, 0u);
  EXPECT_GT(colocated, 0u);
  EXPECT_GT(upstream_free, 0u);
  EXPECT_GT(ranked, 0u);
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
