// Differential tests of CompositionEvaluator against two references kept
// here: the std::map per-node/per-link demand tables and φ computation that
// the flat evaluator replaced, and the evaluator's own earlier aggregation,
// which sorted (link, use position) keys. On seeded random compositions —
// co-located components, branches whose virtual links share overlay links,
// background load, and a RequestScopedView over the request's own
// transients — feasibility must agree, the aggregates and φ must be
// bit-identical, and link_demand() must list links in first-use order. One
// evaluator is reused across every composition, as callers do, so its
// batch indexes grow and shrink between cases and must never serve a stale
// entry.
//
// The batch cases score many compositions over a few shared hosts in one
// evaluation batch — repeated and reversed host pairs, DAG splits and
// merges whose walks share overlay links — and check every score against
// both references and a fresh evaluation outside the batch, that each
// availability is read at most once, that a later batch sees a state
// change, and that a view or time mismatch inside a batch throws. The
// bound cases check that a host pair's term bound is the same bits as a
// minimum over its links' availability whether the pair was bounded before
// a candidate's φ expanded it, after, or never, and that each pair's
// bottleneck is read once per batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/topology.h"
#include "stream/component_graph.h"
#include "stream/session.h"

namespace acp::stream {
namespace {

// ---- Reference: std::map demand tables ------------------------------------

std::map<NodeId, ResourceVector> demand_by_node(const StreamSystem& sys,
                                                const ComponentGraph& g) {
  const FunctionGraph& fg = g.function_graph();
  std::map<NodeId, ResourceVector> demand;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    demand[sys.component(g.component_at(i)).node] += fg.node(i).required;
  }
  return demand;
}

std::map<net::OverlayLinkIndex, double> bandwidth_by_link(const StreamSystem& sys,
                                                          const ComponentGraph& g) {
  const FunctionGraph& fg = g.function_graph();
  std::map<net::OverlayLinkIndex, double> demand;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys.component(g.component_at(edge.from)).node;
    const NodeId b = sys.component(g.component_at(edge.to)).node;
    if (a == b) continue;
    sys.mesh().for_each_virtual_link(
        a, b, [&](net::OverlayLinkIndex l) { demand[l] += edge.required_bandwidth_kbps; });
  }
  return demand;
}

bool resources_feasible(const StreamSystem& sys, const ComponentGraph& g, const StateView& view,
                        double now) {
  for (const auto& [node, demand] : demand_by_node(sys, g)) {
    if (!demand.fits_within(view.node_available(node, now))) return false;
  }
  for (const auto& [link, kbps] : bandwidth_by_link(sys, g)) {
    if (kbps > view.link_available_kbps(link, now)) return false;
  }
  return true;
}

double congestion_aggregation(const StreamSystem& sys, const ComponentGraph& g,
                              const StateView& view, double now) {
  const FunctionGraph& fg = g.function_graph();
  double phi = 0.0;
  const auto node_demand = demand_by_node(sys, g);
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = sys.component(g.component_at(i)).node;
    const ResourceVector residual = view.node_available(node, now) - node_demand.at(node);
    phi += congestion_terms(fg.node(i).required, residual);
  }
  const auto link_demand = bandwidth_by_link(sys, g);
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys.component(g.component_at(edge.from)).node;
    const NodeId b = sys.component(g.component_at(edge.to)).node;
    if (a == b) continue;
    double residual = std::numeric_limits<double>::infinity();
    sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
      residual = std::min(residual, view.link_available_kbps(l, now) - link_demand.at(l));
    });
    phi += congestion_term(edge.required_bandwidth_kbps, residual);
  }
  return phi;
}

// ---- Reference: sort-based aggregation --------------------------------------

// The evaluator's aggregation before its link table: one use per (edge,
// walk step); sorting the (link, position) keys groups each link's uses in
// position order, so each link sums in (edge, walk) order and the links
// come out in ascending id.
struct SortedAggregate {
  std::vector<std::pair<NodeId, ResourceVector>> nodes;  ///< first-use order
  std::vector<std::uint32_t> fn_slot;                    ///< fn node → nodes index
  std::vector<std::pair<net::OverlayLinkIndex, double>> links;  ///< ascending id
  std::vector<std::uint32_t> edge_end;  ///< edge → one past its last use position
  std::vector<std::uint32_t> use_slot;  ///< use position → links index
};

SortedAggregate sorted_aggregate(const StreamSystem& sys, const FunctionGraph& fg,
                                 const std::vector<ComponentId>& assignment) {
  SortedAggregate agg;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = sys.component(assignment[i]).node;
    std::uint32_t slot = 0;
    while (slot < agg.nodes.size() && agg.nodes[slot].first != node) ++slot;
    if (slot == agg.nodes.size()) agg.nodes.emplace_back(node, ResourceVector{});
    agg.nodes[slot].second += fg.node(i).required;
    agg.fn_slot.push_back(slot);
  }
  std::vector<std::uint64_t> uses;
  std::vector<double> use_kbps;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys.component(assignment[edge.from]).node;
    const NodeId b = sys.component(assignment[edge.to]).node;
    if (a != b) {
      sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
        uses.push_back((std::uint64_t{l} << 32) | uses.size());
        use_kbps.push_back(edge.required_bandwidth_kbps);
      });
    }
    agg.edge_end.push_back(static_cast<std::uint32_t>(uses.size()));
  }
  std::sort(uses.begin(), uses.end());
  agg.use_slot.resize(uses.size());
  for (const std::uint64_t use : uses) {
    const auto link = static_cast<net::OverlayLinkIndex>(use >> 32);
    const auto pos = static_cast<std::uint32_t>(use);
    if (agg.links.empty() || agg.links.back().first != link) agg.links.emplace_back(link, 0.0);
    agg.links.back().second += use_kbps[pos];
    agg.use_slot[pos] = static_cast<std::uint32_t>(agg.links.size() - 1);
  }
  return agg;
}

/// φ over the sorted aggregation, term for term as the evaluator adds them.
std::optional<double> sorted_phi(const StreamSystem& sys, const FunctionGraph& fg,
                                 const std::vector<ComponentId>& assignment,
                                 const StateView& view, double now) {
  const SortedAggregate agg = sorted_aggregate(sys, fg, assignment);
  std::vector<ResourceVector> node_residual;
  for (const auto& [node, demand] : agg.nodes) {
    const ResourceVector avail = view.node_available(node, now);
    if (!demand.fits_within(avail)) return std::nullopt;
    node_residual.push_back(avail - demand);
  }
  std::vector<double> link_residual;
  for (const auto& [link, kbps] : agg.links) {
    const double avail = view.link_available_kbps(link, now);
    if (kbps > avail) return std::nullopt;
    link_residual.push_back(avail - kbps);
  }
  double phi = 0.0;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    phi += congestion_terms(fg.node(i).required, node_residual[agg.fn_slot[i]]);
  }
  std::uint32_t pos = 0;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    if (pos == agg.edge_end[e]) continue;
    double residual = std::numeric_limits<double>::infinity();
    for (; pos < agg.edge_end[e]; ++pos) {
      residual = std::min(residual, link_residual[agg.use_slot[pos]]);
    }
    phi += congestion_term(fg.edge(e).required_bandwidth_kbps, residual);
  }
  return phi;
}

/// The assignment's overlay links in first-use (edge, walk) order, each once.
std::vector<net::OverlayLinkIndex> first_use_order(const StreamSystem& sys,
                                                   const ComponentGraph& g) {
  const FunctionGraph& fg = g.function_graph();
  std::vector<net::OverlayLinkIndex> order;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const NodeId a = sys.component(g.component_at(fg.edge(e).from)).node;
    const NodeId b = sys.component(g.component_at(fg.edge(e).to)).node;
    if (a == b) continue;
    sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
      if (std::find(order.begin(), order.end(), l) == order.end()) order.push_back(l);
    });
  }
  return order;
}

// ---- Random worlds and compositions ---------------------------------------

struct World {
  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> sys;
  double min_link_kbps = 0.0;
};

void populate(World& w, util::Rng& rng) {
  w.sys = std::make_unique<StreamSystem>(*w.mesh, FunctionCatalog::generate(8, rng));
  for (NodeId n = 0; n < w.sys->node_count(); ++n) {
    w.sys->set_node_capacity(n, ResourceVector(rng.uniform(80.0, 120.0),
                                               rng.uniform(800.0, 1200.0)));
  }
  w.min_link_kbps = std::numeric_limits<double>::infinity();
  for (net::OverlayLinkIndex l = 0; l < w.mesh->link_count(); ++l) {
    w.min_link_kbps = std::min(w.min_link_kbps, w.mesh->link(l).capacity_kbps);
  }
  // Background load: direct commits on a third of the nodes and links.
  for (NodeId n = 0; n < w.sys->node_count(); ++n) {
    if (rng.below(3) != 0) continue;
    w.sys->commit_node_direct(1000 + n, n,
                              ResourceVector(rng.uniform(0.0, 60.0), rng.uniform(0.0, 600.0)),
                              0.0);
  }
  for (net::OverlayLinkIndex l = 0; l < w.mesh->link_count(); ++l) {
    if (rng.below(3) != 0) continue;
    w.sys->link_pool(l).commit(rng.uniform(0.0, 0.6) * w.min_link_kbps, 0.0);
  }
}

World inet_world(std::uint64_t seed) {
  World w;
  util::Rng rng(seed);
  net::TopologyConfig tc;
  tc.node_count = 160;
  w.ip = net::generate_power_law_topology(tc, rng);
  net::OverlayConfig oc;
  oc.member_count = 16;
  w.mesh = std::make_unique<net::OverlayMesh>(w.ip, oc, rng);
  populate(w, rng);
  return w;
}

World torus_world(std::uint64_t seed, std::size_t rows = 5, std::size_t cols = 6) {
  World w;
  util::Rng rng(seed);
  w.mesh = std::make_unique<net::OverlayMesh>(net::OverlayMesh::torus(rows, cols, 1.0, 1000.0));
  populate(w, rng);
  return w;
}

/// A random chain, or a DAG of 2–3 branches between one source and one
/// sink, with every fn node hosted on one of a few nodes so co-location and
/// link sharing between branches are common.
FunctionGraph random_graph(util::Rng& rng, double link_kbps) {
  FunctionGraph fg;
  auto demand = [&] { return ResourceVector(rng.uniform(2.0, 35.0), rng.uniform(20.0, 350.0)); };
  auto bw = [&] { return rng.uniform(0.02, 0.35) * link_kbps; };
  const FnNodeIndex src = fg.add_node(0, demand());
  const std::size_t branches = 1 + static_cast<std::size_t>(rng.below(3));
  std::vector<FnNodeIndex> tails;
  for (std::size_t b = 0; b < branches; ++b) {
    FnNodeIndex prev = src;
    const std::size_t len = 1 + static_cast<std::size_t>(rng.below(3));
    for (std::size_t i = 0; i < len; ++i) {
      const FnNodeIndex n = fg.add_node(static_cast<FunctionId>(1 + i), demand());
      fg.add_edge(prev, n, bw());
      prev = n;
    }
    tails.push_back(prev);
  }
  if (branches > 1) {
    const FnNodeIndex sink = fg.add_node(4, demand());
    for (FnNodeIndex t : tails) fg.add_edge(t, sink, bw());
  }
  return fg;
}

struct Tally {
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t colocated = 0;    ///< some node hosts two or more fn nodes
  std::size_t shared_link = 0;  ///< some overlay link carries two or more edges
  std::size_t grew = 0;         ///< more link uses than the previous composition
  std::size_t shrank = 0;       ///< fewer link uses than the previous composition
  std::size_t max_uses = 0;
  // Batches only.
  std::size_t triple_link = 0;    ///< some overlay link carries three or more edges
  std::size_t repeated_pair = 0;  ///< an edge whose (a, b) the batch already walked
  std::size_t reversed_pair = 0;  ///< an edge whose (b, a) the batch already walked
  std::size_t changed = 0;        ///< φ or feasibility moved with the state
};

void check_world(World& w, std::uint64_t seed, Tally& tally) {
  StreamSystem& sys = *w.sys;
  util::Rng rng(seed);
  CompositionEvaluator eval(sys);  // reused across every case, as callers do
  std::size_t prev_uses = 0;
  for (int round = 0; round < 150; ++round) {
    const RequestId rid = 1 + static_cast<RequestId>(round);
    const FunctionGraph fg = random_graph(rng, w.min_link_kbps);
    // Hosts drawn from a small pool: co-location and shared links.
    std::vector<NodeId> pool(3 + rng.below(3));
    for (NodeId& n : pool) n = static_cast<NodeId>(rng.below(sys.node_count()));
    ComponentGraph g(fg);
    for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
      g.assign(i, sys.add_component(fg.node(i).function, pool[rng.below(pool.size())], {}));
    }

    // The request's own transients on some of its hosts and links (the
    // scoped view reads them as available), plus another request's.
    for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
      if (rng.below(2) == 0) continue;
      const RequestId owner = rng.below(3) == 0 ? rid + 100000 : rid;
      sys.reserve_node_transient(owner, node_tag(i), sys.component(g.component_at(i)).node,
                                 fg.node(i).required, 0.0, 60.0);
    }
    for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
      if (rng.below(2) == 0) continue;
      const FnEdge& edge = fg.edge(e);
      sys.reserve_virtual_link_transient(rid, link_tag(fg, e),
                                         sys.component(g.component_at(edge.from)).node,
                                         sys.component(g.component_at(edge.to)).node,
                                         edge.required_bandwidth_kbps, 0.0, 60.0);
    }

    const auto node_ref = demand_by_node(sys, g);
    const auto link_ref = bandwidth_by_link(sys, g);
    if (node_ref.size() < fg.node_count()) ++tally.colocated;
    std::size_t link_uses = 0;
    for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
      const NodeId a = sys.component(g.component_at(fg.edge(e).from)).node;
      const NodeId b = sys.component(g.component_at(fg.edge(e).to)).node;
      if (a != b) link_uses += sys.mesh().virtual_link_hops(a, b);
    }
    if (link_ref.size() < link_uses) ++tally.shared_link;
    tally.grew += link_uses > prev_uses ? 1 : 0;
    tally.shrank += link_uses < prev_uses ? 1 : 0;
    tally.max_uses = std::max(tally.max_uses, link_uses);
    prev_uses = link_uses;

    // Aggregated demand: the same totals, bit for bit, as both references;
    // links in first-use order.
    eval.aggregate(fg, g.assignment());
    ASSERT_EQ(eval.node_demand().size(), node_ref.size());
    for (const auto& n : eval.node_demand()) EXPECT_EQ(n.demand, node_ref.at(n.node));
    const SortedAggregate sorted = sorted_aggregate(sys, fg, g.assignment());
    const std::map<net::OverlayLinkIndex, double> sorted_totals(sorted.links.begin(),
                                                                sorted.links.end());
    const auto order = first_use_order(sys, g);
    ASSERT_EQ(eval.link_demand().size(), link_ref.size());
    ASSERT_EQ(eval.link_demand().size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& l = eval.link_demand()[i];
      EXPECT_EQ(l.link, order[i]) << "seed " << seed << " round " << round;
      EXPECT_EQ(l.kbps, link_ref.at(l.link));
      EXPECT_EQ(l.kbps, sorted_totals.at(l.link));
    }

    const StreamSystem::RequestScopedView scoped(sys, rid);
    for (const StateView* view : {&sys.true_state(), static_cast<const StateView*>(&scoped)}) {
      const bool feasible = resources_feasible(sys, g, *view, 0.0);
      const auto phi = eval.phi(fg, g.assignment(), *view, 0.0);
      const auto phi_sorted = sorted_phi(sys, fg, g.assignment(), *view, 0.0);
      ASSERT_EQ(phi.has_value(), feasible) << "seed " << seed << " round " << round;
      ASSERT_EQ(phi_sorted.has_value(), feasible) << "seed " << seed << " round " << round;
      if (!feasible) {
        ++tally.infeasible;
        continue;
      }
      ++tally.feasible;
      EXPECT_EQ(*phi, congestion_aggregation(sys, g, *view, 0.0))
          << "seed " << seed << " round " << round;
      EXPECT_EQ(*phi, *phi_sorted) << "seed " << seed << " round " << round;
    }
    sys.cancel_request(rid);
    sys.cancel_request(rid + 100000);
  }
}

TEST(CompositionEvaluatorDifferential, MatchesMapReferenceOnInet) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    World w = inet_world(seed);
    check_world(w, seed * 31, tally);
  }
  EXPECT_GE(tally.feasible, 100u);
  EXPECT_GE(tally.infeasible, 50u);
  EXPECT_GE(tally.colocated, 100u);
  EXPECT_GE(tally.shared_link, 50u);
}

TEST(CompositionEvaluatorDifferential, MatchesMapReferenceOnTorus) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    World w = torus_world(seed);
    check_world(w, seed * 37, tally);
  }
  EXPECT_GE(tally.feasible, 100u);
  EXPECT_GE(tally.infeasible, 50u);
  EXPECT_GE(tally.colocated, 100u);
  EXPECT_GE(tally.shared_link, 50u);
}

// A 16×20 torus has virtual links of up to 18 hops, so compositions range
// from no link use at all to well past the evaluator's inline capacity: the
// reused link table grows, and smaller compositions then run over a table
// that still holds a larger one's entries past their prefix.
TEST(CompositionEvaluatorDifferential, ReusedEvaluatorGrowsAndShrinksOnLargeTorus) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    World w = torus_world(seed, 16, 20);
    check_world(w, seed * 41, tally);
  }
  EXPECT_GE(tally.grew, 100u);
  EXPECT_GE(tally.shrank, 100u);
  EXPECT_GE(tally.max_uses, 100u);
  EXPECT_GE(tally.feasible, 50u);
  EXPECT_GE(tally.shared_link, 50u);
}

// ---- Batches ------------------------------------------------------------------

/// Forwards to another view and counts each node's and each link's reads.
class CountingView final : public StateView {
 public:
  explicit CountingView(const StateView& inner) : inner_(&inner) {}

  ResourceVector node_available(NodeId node, double now) const override {
    ++node_reads[node];
    return inner_->node_available(node, now);
  }
  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    ++link_reads[l];
    return inner_->link_available_kbps(l, now);
  }

  int max_reads() const {
    int most = 0;
    for (const auto& [node, n] : node_reads) most = std::max(most, n);
    for (const auto& [link, n] : link_reads) most = std::max(most, n);
    return most;
  }
  void clear() {
    node_reads.clear();
    link_reads.clear();
  }

  mutable std::map<NodeId, int> node_reads;
  mutable std::map<net::OverlayLinkIndex, int> link_reads;

 private:
  const StateView* inner_;
};

/// One composition of a batch: its graph lives on the heap, where the
/// ComponentGraph's pointer to it stays valid.
struct BatchCase {
  std::unique_ptr<FunctionGraph> fg;
  std::optional<ComponentGraph> g;
};

/// Scores each case in one batch bound to (`view`, `now`); every score must
/// equal the map reference, the sort reference and a fresh evaluation
/// outside the batch against `plain` (the state `view` counts reads of),
/// and aggregate() inside the batch must keep each case's first-use order.
std::vector<std::optional<double>> score_in_batch(const StreamSystem& sys,
                                                  CompositionEvaluator& eval,
                                                  const std::vector<BatchCase>& cases,
                                                  const StateView& view, const StateView& plain,
                                                  double now, std::uint64_t seed, Tally& tally) {
  std::vector<std::optional<double>> scores;
  const auto batch = eval.batch(view, now);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const FunctionGraph& fg = *cases[c].fg;
    const ComponentGraph& g = *cases[c].g;
    const auto phi = eval.phi(fg, g.assignment(), view, now);
    scores.push_back(phi);

    const bool feasible = resources_feasible(sys, g, plain, now);
    const auto fresh = CompositionEvaluator(sys).phi(fg, g.assignment(), plain, now);
    const auto sorted = sorted_phi(sys, fg, g.assignment(), plain, now);
    EXPECT_EQ(phi.has_value(), feasible) << "seed " << seed << " case " << c;
    EXPECT_EQ(fresh.has_value(), feasible) << "seed " << seed << " case " << c;
    EXPECT_EQ(sorted.has_value(), feasible) << "seed " << seed << " case " << c;
    if (phi && feasible) {
      ++tally.feasible;
      EXPECT_EQ(*phi, congestion_aggregation(sys, g, plain, now))
          << "seed " << seed << " case " << c;
      EXPECT_EQ(*phi, sorted.value_or(-1.0)) << "seed " << seed << " case " << c;
      EXPECT_EQ(*phi, fresh.value_or(-1.0)) << "seed " << seed << " case " << c;
    } else if (!feasible) {
      ++tally.infeasible;
    }

    // Aggregated inside the batch, from its walks: each case's own
    // first-use order and totals.
    eval.aggregate(fg, g.assignment());
    const auto order = first_use_order(sys, g);
    const auto link_ref = bandwidth_by_link(sys, g);
    EXPECT_EQ(eval.link_demand().size(), order.size()) << "seed " << seed << " case " << c;
    for (std::size_t i = 0; i < std::min(order.size(), eval.link_demand().size()); ++i) {
      const auto& l = eval.link_demand()[i];
      EXPECT_EQ(l.link, order[i]) << "seed " << seed << " case " << c;
      EXPECT_EQ(l.kbps, link_ref.at(l.link)) << "seed " << seed << " case " << c;
    }
  }
  return scores;
}

void check_batch(World& w, std::uint64_t seed, Tally& tally) {
  StreamSystem& sys = *w.sys;
  util::Rng rng(seed);
  CompositionEvaluator eval(sys);  // reused across every batch, as callers do
  for (int round = 0; round < 8; ++round) {
    const RequestId rid = 1 + static_cast<RequestId>(round);
    // A few hosts shared by every composition of the batch: host pairs
    // repeat, and reversed pairs (b, a) follow (a, b).
    std::vector<NodeId> hosts(3 + rng.below(3));
    for (NodeId& n : hosts) n = static_cast<NodeId>(rng.below(sys.node_count()));
    std::vector<BatchCase> cases(30);
    std::set<std::pair<NodeId, NodeId>> walked;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      cases[c].fg = std::make_unique<FunctionGraph>(random_graph(rng, w.min_link_kbps));
      const FunctionGraph& fg = *cases[c].fg;
      ComponentGraph& g = cases[c].g.emplace(fg);
      for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
        g.assign(i, sys.add_component(fg.node(i).function, hosts[rng.below(hosts.size())], {}));
      }
      // The request's own transients on some hosts and links (the scoped
      // view reads them as available), and another request's.
      const auto tag = [&](std::uint32_t i) { return static_cast<std::uint32_t>(c * 64 + i); };
      for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
        if (rng.below(3) != 0) continue;
        const RequestId owner = rng.below(3) == 0 ? rid + 100000 : rid;
        sys.reserve_node_transient(owner, tag(i), sys.component(g.component_at(i)).node,
                                   fg.node(i).required, 0.0, 60.0);
      }
      for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
        if (rng.below(3) != 0) continue;
        const FnEdge& edge = fg.edge(e);
        sys.reserve_virtual_link_transient(rid, tag(32 + e),
                                           sys.component(g.component_at(edge.from)).node,
                                           sys.component(g.component_at(edge.to)).node,
                                           edge.required_bandwidth_kbps, 0.0, 60.0);
      }

      if (demand_by_node(sys, g).size() < fg.node_count()) ++tally.colocated;
      std::map<net::OverlayLinkIndex, int> carried;
      for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
        const NodeId a = sys.component(g.component_at(fg.edge(e).from)).node;
        const NodeId b = sys.component(g.component_at(fg.edge(e).to)).node;
        if (a == b) continue;
        tally.repeated_pair += walked.count({a, b});
        tally.reversed_pair += walked.count({b, a});
        walked.insert({a, b});
        sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) { ++carried[l]; });
      }
      int most = 0;
      for (const auto& [link, n] : carried) most = std::max(most, n);
      tally.shared_link += most >= 2 ? 1 : 0;
      tally.triple_link += most >= 3 ? 1 : 0;
    }

    const StreamSystem::RequestScopedView scoped(sys, rid);
    CountingView counting(scoped);
    const auto before = score_in_batch(sys, eval, cases, counting, scoped, 0.0, seed, tally);
    EXPECT_LE(counting.max_reads(), 1) << "seed " << seed << " round " << round;
    EXPECT_FALSE(counting.node_reads.empty());

    // A view or time other than the batch's fails, and so does a second
    // batch; the open batch stays usable.
    {
      const FunctionGraph& fg = *cases[0].fg;
      const ComponentGraph& g = *cases[0].g;
      const auto batch = eval.batch(counting, 0.0);
      EXPECT_THROW(eval.phi(fg, g.assignment(), scoped, 0.0), PreconditionError);
      EXPECT_THROW(eval.phi(fg, g.assignment(), sys.true_state(), 0.0), PreconditionError);
      EXPECT_THROW(eval.phi(fg, g.assignment(), counting, 1.0), PreconditionError);
      EXPECT_THROW(eval.evaluate(g, fg.enumerate_paths(), QoSVector{}, PolicyConstraint{},
                                 scoped, 0.0),
                   PreconditionError);
      EXPECT_THROW((void)eval.batch(counting, 0.0), PreconditionError);
      const auto again = eval.phi(fg, g.assignment(), counting, 0.0);
      ASSERT_EQ(again.has_value(), before[0].has_value());
      if (again) {
        EXPECT_EQ(*again, *before[0]);
      }
    }

    // Change the state under every host and under one link of each
    // composition: the next batch reads the new availability.
    SessionId load = 2'000'000 + rid * 1000;
    for (const NodeId n : hosts) sys.commit_node_direct(++load, n, ResourceVector(3.0, 30.0), 0.0);
    for (std::size_t c = 0; c < cases.size(); c += 3) {
      const ComponentGraph& g = *cases[c].g;
      const FnEdge& edge = cases[c].fg->edge(0);
      const NodeId a = sys.component(g.component_at(edge.from)).node;
      const NodeId b = sys.component(g.component_at(edge.to)).node;
      if (a == b) continue;
      net::OverlayLinkIndex first = net::kNoOverlayLink;
      sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
        if (first == net::kNoOverlayLink) first = l;
      });
      sys.link_pool(first).commit(0.05 * w.min_link_kbps, 0.0);
    }
    counting.clear();
    const auto after = score_in_batch(sys, eval, cases, counting, scoped, 0.0, seed, tally);
    EXPECT_LE(counting.max_reads(), 1) << "seed " << seed << " round " << round;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      if (before[c] && before[c] != after[c]) ++tally.changed;
    }
    sys.cancel_request(rid);
    sys.cancel_request(rid + 100000);
  }
}

TEST(CompositionEvaluatorBatch, MatchesReferencesAndReadsOnceOnInet) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    World w = inet_world(seed);
    check_batch(w, seed * 43, tally);
  }
  EXPECT_GE(tally.feasible, 200u);
  EXPECT_GE(tally.infeasible, 200u);
  EXPECT_GE(tally.colocated, 200u);
  EXPECT_GE(tally.shared_link, 200u);
  EXPECT_GE(tally.triple_link, 100u);
  EXPECT_GE(tally.repeated_pair, 1000u);
  EXPECT_GE(tally.reversed_pair, 1000u);
  EXPECT_GE(tally.changed, 100u);
}

TEST(CompositionEvaluatorBatch, MatchesReferencesAndReadsOnceOnTorus) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    World w = torus_world(seed, 8, 10);
    check_batch(w, seed * 47, tally);
  }
  EXPECT_GE(tally.feasible, 200u);
  EXPECT_GE(tally.infeasible, 200u);
  EXPECT_GE(tally.colocated, 200u);
  EXPECT_GE(tally.shared_link, 200u);
  EXPECT_GE(tally.triple_link, 100u);
  EXPECT_GE(tally.repeated_pair, 1000u);
  EXPECT_GE(tally.reversed_pair, 1000u);
  EXPECT_GE(tally.changed, 100u);
}

// ---- Term bounds: one bottleneck per host pair ------------------------------

/// edge_term_bound's reference: the least availability along a→b, read from
/// `view` link by link, then the bound's term.
double edge_bound_ref(const StreamSystem& sys, const StateView& view, double kbps, NodeId a,
                      NodeId b, double now) {
  if (a == b) return 0.0;
  double avail = std::numeric_limits<double>::infinity();
  sys.mesh().for_each_virtual_link(
      a, b, [&](net::OverlayLinkIndex l) { avail = std::min(avail, view.link_available_kbps(l, now)); });
  if (kbps > avail) return std::numeric_limits<double>::infinity();
  return congestion_term(kbps, avail - kbps);
}

int link_reads(const CountingView& v) {
  int n = 0;
  for (const auto& [link, reads] : v.link_reads) n += reads;
  return n;
}

struct BoundTally {
  std::size_t before_expansion = 0;  ///< bounded, then a φ expanded the pair
  std::size_t after_expansion = 0;   ///< first bounded after a φ expanded it
  std::size_t bound_only = 0;        ///< bounded, never expanded
  std::size_t infinite = 0;          ///< a share that alone does not fit
};

/// Inside one batch, a pair's bound is the same bits as the reference
/// whether the pair was bounded before a candidate's φ expanded it, after,
/// or never expanded; the first bound of a pair reads each of its links
/// once, and any later bound of the pair reads nothing.
void check_bounds(World& w, std::uint64_t seed, BoundTally& tally) {
  StreamSystem& sys = *w.sys;
  util::Rng rng(seed);
  CompositionEvaluator eval(sys);
  for (int round = 0; round < 8; ++round) {
    const RequestId rid = 1 + static_cast<RequestId>(round);
    std::vector<NodeId> hosts(3 + rng.below(3));
    for (NodeId& n : hosts) n = static_cast<NodeId>(rng.below(sys.node_count()));
    std::vector<BatchCase> cases(12);
    for (BatchCase& c : cases) {
      c.fg = std::make_unique<FunctionGraph>(random_graph(rng, w.min_link_kbps));
      ComponentGraph& g = c.g.emplace(*c.fg);
      for (FnNodeIndex i = 0; i < c.fg->node_count(); ++i) {
        g.assign(i, sys.add_component(c.fg->node(i).function, hosts[rng.below(hosts.size())], {}));
      }
    }
    // The request's own holds on some host pairs, which the scoped view
    // reads as available.
    for (std::uint32_t t = 0; t < 4; ++t) {
      const NodeId a = hosts[rng.below(hosts.size())];
      const NodeId b = hosts[rng.below(hosts.size())];
      sys.reserve_virtual_link_transient(rid, t, a, b, 0.1 * w.min_link_kbps, 0.0, 60.0);
    }
    const StreamSystem::RequestScopedView scoped(sys, rid);
    CountingView counting(scoped);
    std::set<std::pair<NodeId, NodeId>> bounded;
    std::set<std::pair<NodeId, NodeId>> expanded;
    const auto bound = [&](double kbps, NodeId a, NodeId b, const char* when) {
      const int reads = link_reads(counting);
      const double got = eval.edge_term_bound(kbps, a, b);
      const double want = edge_bound_ref(sys, scoped, kbps, a, b, 0.0);
      EXPECT_EQ(got, want) << "seed " << seed << " round " << round << " " << when;
      tally.infinite += got == std::numeric_limits<double>::infinity() ? 1 : 0;
      // A pair's first bound reads each of its links straight from the
      // view, expanded or not; a later bound reads nothing.
      const bool fresh = a != b && bounded.insert({a, b}).second;
      const int hops = static_cast<int>(sys.mesh().virtual_link_hops(a, b));
      EXPECT_EQ(link_reads(counting) - reads, fresh ? hops : 0)
          << "seed " << seed << " round " << round << " " << when;
      return fresh;
    };
    const auto kbps = [&] { return rng.uniform(0.02, 1.2) * w.min_link_kbps; };

    const auto batch = eval.batch(counting, 0.0);
    for (const BatchCase& c : cases) {
      const FunctionGraph& fg = *c.fg;
      const ComponentGraph& g = *c.g;
      const auto host = [&](FnNodeIndex fn) { return sys.component(g.component_at(fn)).node; };
      // Bound half the edges before the candidate's φ expands them.
      for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
        if (!rng.bernoulli(0.5)) continue;
        const NodeId a = host(fg.edge(e).from);
        const NodeId b = host(fg.edge(e).to);
        if (bound(kbps(), a, b, "before") && !expanded.count({a, b})) ++tally.before_expansion;
      }
      (void)eval.phi(fg, g.assignment(), counting, 0.0);
      for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
        const NodeId a = host(fg.edge(e).from);
        const NodeId b = host(fg.edge(e).to);
        if (a != b) expanded.insert({a, b});
      }
      // Every edge after: the pairs bounded before and the ones φ expanded
      // first.
      for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
        const NodeId a = host(fg.edge(e).from);
        const NodeId b = host(fg.edge(e).to);
        if (bound(fg.edge(e).required_bandwidth_kbps, a, b, "after")) ++tally.after_expansion;
      }
      // A host pair no candidate has used: bounded, never expanded.
      const NodeId a = static_cast<NodeId>(rng.below(sys.node_count()));
      const NodeId b = static_cast<NodeId>(rng.below(sys.node_count()));
      if (!expanded.count({a, b}) && bound(kbps(), a, b, "bound only")) ++tally.bound_only;
      if (!expanded.count({a, b})) bound(kbps(), a, b, "bound only, again");
    }
    sys.cancel_request(rid);
  }
}

TEST(CompositionEvaluatorBatch, BoundsEachHostPairOnceBeforeOrAfterExpansionOnInet) {
  BoundTally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    World w = inet_world(seed);
    check_bounds(w, seed * 53, tally);
  }
  EXPECT_GE(tally.before_expansion, 50u);
  EXPECT_GE(tally.after_expansion, 50u);
  EXPECT_GE(tally.bound_only, 50u);
  EXPECT_GE(tally.infinite, 10u);
}

TEST(CompositionEvaluatorBatch, BoundsEachHostPairOnceBeforeOrAfterExpansionOnTorus) {
  BoundTally tally;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    World w = torus_world(seed, 8, 10);
    check_bounds(w, seed * 59, tally);
  }
  EXPECT_GE(tally.before_expansion, 50u);
  EXPECT_GE(tally.after_expansion, 50u);
  EXPECT_GE(tally.bound_only, 50u);
  EXPECT_GE(tally.infinite, 10u);
}

}  // namespace
}  // namespace acp::stream
