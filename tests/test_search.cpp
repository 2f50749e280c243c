// Tests for the synchronous composition searches: exhaustive (with its
// bound-based pruning cross-checked against a naive brute force), guided
// beam search, random/static assignment, path merging, and the bounded
// best-first join against the materialized merge it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>

#include "core/search.h"
#include "test_helpers.h"
#include "net/topology.h"
#include "workload/generator.h"

namespace acp::core {
namespace {

using stream::ComponentGraph;
using stream::ComponentId;
using stream::FnNodeIndex;
using stream::QoSVector;
using stream::ResourceVector;

/// Full Eq. 2–5 evaluation against the ground truth: φ(λ), or nullopt when
/// `g` does not qualify.
std::optional<double> true_phi(const stream::StreamSystem& sys, const workload::Request& req,
                               const ComponentGraph& g) {
  return stream::CompositionEvaluator(sys).evaluate(g, req.graph.enumerate_paths(), req.qos_req,
                                                    req.policy, sys.true_state(), 0.0);
}

struct SearchFixture : ::testing::Test {
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
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(6, crng));
    util::Rng drng(45);
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    // A compatible function chain with 3 candidates per function.
    chain = acp::testing::compatible_chain(sys->catalog(), 3);
    for (stream::FunctionId f : chain) {
      for (int i = 0; i < 3; ++i) {
        sys->add_component(f, static_cast<stream::NodeId>(drng.below(sys->node_count())),
                           QoSVector::from_metrics(drng.uniform(5.0, 20.0), 0.001));
      }
    }
  }

  std::vector<stream::FunctionId> chain;

  workload::Request path_request() {
    workload::Request req;
    req.id = 1;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(2000.0, 0.5);
    return req;
  }

  workload::Request dag_request() {
    workload::Request req;
    req.id = 2;
    // 0 → {1, 2} → 3: both branches use the chain's middle function.
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 3, 100.0);
    req.graph.add_edge(0, 2, 100.0);
    req.graph.add_edge(2, 3, 100.0);
    req.qos_req = QoSVector::from_metrics(2000.0, 0.5);
    return req;
  }

  workload::Request three_branch_request() {
    workload::Request req;
    req.id = 3;
    // 0 → {1, 2, 3} → 4: three source→sink paths, past the pairwise join.
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    for (int i = 0; i < 3; ++i) req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    for (FnNodeIndex mid = 1; mid <= 3; ++mid) {
      req.graph.add_edge(0, mid, 100.0);
      req.graph.add_edge(mid, 4, 100.0);
    }
    req.qos_req = QoSVector::from_metrics(2000.0, 0.5);
    return req;
  }

  /// a → s → {x, y} → m: both source→sink paths carry the edge a → s.
  /// Needs a fourth function after the fixture's chain.
  workload::Request shared_edge_request(stream::FunctionId tail) {
    workload::Request req;
    req.id = 4;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(25.0, 250.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_node(tail, ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 400.0);
    req.graph.add_edge(1, 2, 100.0);
    req.graph.add_edge(1, 3, 100.0);
    req.graph.add_edge(2, 4, 100.0);
    req.graph.add_edge(3, 4, 100.0);
    req.qos_req = QoSVector::from_metrics(2000.0, 0.5);
    return req;
  }

  /// Naive reference: evaluate the full candidate cross-product and return
  /// min-φ.
  std::optional<double> brute_force_best_phi(const workload::Request& req) {
    std::vector<const std::vector<ComponentId>*> cand_lists;
    for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) {
      cand_lists.push_back(&sys->components_providing(req.graph.node(i).function));
      if (cand_lists.back()->empty()) return std::nullopt;
    }
    std::optional<double> best;
    std::vector<std::size_t> idx(req.graph.node_count(), 0);
    for (;;) {
      ComponentGraph g(req.graph);
      for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) {
        g.assign(i, (*cand_lists[i])[idx[i]]);
      }
      const auto phi = true_phi(*sys, req, g);
      if (phi && (!best || *phi < *best)) best = phi;
      // Odometer increment.
      std::size_t d = 0;
      while (d < idx.size() && ++idx[d] == cand_lists[d]->size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == idx.size()) break;
    }
    return best;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
};

TEST_F(SearchFixture, ExhaustiveMatchesBruteForceOnPath) {
  const auto req = path_request();
  const auto expected = brute_force_best_phi(req);
  SearchStats stats;
  const auto found = exhaustive_best(*sys, req, sys->true_state(), 0.0, &stats);
  ASSERT_EQ(found.has_value(), expected.has_value());
  if (found) {
    const auto phi = true_phi(*sys, req, *found);
    ASSERT_TRUE(phi.has_value());
    EXPECT_NEAR(*phi, *expected, 1e-9);
  }
}

TEST_F(SearchFixture, ExhaustiveMatchesBruteForceOnDag) {
  // The three-branch DAG takes exhaustive_best's >2-path fallback: full
  // merge, then the shared min-φ selection.
  for (const auto& req : {dag_request(), three_branch_request()}) {
    const auto expected = brute_force_best_phi(req);
    const auto found = exhaustive_best(*sys, req, sys->true_state(), 0.0);
    ASSERT_EQ(found.has_value(), expected.has_value());
    if (found) {
      EXPECT_NEAR(true_phi(*sys, req, *found).value(), *expected, 1e-9);
    }
  }
}

TEST_F(SearchFixture, ExhaustiveMatchesBruteForceUnderLoad) {
  // Load a few nodes so feasibility/pruning paths are exercised.
  util::Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    sys->commit_node_direct(100 + i, static_cast<stream::NodeId>(rng.below(sys->node_count())),
                            ResourceVector(70.0, 700.0), 0.0);
  }
  for (const auto& req : {path_request(), dag_request(), three_branch_request()}) {
    const auto expected = brute_force_best_phi(req);
    const auto found = exhaustive_best(*sys, req, sys->true_state(), 0.0);
    ASSERT_EQ(found.has_value(), expected.has_value());
    if (found) {
      EXPECT_NEAR(true_phi(*sys, req, *found).value(), *expected, 1e-9);
    }
  }
}

TEST_F(SearchFixture, ExhaustiveMatchesBruteForceOnSharedEdgeDag) {
  // Each path's bound share counts the shared edge a → s once between them;
  // counted twice, a bound can pass φ and prune the optimum. Loaded links
  // make that edge's term large.
  stream::FunctionId tail = stream::kNoFunction;
  for (stream::FunctionId f = 0; f < sys->catalog().size(); ++f) {
    if (std::find(chain.begin(), chain.end(), f) == chain.end() &&
        sys->catalog().compatible(chain[2], f)) {
      tail = f;
      break;
    }
  }
  ASSERT_NE(tail, stream::kNoFunction);
  util::Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    sys->add_component(tail, static_cast<stream::NodeId>(rng.below(sys->node_count())),
                       QoSVector::from_metrics(10.0, 0.001));
  }
  const auto req = shared_edge_request(tail);
  ASSERT_EQ(req.graph.enumerate_paths().size(), 2u);
  for (int round = 0; round < 4; ++round) {
    const auto expected = brute_force_best_phi(req);
    const auto found = exhaustive_best(*sys, req, sys->true_state(), 0.0);
    ASSERT_EQ(found.has_value(), expected.has_value()) << "round " << round;
    if (found) {
      EXPECT_NEAR(true_phi(*sys, req, *found).value(), *expected, 1e-9) << "round " << round;
    }
    for (net::OverlayLinkIndex l = 0; l < mesh->link_count(); ++l) {
      if (rng.below(3) != 0) continue;
      sys->link_pool(l).commit(rng.uniform(0.1, 0.3) * sys->link_pool(l).available(0.0), 0.0);
    }
  }
}

TEST_F(SearchFixture, ExhaustiveRespectsQoSBound) {
  auto req = path_request();
  req.qos_req = QoSVector::from_metrics(0.001, 0.000001);  // impossible
  EXPECT_FALSE(exhaustive_best(*sys, req, sys->true_state(), 0.0).has_value());
}

TEST_F(SearchFixture, GuidedNeverBeatsExhaustive) {
  const auto req = path_request();
  const auto best = exhaustive_best(*sys, req, sys->true_state(), 0.0);
  ASSERT_TRUE(best.has_value());
  const double best_phi = true_phi(*sys, req, *best).value();
  for (double alpha : {0.1, 0.3, 0.7, 1.0}) {
    const auto g =
        guided_search(*sys, req, alpha, sys->true_state(), sys->true_state(), 0.0);
    if (g) {
      const auto phi = true_phi(*sys, req, *g);
      ASSERT_TRUE(phi.has_value()) << "alpha=" << alpha;
      EXPECT_GE(*phi, best_phi - 1e-9) << "alpha=" << alpha;
    }
  }
}

TEST_F(SearchFixture, GuidedAtFullAlphaMatchesExhaustiveOnPath) {
  const auto req = path_request();
  const auto best = exhaustive_best(*sys, req, sys->true_state(), 0.0);
  const auto g = guided_search(*sys, req, 1.0, sys->true_state(), sys->true_state(), 0.0,
                               0.05, nullptr, /*beam_cap=*/100000);
  ASSERT_TRUE(best.has_value());
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(true_phi(*sys, req, *g).value(), true_phi(*sys, req, *best).value(), 1e-9);
}

TEST_F(SearchFixture, RandomAssignmentCoversAllNodesOrFails) {
  util::Rng rng(3);
  const auto req = path_request();
  const auto g = random_assignment(*sys, req, rng);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->fully_assigned());
  EXPECT_TRUE(g->functions_match(*sys));
}

TEST_F(SearchFixture, RandomAssignmentFailsOnMissingFunction) {
  util::Rng rng(3);
  // Pick a function with no deployed providers.
  stream::FunctionId vacant = stream::kNoFunction;
  for (stream::FunctionId f = 0; f < sys->catalog().size(); ++f) {
    if (sys->components_providing(f).empty()) {
      vacant = f;
      break;
    }
  }
  ASSERT_NE(vacant, stream::kNoFunction);
  workload::Request req;
  req.graph.add_node(vacant, ResourceVector(1.0, 1.0));
  EXPECT_FALSE(random_assignment(*sys, req, rng).has_value());
}

TEST_F(SearchFixture, StaticAssignmentIsDeterministic) {
  const auto req = path_request();
  const auto a = static_assignment(*sys, req);
  const auto b = static_assignment(*sys, req);
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(*a == *b);
  // Lowest-id candidate per function.
  for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) {
    const auto& cands = sys->components_providing(req.graph.node(i).function);
    EXPECT_EQ(a->component_at(i), *std::min_element(cands.begin(), cands.end()));
  }
}

TEST_F(SearchFixture, ExhaustiveProbeCountFormula) {
  const auto req = path_request();  // 3 fns with 3 candidates each
  // 3 + 9 + 27 = 39.
  EXPECT_EQ(exhaustive_probe_count(*sys, req), 39u);
  const auto dag = dag_request();  // two paths of 3 fns, 3 cands each
  EXPECT_EQ(exhaustive_probe_count(*sys, dag), 78u);
}

TEST_F(SearchFixture, MergeRequiresAgreementOnSharedNodes) {
  const auto req = dag_request();
  const auto paths = req.graph.enumerate_paths();
  ASSERT_EQ(paths.size(), 2u);

  const auto f0 = sys->components_providing(chain[0]);
  const auto f1 = sys->components_providing(chain[1]);
  const auto f2 = sys->components_providing(chain[2]);

  PathAssignment p1{{f0[0], f1[0], f2[0]}, {}};
  PathAssignment p2_agree{{f0[0], f1[1], f2[0]}, {}};
  PathAssignment p2_conflict{{f0[1], f1[1], f2[0]}, {}};  // different split comp

  bool cap_hit = false;
  const auto merged = merge_path_assignments(req.graph, paths, {{p1}, {p2_agree, p2_conflict}},
                                             100, &cap_hit);
  ASSERT_EQ(merged.size(), 1u);  // only the agreeing pair merges
  EXPECT_FALSE(cap_hit);
  EXPECT_EQ(merged[0].component_at(0), f0[0]);
  EXPECT_EQ(merged[0].component_at(1), f1[0]);
  EXPECT_EQ(merged[0].component_at(2), f1[1]);
  EXPECT_EQ(merged[0].component_at(3), f2[0]);
}

// Differential optimality oracle: on small random instances the guided
// beam search at alpha = 1.0 (full fan-out, effectively uncapped beam) is
// EXACTLY as strong as exhaustive enumeration — it finds the same best phi,
// and it never produces a composition when the exhaustive search proves no
// qualified one exists. Instances stay small (<= 4 functions, <= 4
// candidates each) so the exhaustive oracle enumerates the full
// cross-product without caps.
struct OracleTally {
  std::size_t solved = 0;
  std::size_t infeasible = 0;
  std::size_t multi_hop = 0;    ///< the best composition walks a virtual link of 2+ hops
  std::size_t shared_link = 0;  ///< the best composition carries two edges on one link
};

/// One random instance over `mesh`: a chain of 1–3 functions, or (`dag`) a
/// split/merge 0 → {1, 2} → 3, with 1–4 candidates per function,
/// background load on a few nodes (and, `link_load`, links), and a QoS
/// bound that is tight about a third of the time.
void check_oracle_instance(const net::OverlayMesh& mesh, util::Rng& rng, std::uint64_t seed,
                           bool dag, bool link_load, OracleTally& tally) {
  stream::StreamSystem sys(mesh, stream::FunctionCatalog::generate(6, rng));
  for (stream::NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n,
                          ResourceVector(rng.uniform(60.0, 140.0), rng.uniform(600.0, 1400.0)));
  }
  const std::size_t chain_len = dag ? 3 : 1 + static_cast<std::size_t>(rng.below(3));
  const auto chain = acp::testing::compatible_chain(sys.catalog(), chain_len);
  for (stream::FunctionId f : chain) {
    const std::size_t cands = 1 + static_cast<std::size_t>(rng.below(4));
    for (std::size_t i = 0; i < cands; ++i) {
      sys.add_component(f, static_cast<stream::NodeId>(rng.below(sys.node_count())),
                        QoSVector::from_metrics(rng.uniform(5.0, 25.0), 0.001));
    }
  }
  // Background load on a few nodes so capacity feasibility is exercised.
  const std::size_t loaded = static_cast<std::size_t>(rng.below(5));
  for (std::size_t i = 0; i < loaded; ++i) {
    sys.commit_node_direct(500 + i, static_cast<stream::NodeId>(rng.below(sys.node_count())),
                           ResourceVector(rng.uniform(40.0, 90.0), rng.uniform(300.0, 800.0)),
                           0.0);
  }
  if (link_load) {
    for (net::OverlayLinkIndex l = 0; l < mesh.link_count(); ++l) {
      if (rng.below(4) != 0) continue;
      sys.link_pool(l).commit(rng.uniform(0.3, 0.95) * mesh.link(l).capacity_kbps, 0.0);
    }
  }

  workload::Request req;
  req.id = seed;
  auto demand = [&] {
    return ResourceVector(rng.uniform(5.0, 30.0), rng.uniform(50.0, 200.0));
  };
  if (dag) {
    req.graph.add_node(chain[0], demand());
    req.graph.add_node(chain[1], demand());
    req.graph.add_node(chain[1], demand());
    req.graph.add_node(chain[2], demand());
    req.graph.add_edge(0, 1, rng.uniform(50.0, 150.0));
    req.graph.add_edge(0, 2, rng.uniform(50.0, 150.0));
    req.graph.add_edge(1, 3, rng.uniform(50.0, 150.0));
    req.graph.add_edge(2, 3, rng.uniform(50.0, 150.0));
  } else {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      req.graph.add_node(chain[i], demand());
      if (i > 0) {
        req.graph.add_edge(static_cast<FnNodeIndex>(i - 1), static_cast<FnNodeIndex>(i),
                           rng.uniform(50.0, 150.0));
      }
    }
  }
  // Roughly a third of the instances get a QoS bound tight enough that
  // usually no composition qualifies, exercising the nullopt branch.
  const bool tight = rng.below(3) == 0;
  req.qos_req = tight ? QoSVector::from_metrics(rng.uniform(0.5, 10.0), 0.0001)
                      : QoSVector::from_metrics(rng.uniform(500.0, 3000.0), 0.5);

  const auto best = exhaustive_best(sys, req, sys.true_state(), 0.0);
  const auto g = guided_search(sys, req, 1.0, sys.true_state(), sys.true_state(), 0.0, 0.05,
                               nullptr, /*beam_cap=*/100000);
  if (!best.has_value()) {
    ++tally.infeasible;
    EXPECT_FALSE(g.has_value())
        << "seed " << seed
        << ": guided found a composition where the exhaustive oracle proves none qualifies";
    return;
  }
  ++tally.solved;
  ASSERT_TRUE(g.has_value()) << "seed " << seed;
  const double best_phi = true_phi(sys, req, *best).value();
  const auto g_phi = true_phi(sys, req, *g);
  ASSERT_TRUE(g_phi.has_value()) << "seed " << seed;
  EXPECT_NEAR(*g_phi, best_phi, 1e-9) << "seed " << seed;

  std::size_t uses = 0;
  std::size_t longest = 0;
  for (stream::FnEdgeIndex e = 0; e < req.graph.edge_count(); ++e) {
    const std::size_t hops =
        mesh.virtual_link_hops(sys.component(best->component_at(req.graph.edge(e).from)).node,
                               sys.component(best->component_at(req.graph.edge(e).to)).node);
    uses += hops;
    longest = std::max(longest, hops);
  }
  stream::CompositionEvaluator demand_of(sys);
  demand_of.aggregate(req.graph, best->assignment());
  tally.multi_hop += longest >= 2 ? 1 : 0;
  tally.shared_link += demand_of.link_demand().size() < uses ? 1 : 0;
}

TEST(SearchOracle, GuidedFullAlphaMatchesExhaustiveOnRandomInstances) {
  OracleTally inet;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    util::Rng rng(1000 + seed * 7919);
    net::TopologyConfig tc;
    tc.node_count = 80 + static_cast<std::size_t>(rng.below(80));
    const auto ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 8 + static_cast<std::size_t>(rng.below(8));
    const net::OverlayMesh mesh(ip, oc, rng);
    check_oracle_instance(mesh, rng, seed, /*dag=*/false, /*link_load=*/false, inet);
  }
  // The generator must hit both branches or the oracle is vacuous.
  EXPECT_GE(inet.solved, 10u);
  EXPECT_GE(inet.infeasible, 5u);

  // Torus inputs: virtual links of up to 5 (5×6) or 9 (8×10) hops, chains
  // and split/merge DAGs whose walks share overlay links, and loaded links,
  // so both searches' evaluation batches serve repeated multi-hop walks.
  OracleTally torus;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    util::Rng rng(2000 + seed * 7919);
    const bool small = seed % 2 == 0;
    const net::OverlayMesh mesh =
        net::OverlayMesh::torus(small ? 5 : 8, small ? 6 : 10, 1.0, 1000.0);
    check_oracle_instance(mesh, rng, seed, /*dag=*/seed % 3 != 0, /*link_load=*/true, torus);
  }
  EXPECT_GE(torus.solved, 30u);
  EXPECT_GE(torus.infeasible, 5u);
  EXPECT_GE(torus.multi_hop, 20u);
  EXPECT_GE(torus.shared_link, 10u);
}

// ---- The bounded best-first join against the materialized merge -----------

/// What the random join instances exercised; each count has a floor, or
/// the differential check would be vacuous for that case.
struct JoinTally {
  std::size_t solved = 0;            ///< some candidate qualified
  std::size_t single = 0;            ///< one-path requests
  std::size_t diamond = 0;           ///< split/merge DAGs
  std::size_t shared_edge = 0;       ///< DAGs whose two paths share an edge
  std::size_t tie = 0;               ///< another qualified candidate has the winner's φ
  std::size_t cap_hit = 0;
  std::size_t cap_in_path0 = 0;      ///< the cap cut path 0's complete assignments
  std::size_t incomplete = 0;        ///< some assignment is an incomplete walk
  std::size_t infeasible_below = 0;  ///< an Eq. 4/5-infeasible candidate bounds below the winner
  std::size_t none_qualified = 0;    ///< merged candidates, none qualified
  std::size_t pruned = 0;            ///< the join evaluated fewer than it merged
};

/// Σ of a whole composition's per-term bounds (each node and edge once).
double full_bound(stream::CompositionEvaluator& eval, const stream::StreamSystem& sys,
                  const stream::FunctionGraph& fg, const ComponentGraph& g) {
  const auto host = [&](FnNodeIndex i) { return sys.component(g.component_at(i)).node; };
  double b = 0.0;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    b += eval.node_term_bound(fg.node(i).required, host(i));
  }
  for (stream::FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    b += eval.edge_term_bound(fg.edge(e).required_bandwidth_kbps, host(fg.edge(e).from),
                              host(fg.edge(e).to));
  }
  return b;
}

/// Random returned walks for `paths`: components drawn per position (path
/// 1 mostly copying a path-0 walk's shared components so buckets match),
/// with duplicates and incomplete walks mixed in.
std::vector<std::vector<PathAssignment>> random_walks(const stream::StreamSystem& sys,
                                                      const workload::Request& req,
                                                      const stream::FnPaths& paths,
                                                      util::Rng& rng) {
  std::vector<std::vector<PathAssignment>> per_path(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const std::size_t count = static_cast<std::size_t>(rng.below(p == 0 ? 14 : 20));
    for (std::size_t k = 0; k < count; ++k) {
      auto& walks = per_path[p];
      if (!walks.empty() && rng.below(8) == 0) {
        walks.push_back(walks[rng.below(walks.size())]);  // a duplicate
        continue;
      }
      PathAssignment pa;
      const PathAssignment* partner =
          p == 1 && !per_path[0].empty() && rng.below(4) != 0
              ? &per_path[0][rng.below(per_path[0].size())]
              : nullptr;
      for (FnNodeIndex fn : paths[p]) {
        const auto on_0 = std::find(paths[0].begin(), paths[0].end(), fn);
        const auto pos0 = static_cast<std::size_t>(on_0 - paths[0].begin());
        if (partner != nullptr && on_0 != paths[0].end() && pos0 < partner->components.size()) {
          pa.components.push_back(partner->components[pos0]);
        } else {
          const auto& cands = sys.components_providing(req.graph.node(fn).function);
          pa.components.push_back(cands[rng.below(cands.size())]);
        }
      }
      if (rng.below(8) == 0) pa.components.resize(rng.below(pa.components.size()));
      walks.push_back(std::move(pa));
    }
  }
  return per_path;
}

/// One random instance on `mesh`: a chain of 1–4 functions, a diamond with
/// 1–2 interior functions per branch, or a → s → {x, y} → m; 1–4
/// candidates per function, some with a twin on the same host (exact φ
/// ties); loaded nodes and links; a tight QoS bound a fifth of the time;
/// a cap of 512, or small enough to cut the merge (often inside path 0).
void check_join_instance(const net::OverlayMesh& mesh, util::Rng& rng, std::uint64_t seed,
                         BestPhiJoin& join, JoinTally& tally) {
  stream::StreamSystem sys(mesh, stream::FunctionCatalog::generate(8, rng));
  for (stream::NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n,
                          ResourceVector(rng.uniform(60.0, 140.0), rng.uniform(600.0, 1400.0)));
    if (rng.below(3) == 0) {
      sys.commit_node_direct(500 + n, n,
                             ResourceVector(rng.uniform(0.0, 60.0), rng.uniform(0.0, 600.0)), 0.0);
    }
  }
  for (net::OverlayLinkIndex l = 0; l < mesh.link_count(); ++l) {
    if (rng.below(3) != 0) continue;
    sys.link_pool(l).commit(rng.uniform(0.1, 0.7) * mesh.link(l).capacity_kbps, 0.0);
  }
  const auto shape = rng.below(3);  // 0 chain, 1 diamond, 2 shared edge
  const std::size_t interior = 1 + static_cast<std::size_t>(rng.below(2));
  const std::size_t chain_len = shape == 0   ? 1 + static_cast<std::size_t>(rng.below(4))
                                : shape == 1 ? interior + 2
                                             : 4;
  const auto chain = acp::testing::compatible_chain(sys.catalog(), chain_len);
  for (stream::FunctionId f : chain) {
    const std::size_t cands = 1 + static_cast<std::size_t>(rng.below(4));
    for (std::size_t i = 0; i < cands; ++i) {
      const auto node = static_cast<stream::NodeId>(rng.below(sys.node_count()));
      const auto qos = QoSVector::from_metrics(rng.uniform(5.0, 25.0), 0.001);
      sys.add_component(f, node, qos);
      if (rng.below(4) == 0) sys.add_component(f, node, qos);  // a twin: exact φ ties
    }
  }

  workload::Request req;
  req.id = seed;
  const double link_kbps = mesh.link(0).capacity_kbps;
  auto demand = [&] { return ResourceVector(rng.uniform(5.0, 40.0), rng.uniform(50.0, 300.0)); };
  auto bw = [&] { return rng.uniform(0.02, 0.25) * link_kbps; };
  auto& fg = req.graph;
  if (shape == 0) {
    for (std::size_t i = 0; i < chain.size(); ++i) {
      fg.add_node(chain[i], demand());
      if (i > 0) fg.add_edge(static_cast<FnNodeIndex>(i - 1), static_cast<FnNodeIndex>(i), bw());
    }
  } else if (shape == 1) {
    // 0 = split, then each branch's interior, then the merge.
    fg.add_node(chain[0], demand());
    std::vector<FnNodeIndex> tails;
    for (int branch = 0; branch < 2; ++branch) {
      FnNodeIndex prev = 0;
      for (std::size_t i = 1; i <= interior; ++i) {
        const FnNodeIndex n = fg.add_node(chain[i], demand());
        fg.add_edge(prev, n, bw());
        prev = n;
      }
      tails.push_back(prev);
    }
    const FnNodeIndex merge = fg.add_node(chain.back(), demand());
    for (FnNodeIndex t : tails) fg.add_edge(t, merge, bw());
  } else {
    for (std::size_t i = 0; i < 2; ++i) fg.add_node(chain[i], demand());
    fg.add_node(chain[2], demand());
    fg.add_node(chain[2], demand());
    fg.add_node(chain[3], demand());
    fg.add_edge(0, 1, bw());
    fg.add_edge(1, 2, bw());
    fg.add_edge(1, 3, bw());
    fg.add_edge(2, 4, bw());
    fg.add_edge(3, 4, bw());
  }
  req.qos_req = rng.below(5) == 0 ? QoSVector::from_metrics(rng.uniform(5.0, 40.0), 0.0001)
                                  : QoSVector::from_metrics(rng.uniform(500.0, 3000.0), 0.5);

  const auto paths = fg.enumerate_paths();
  const auto per_path = random_walks(sys, req, paths, rng);
  std::size_t complete0 = 0;
  bool incomplete = false;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    for (const auto& pa : per_path[p]) {
      const bool whole = pa.components.size() == paths[p].size();
      incomplete |= !whole;
      complete0 += p == 0 && whole ? 1 : 0;
    }
  }
  const auto pick = rng.below(3);
  const std::size_t cap = pick == 0   ? 512
                          : pick == 1 ? 1 + static_cast<std::size_t>(rng.below(6))
                                      : 1 + static_cast<std::size_t>(rng.below(40));

  // The reference: the materialized merge, every candidate scored, sorted.
  bool cap_hit = false;
  const auto graphs = merge_path_assignments(fg, paths, per_path, cap, &cap_hit);
  stream::CompositionEvaluator ref_eval(sys);
  auto scored = score_qualified(ref_eval, req, paths, graphs, sys.true_state(), 0.0);
  std::sort(scored.begin(), scored.end());

  stream::CompositionEvaluator eval(sys);
  const JoinBest best = join.run(eval, req, paths, per_path, cap, sys.true_state(), 0.0);
  ASSERT_EQ(best.merged, graphs.size()) << "seed " << seed;
  EXPECT_EQ(best.cap_hit, cap_hit) << "seed " << seed;
  EXPECT_LE(best.qualified, best.evaluated) << "seed " << seed;
  EXPECT_LE(best.evaluated, best.merged) << "seed " << seed;
  ASSERT_EQ(best.graph.has_value(), !scored.empty()) << "seed " << seed;

  (paths.size() == 1 ? tally.single : shape == 1 ? tally.diamond : tally.shared_edge) += 1;
  tally.cap_hit += cap_hit ? 1 : 0;
  tally.cap_in_path0 += paths.size() == 2 && cap < complete0 && !graphs.empty() ? 1 : 0;
  tally.incomplete += incomplete ? 1 : 0;
  tally.pruned += best.evaluated < best.merged ? 1 : 0;
  if (scored.empty()) {
    tally.none_qualified += graphs.empty() ? 0 : 1;
    return;
  }
  ++tally.solved;
  const auto& head = scored.front();
  EXPECT_EQ(best.graph->assignment(), graphs[head.second].assignment()) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(best.phi), std::bit_cast<std::uint64_t>(head.first))
      << "seed " << seed << ": " << best.phi << " vs " << head.first;
  EXPECT_EQ(best.index, head.second) << "seed " << seed;
  tally.tie += scored.size() > 1 && scored[1].first == head.first ? 1 : 0;

  // Serial commit() takes the join's φ as is: it must equal a fresh
  // evaluate() of the winner, outside any batch, on the same view and time.
  stream::CompositionEvaluator fresh(sys);
  const auto again =
      fresh.evaluate(*best.graph, paths, req.qos_req, req.policy, sys.true_state(), 0.0);
  ASSERT_TRUE(again.has_value()) << "seed " << seed;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(*again), std::bit_cast<std::uint64_t>(best.phi))
      << "seed " << seed << ": " << *again << " vs " << best.phi;

  const auto batch = ref_eval.batch(sys.true_state(), 0.0);
  for (const ComponentGraph& g : graphs) {
    if (full_bound(ref_eval, sys, fg, g) < head.first &&
        !ref_eval.phi(fg, g.assignment(), sys.true_state(), 0.0)) {
      ++tally.infeasible_below;
      break;
    }
  }
}

TEST(BestPhiJoin, MatchesTheHeadOfTheScoredMergeOnRandomWorlds) {
  BestPhiJoin join;  // reused across every instance, as the deputy does
  JoinTally tally;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    util::Rng rng(3000 + seed * 7919);
    if (seed % 3 == 0) {
      net::TopologyConfig tc;
      tc.node_count = 80 + static_cast<std::size_t>(rng.below(80));
      const auto ip = net::generate_power_law_topology(tc, rng);
      net::OverlayConfig oc;
      oc.member_count = 8 + static_cast<std::size_t>(rng.below(8));
      const net::OverlayMesh mesh(ip, oc, rng);
      check_join_instance(mesh, rng, seed, join, tally);
    } else {
      const bool small = seed % 3 == 1;
      const net::OverlayMesh mesh =
          net::OverlayMesh::torus(small ? 5 : 8, small ? 6 : 10, 1.0, 1000.0);
      check_join_instance(mesh, rng, seed, join, tally);
    }
  }
  EXPECT_GE(tally.solved, 60u);
  EXPECT_GE(tally.single, 40u);
  EXPECT_GE(tally.diamond, 40u);
  EXPECT_GE(tally.shared_edge, 40u);
  EXPECT_GE(tally.tie, 20u);
  EXPECT_GE(tally.cap_hit, 40u);
  EXPECT_GE(tally.cap_in_path0, 10u);
  EXPECT_GE(tally.incomplete, 60u);
  EXPECT_GE(tally.infeasible_below, 3u);
  EXPECT_GE(tally.none_qualified, 20u);
  EXPECT_GE(tally.pruned, 40u);
}

TEST(BestPhiJoin, AnExactTieGoesToTheLowerMergeIndexWhicheverBoundIsLower) {
  // Dyadic values make every sum exact. Candidate 0 spreads f0 → f1 over
  // hosts 1 and 2 (capacity 2 each): node terms 1/2 + 1/2, its bound equal
  // to φ = 1. Candidate 1 co-locates both on host 0 (capacity 3): residual
  // 1, terms 1/2 + 1/2, also φ = 1, but each share alone leaves residual 2,
  // so its bound is 2/3. The join evaluates candidate 1 first, and must
  // still evaluate candidate 0 (bound = best φ) and prefer it by index.
  const net::OverlayMesh mesh = net::OverlayMesh::torus(3, 3, 1.0, 1000.0);
  util::Rng rng(5);
  stream::StreamSystem sys(mesh, stream::FunctionCatalog::generate(4, rng));
  for (stream::NodeId n = 0; n < sys.node_count(); ++n) {
    sys.set_node_capacity(n, ResourceVector(n == 0 ? 3.0 : 2.0, 100.0));
  }
  const auto chain = acp::testing::compatible_chain(sys.catalog(), 2);
  const auto qos = QoSVector::from_metrics(10.0, 0.001);
  const ComponentId spread0 = sys.add_component(chain[0], 1, qos);
  const ComponentId spread1 = sys.add_component(chain[1], 2, qos);
  const ComponentId packed0 = sys.add_component(chain[0], 0, qos);
  const ComponentId packed1 = sys.add_component(chain[1], 0, qos);
  workload::Request req;
  req.graph.add_node(chain[0], ResourceVector(1.0, 0.0));
  req.graph.add_node(chain[1], ResourceVector(1.0, 0.0));
  req.graph.add_edge(0, 1, 0.0);
  req.qos_req = QoSVector::from_metrics(1000.0, 0.5);
  const auto paths = req.graph.enumerate_paths();
  const std::vector<std::vector<PathAssignment>> per_path{
      {PathAssignment{{spread0, spread1}, {}}, PathAssignment{{packed0, packed1}, {}}}};

  stream::CompositionEvaluator eval(sys);
  BestPhiJoin join;
  const JoinBest best = join.run(eval, req, paths, per_path, 512, sys.true_state(), 0.0);
  ASSERT_TRUE(best.graph.has_value());
  EXPECT_EQ(best.phi, 1.0);
  EXPECT_EQ(best.index, 0u);
  EXPECT_EQ(best.graph->component_at(0), spread0);
  EXPECT_EQ(best.evaluated, 2u);
  {
    const auto batch = eval.batch(sys.true_state(), 0.0);
    EXPECT_EQ(full_bound(eval, sys, req.graph, *best.graph), 1.0);
  }

  bool cap_hit = false;
  const auto graphs = merge_path_assignments(req.graph, paths, per_path, 512, &cap_hit);
  auto scored = score_qualified(eval, req, paths, graphs, sys.true_state(), 0.0);
  ASSERT_EQ(scored.size(), 2u);
  EXPECT_EQ(scored[0].first, scored[1].first);
}

TEST_F(SearchFixture, MergeCapReported) {
  const auto req = path_request();
  const auto paths = req.graph.enumerate_paths();
  std::vector<PathAssignment> many;
  const auto f0 = sys->components_providing(chain[0]);
  const auto f1 = sys->components_providing(chain[1]);
  const auto f2 = sys->components_providing(chain[2]);
  for (auto a : f0) {
    for (auto b : f1) {
      for (auto c : f2) many.push_back(PathAssignment{{a, b, c}, {}});
    }
  }
  bool cap_hit = false;
  const auto merged = merge_path_assignments(req.graph, paths, {many}, 5, &cap_hit);
  EXPECT_EQ(merged.size(), 5u);
  EXPECT_TRUE(cap_hit);
}

}  // namespace
}  // namespace acp::core
