// Tests for the synchronous composition searches: exhaustive (with its
// bound-based pruning cross-checked against a naive brute force), guided
// beam search, random/static assignment, and path merging.
#include <gtest/gtest.h>

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
      sys.link_pool(l).commit_direct(1000 + l, rng.uniform(0.3, 0.95) * mesh.link(l).capacity_kbps,
                                     0.0);
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
