// Cross-cutting property suites, parameterized over seeds and probing
// ratios: invariants that must hold for ANY run of the system.
#include <gtest/gtest.h>

#include <memory>

#include "core/probing.h"
#include "core/search.h"
#include "net/topology.h"
#include "state/global_state.h"
#include "test_helpers.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::QoSVector;
using stream::ResourceVector;

/// A small but fully wired world, rebuilt per (seed) parameter.
struct World {
  explicit World(std::uint64_t seed) {
    util::Rng rng(seed);
    net::TopologyConfig tc;
    tc.node_count = 250;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 16;
    util::Rng orng(seed + 1);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(seed + 2);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(8, crng));
    util::Rng drng(seed + 3);
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, ResourceVector(100.0, 1000.0));
    }
    chain = acp::testing::compatible_chain(sys->catalog(), 3);
    for (stream::FunctionId f : chain) {
      for (int i = 0; i < 4; ++i) {
        sys->add_component(f, static_cast<stream::NodeId>(drng.below(sys->node_count())),
                           QoSVector::from_metrics(drng.uniform(5.0, 15.0), 0.001));
      }
    }
    sessions = std::make_unique<stream::SessionTable>(*sys);
    registry = std::make_unique<discovery::Registry>(*sys, counters);
    global_state = std::make_unique<state::GlobalStateManager>(*sys, engine, counters);
    global_state->start();
    protocol = std::make_unique<ProbingProtocol>(*sys, *sessions, engine, counters, *registry,
                                                 global_state->view(), util::Rng(seed + 4));
  }

  workload::Request make_request(stream::RequestId id) {
    workload::Request req;
    req.id = id;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(3000.0, 0.5);
    req.duration_s = 600.0;
    return req;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  std::unique_ptr<discovery::Registry> registry;
  std::unique_ptr<state::GlobalStateManager> global_state;
  std::unique_ptr<ProbingProtocol> protocol;
  sim::Engine engine;
  sim::CounterSet counters;
  std::vector<stream::FunctionId> chain;
};

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, AcpCompositionIsAlwaysQualified) {
  // Whatever ACP commits satisfies Eqs. 2–5 against ground truth evaluated
  // at commit time on the ledger that excludes its own holdings.
  World w(GetParam());
  for (int i = 0; i < 10; ++i) {
    const auto req = w.make_request(static_cast<stream::RequestId>(i + 1));
    std::optional<CompositionOutcome> out;
    w.protocol->execute(req, 0.5, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                        [&](const CompositionOutcome& o) { out = o; });
    w.engine.run_until(w.engine.now() + 30.0);
    ASSERT_TRUE(out.has_value());
    if (out->success()) {
      const auto* rec = w.sessions->find(out->session);
      ASSERT_NE(rec, nullptr);
      // Components provide exactly the requested functions in order.
      ASSERT_EQ(rec->components.size(), req.graph.node_count());
      for (stream::FnNodeIndex n = 0; n < req.graph.node_count(); ++n) {
        EXPECT_EQ(w.sys->component(rec->components[n]).function, req.graph.node(n).function);
      }
      EXPECT_GT(out->phi, 0.0);
    }
  }
}

TEST_P(SeedSweep, ResidualResourcesNeverNegative) {
  // Eq. 4/5 as a runtime invariant: at no sampled instant does any pool
  // report negative availability.
  World w(GetParam());
  std::vector<workload::Request> reqs;
  for (int i = 0; i < 12; ++i) reqs.push_back(w.make_request(i + 1));
  for (const auto& req : reqs) {
    w.protocol->execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                        [](const CompositionOutcome&) {});
  }
  for (int step = 0; step < 2000 && w.engine.step(); ++step) {
    if (step % 50 != 0) continue;
    const double now = w.engine.now();
    for (stream::NodeId n = 0; n < w.sys->node_count(); ++n) {
      ASSERT_TRUE(w.sys->node_pool(n).available(now).nonnegative())
          << "node " << n << " at t=" << now;
    }
  }
}

TEST_P(SeedSweep, ProbingAtFullAlphaMatchesGuidedSearchQuality) {
  // The event-driven protocol at α=1 on an idle system must find a
  // composition exactly as good (φ) as the synchronous guided search at
  // α=1 with the same views — they implement the same algorithm.
  World w(GetParam());
  const auto req = w.make_request(1);
  const auto expected =
      guided_search(*w.sys, req, 1.0, w.global_state->view(), w.sys->true_state(), 0.0);
  // Evaluate the reference φ NOW — after the protocol commits its session
  // the system is no longer idle.
  const double expected_phi =
      expected ? stream::CompositionEvaluator(*w.sys)
                     .phi(req.graph, expected->assignment(), w.sys->true_state(), 0.0)
                     .value()
               : -1.0;

  std::optional<CompositionOutcome> out;
  w.protocol->execute(req, 1.0, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                      [&](const CompositionOutcome& o) { out = o; });
  w.engine.run_until(60.0);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->success(), expected.has_value());
  if (expected) {
    EXPECT_NEAR(out->phi, expected_phi, 1e-6);
  }
}

TEST_P(SeedSweep, DeterministicReplay) {
  const auto run_once = [&]() {
    World w(GetParam());
    std::vector<double> phis;
    for (int i = 0; i < 6; ++i) {
      const auto req = w.make_request(i + 1);
      w.protocol->execute(req, 0.5, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                          [&](const CompositionOutcome& o) {
                            phis.push_back(o.success() ? o.phi : -1.0);
                          });
      w.engine.run_until(w.engine.now() + 30.0);
    }
    return phis;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(11, 22, 33, 44, 55));

class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, ProbeCostGrowsMonotonicallyWithAlphaOnIdleSystem) {
  World w(7);
  const double alpha = GetParam();
  const auto req = w.make_request(1);
  w.counters.begin_window(w.engine.now());
  std::optional<CompositionOutcome> out;
  w.protocol->execute(req, alpha, PerHopPolicy::kGuided, SelectionPolicy::kBestPhi,
                      [&](const CompositionOutcome& o) { out = o; });
  w.engine.run_until(60.0);
  ASSERT_TRUE(out.has_value());
  const auto probes = w.counters.window_count(sim::counter::kProbe);
  // M = ceil(alpha * 4) per hop over a 3-function path, plus returns: the
  // probe count is bounded by the full tree and at least one per level.
  EXPECT_GE(probes, 3u);
  const std::size_t m = probe_count(4, alpha);
  EXPECT_LE(probes, m + m * m + m * m * m + (m * m * m));  // tree + returns
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep, ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace acp::core
