// Tests for the Optimal / Random / Static baseline composers.
#include <gtest/gtest.h>

#include <memory>

#include "core/baseline_composers.h"
#include "test_helpers.h"
#include "net/topology.h"

namespace acp::core {
namespace {

using stream::QoSVector;
using stream::ResourceVector;

struct BaselineFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 250;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 15;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(6, crng));
    util::Rng drng(45);
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
    ctx = BaselineContext{sys.get(), sessions.get(), &engine, &counters};
  }

  workload::Request make_request() {
    workload::Request req;
    req.id = next_id++;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(3000.0, 0.5);
    req.duration_s = 300.0;
    return req;
  }

  CompositionOutcome compose_with(Composer& c, const workload::Request& req) {
    CompositionOutcome out;
    bool called = false;
    c.compose(req, [&](const CompositionOutcome& o) {
      out = o;
      called = true;
    });
    EXPECT_TRUE(called) << "baselines must complete synchronously";
    return out;
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  sim::Engine engine;
  obs::MetricsRegistry counters;
  BaselineContext ctx;
  stream::RequestId next_id = 1;
  std::vector<stream::FunctionId> chain;
};

TEST_F(BaselineFixture, OptimalSucceedsAndCommits) {
  OptimalComposer optimal(ctx);
  EXPECT_EQ(optimal.name(), "Optimal");
  const auto out = compose_with(optimal, make_request());
  EXPECT_TRUE(out.success());
  EXPECT_TRUE(out.found_qualified);
  EXPECT_EQ(sessions->active_count(), 1u);
}

TEST_F(BaselineFixture, OptimalPhiIsMinimalAmongAllComposersPicks) {
  // Optimal's phi lower-bounds Random's on the same fresh system.
  const auto req = make_request();
  OptimalComposer optimal(ctx);
  const auto best = compose_with(optimal, req);
  ASSERT_TRUE(best.success());
  sessions->close(best.session);

  RandomComposer random(ctx, util::Rng(99));
  for (int i = 0; i < 10; ++i) {
    const auto out = compose_with(random, make_request());
    if (out.success()) {
      EXPECT_GE(out.phi, best.phi - 1e-9);
      sessions->close(out.session);
    }
  }
}

TEST_F(BaselineFixture, OptimalCountsExhaustiveProbes) {
  OptimalComposer optimal(ctx);
  const auto req = make_request();
  compose_with(optimal, req);
  // 3 functions with 4 candidates each on one path: 4 + 16 + 64 = 84.
  EXPECT_EQ(counters.counter_family_total(obs::metric::kProbeMessages), 84u);
}

TEST_F(BaselineFixture, OptimalFailsOnImpossibleRequest) {
  OptimalComposer optimal(ctx);
  auto req = make_request();
  req.qos_req = QoSVector::from_metrics(0.001, 0.000001);
  const auto out = compose_with(optimal, req);
  EXPECT_FALSE(out.success());
  EXPECT_EQ(sessions->active_count(), 0u);
}

TEST_F(BaselineFixture, RandomIsSeedDeterministic) {
  RandomComposer a(ctx, util::Rng(5));
  const auto out1 = compose_with(a, make_request());
  if (out1.success()) sessions->close(out1.session);
  RandomComposer b(ctx, util::Rng(5));
  const auto out2 = compose_with(b, make_request());
  EXPECT_EQ(out1.success(), out2.success());
  if (out1.success() && out2.success()) {
    EXPECT_NEAR(out1.phi, out2.phi, 1e-12);
    sessions->close(out2.session);
  }
}

TEST_F(BaselineFixture, StaticAlwaysPicksSameComponents) {
  StaticComposer s(ctx);
  EXPECT_EQ(s.name(), "Static");
  const auto o1 = compose_with(s, make_request());
  ASSERT_TRUE(o1.success());
  const auto* r1 = sessions->find(o1.session);
  const auto comps1 = r1->components;
  const auto o2 = compose_with(s, make_request());
  ASSERT_TRUE(o2.success());
  const auto* r2 = sessions->find(o2.session);
  EXPECT_EQ(comps1, r2->components);
}

TEST_F(BaselineFixture, StaticSaturatesItsFixedNodes) {
  StaticComposer s(ctx);
  // The fixed choice's nodes have 100 cpu; each request takes 10–30 cpu per
  // node, so repeated requests must eventually fail.
  int failures = 0;
  for (int i = 0; i < 40; ++i) {
    const auto out = compose_with(s, make_request());
    if (!out.success()) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST_F(BaselineFixture, RandomSometimesFailsWhereOptimalSucceeds) {
  // Load most of the system so only a few placements remain feasible.
  util::Rng rng(3);
  for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
    if (n % 3 != 0) {
      sys->commit_node_direct(1000 + n, n, ResourceVector(95.0, 950.0), 0.0);
    }
  }
  OptimalComposer optimal(ctx);
  RandomComposer random(ctx, util::Rng(17));
  int optimal_ok = 0, random_ok = 0;
  for (int i = 0; i < 20; ++i) {
    const auto o = compose_with(optimal, make_request());
    if (o.success()) {
      ++optimal_ok;
      sessions->close(o.session);
    }
    const auto r = compose_with(random, make_request());
    if (r.success()) {
      ++random_ok;
      sessions->close(r.session);
    }
  }
  EXPECT_GT(optimal_ok, random_ok);
}

}  // namespace
}  // namespace acp::core
