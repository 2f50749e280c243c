// End-to-end observability tests: run the probing protocol with an
// Observability sink attached and check that (a) the per-hop candidate
// accounting invariant holds, (b) the trace forms complete span chains, and
// (c) failures leave a probe-death breakdown behind.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "core/probing.h"
#include "net/topology.h"
#include "obs/observability.h"
#include "state/global_state.h"
#include "test_helpers.h"

namespace acp::core {
namespace {

using stream::ComponentId;
using stream::QoSVector;
using stream::ResourceVector;

struct ObsProbingFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 300;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 20;
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
    registry = std::make_unique<discovery::Registry>(*sys, counters);
    global_state = std::make_unique<state::GlobalStateManager>(*sys, engine, counters,
                                                               state::GlobalStateConfig{}, &obs);
    global_state->start();
    obs.tracer.set_stream(&trace_sink);
    obs.tracer.set_clock([this] { return engine.now(); });
    protocol = std::make_unique<ProbingProtocol>(*sys, *sessions, engine, counters, *registry,
                                                 global_state->view(), util::Rng(7),
                                                 ProbingConfig{}, &obs);
  }

  void TearDown() override { obs.tracer.set_clock(nullptr); }

  workload::Request make_request(double qos_delay = 3000.0) {
    workload::Request req;
    req.id = next_request_id++;
    req.graph.add_node(chain[0], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[1], ResourceVector(10.0, 100.0));
    req.graph.add_node(chain[2], ResourceVector(10.0, 100.0));
    req.graph.add_edge(0, 1, 100.0);
    req.graph.add_edge(1, 2, 100.0);
    req.qos_req = QoSVector::from_metrics(qos_delay, 0.5);
    req.duration_s = 600.0;
    req.client_ip = 3;
    return req;
  }

  CompositionOutcome run(const workload::Request& req, double alpha,
                         PerHopPolicy hop = PerHopPolicy::kGuided,
                         SelectionPolicy sel = SelectionPolicy::kBestPhi) {
    std::optional<CompositionOutcome> out;
    protocol->execute(req, alpha, hop, sel, [&](const CompositionOutcome& o) { out = o; });
    engine.run_until(engine.now() + 60.0);
    EXPECT_TRUE(out.has_value()) << "probing did not finalize";
    return out.value_or(CompositionOutcome{});
  }

  std::vector<obs::ParsedTraceEvent> trace_events() const {
    std::vector<obs::ParsedTraceEvent> events;
    std::istringstream is(trace_sink.str());
    std::string line;
    while (std::getline(is, line)) {
      if (!line.empty()) events.push_back(obs::parse_trace_line(line));
    }
    return events;
  }

  std::uint64_t counter_value(const char* name, const obs::Labels& labels = {}) const {
    const obs::Counter* c = obs.metrics.find_counter(name, labels);
    return c == nullptr ? 0 : c->value();
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  std::unique_ptr<stream::SessionTable> sessions;
  std::unique_ptr<discovery::Registry> registry;
  std::unique_ptr<state::GlobalStateManager> global_state;
  std::unique_ptr<ProbingProtocol> protocol;
  sim::Engine engine;
  obs::MetricsRegistry counters;
  obs::Observability obs;
  std::ostringstream trace_sink;
  stream::RequestId next_request_id = 1;
  std::vector<stream::FunctionId> chain;
};

TEST_F(ObsProbingFixture, RejectReasonsAccountForEveryCandidateEvaluated) {
  const auto out = run(make_request(), 0.5);
  ASSERT_TRUE(out.success());

  // Per-hop spawns exclude the root probes launched at the deputy (hop 0),
  // which never passed through candidate evaluation.
  std::uint64_t root_spawns = 0;
  for (const auto& ev : trace_events()) {
    if (ev.str("type") == "probe_spawned" && ev.num("hop") == 0.0) ++root_spawns;
  }
  ASSERT_GT(root_spawns, 0u);

  const std::uint64_t evaluated = counter_value(obs::metric::kCandidatesEvaluated);
  const std::uint64_t spawned = counter_value(obs::metric::kProbeSpawned);
  const std::uint64_t rejected = obs.metrics.counter_family_total(obs::metric::kCandidatesRejected);
  ASSERT_GT(evaluated, 0u);
  EXPECT_EQ(evaluated, (spawned - root_spawns) + rejected)
      << "evaluated=" << evaluated << " spawned=" << spawned << " roots=" << root_spawns
      << " rejected=" << rejected;

  EXPECT_EQ(counter_value(obs::metric::kRequestAccepted), 1u);
  EXPECT_EQ(counter_value(obs::metric::kRequestConfirmed), 1u);
  EXPECT_EQ(counter_value(obs::metric::kRequestFailed), 0u);
}

TEST_F(ObsProbingFixture, TraceFormsCompleteSpanChainOnSuccess) {
  const auto req = make_request();
  const auto out = run(req, 0.5);
  ASSERT_TRUE(out.success());

  const auto events = trace_events();
  std::set<double> spawned_ids;
  std::size_t accepted = 0, confirmed = 0, returned = 0;
  for (const auto& ev : events) {
    const std::string& type = ev.str("type");
    if (type == "request_accepted") {
      ++accepted;
      EXPECT_DOUBLE_EQ(ev.num("req"), static_cast<double>(req.id));
      EXPECT_GE(ev.num("paths"), 1.0);
    } else if (type == "probe_spawned") {
      const double parent = ev.num("parent");
      if (ev.num("hop") == 0.0) {
        EXPECT_DOUBLE_EQ(parent, 0.0);
      } else {
        // Children must reference a probe spawned earlier in the stream.
        EXPECT_TRUE(spawned_ids.count(parent) == 1)
            << "child " << ev.num("probe") << " has unknown parent " << parent;
      }
      spawned_ids.insert(ev.num("probe"));
    } else if (type == "probe_hop" || type == "probe_returned" || type == "probe_rejected") {
      EXPECT_TRUE(spawned_ids.count(ev.num("probe")) == 1)
          << type << " references unspawned probe " << ev.num("probe");
      if (type == "probe_returned") ++returned;
    } else if (type == "composition_confirmed") {
      ++confirmed;
      EXPECT_DOUBLE_EQ(ev.num("req"), static_cast<double>(req.id));
      EXPECT_GT(ev.num("session"), 0.0);
      EXPECT_GT(ev.num("phi"), 0.0);
      EXPECT_GE(ev.num("setup_s"), 0.0);
    }
  }
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(confirmed, 1u);
  EXPECT_GT(returned, 0u);
  EXPECT_FALSE(spawned_ids.empty());

  const obs::Histogram* setup = obs.metrics.find_histogram(
      obs::metric::kRequestSetupTime, {{"outcome", "confirmed"}});
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->count(), 1u);
}

TEST_F(ObsProbingFixture, ImpossibleQoSLeavesDeathBreakdownAndFailureSpan) {
  // A 0.01 ms end-to-end delay bound is unsatisfiable: every candidate is
  // filtered (or every probe dies), and the composition fails.
  const auto out = run(make_request(0.01), 0.5);
  EXPECT_FALSE(out.success());

  EXPECT_EQ(counter_value(obs::metric::kRequestAccepted), 1u);
  EXPECT_EQ(counter_value(obs::metric::kRequestFailed), 1u);
  EXPECT_EQ(counter_value(obs::metric::kRequestConfirmed), 0u);
  EXPECT_GE(obs.metrics.counter_family_total(obs::metric::kProbeDeaths), 1u);

  bool failed_span = false, cancelled_all = false;
  for (const auto& ev : trace_events()) {
    if (ev.str("type") == "composition_failed") failed_span = true;
    if (ev.str("type") == "transients_cancelled" && ev.str("scope") == "all") {
      cancelled_all = true;
    }
  }
  EXPECT_TRUE(failed_span);
  EXPECT_TRUE(cancelled_all);

  const obs::Histogram* setup = obs.metrics.find_histogram(
      obs::metric::kRequestSetupTime, {{"outcome", "failed"}});
  ASSERT_NE(setup, nullptr);
  EXPECT_EQ(setup->count(), 1u);
}

/// Forwards every query to the coarse view and counts the ones that read
/// published state (a co-located virtual link reads none), plus the overlay
/// links those virtual links span.
class CoarseQueryCounter final : public stream::StateView {
 public:
  explicit CoarseQueryCounter(const stream::StateView& inner) : inner_(inner) {}

  ResourceVector node_available(stream::NodeId node, double now) const override {
    ++queries;
    return inner_.node_available(node, now);
  }
  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    ++queries;
    return inner_.link_available_kbps(l, now);
  }
  double virtual_link_available_kbps(const net::OverlayMesh& mesh, stream::NodeId a,
                                     stream::NodeId b, double now) const override {
    if (a != b) {
      ++queries;
      ++virtual_link_queries;
      overlay_links_spanned += mesh.virtual_link_hops(a, b);
    }
    return inner_.virtual_link_available_kbps(mesh, a, b, now);
  }

  mutable std::size_t queries = 0;
  mutable std::size_t virtual_link_queries = 0;
  mutable std::size_t overlay_links_spanned = 0;

 private:
  const stream::StateView& inner_;
};

TEST_F(ObsProbingFixture, CoarseStateReadsRecordStaleness) {
  const CoarseQueryCounter counted(global_state->view());
  protocol = std::make_unique<ProbingProtocol>(*sys, *sessions, engine, counters, *registry,
                                               counted, util::Rng(7), ProbingConfig{}, &obs);
  run(make_request(), 0.5);
  // Every coarse query of the hops observes its staleness exactly once,
  // however many overlay links a virtual link spans; right after start()
  // the copies are fresh (age ≈ 0).
  ASSERT_GT(counted.virtual_link_queries, 0u);
  ASSERT_GT(counted.overlay_links_spanned, counted.virtual_link_queries);
  const obs::Histogram* staleness =
      obs.metrics.find_histogram(obs::metric::kStateReadStaleness);
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count(), counted.queries);
  EXPECT_GE(staleness->min(), 0.0);
  const obs::Gauge* age = obs.metrics.find_gauge(obs::metric::kStateStalenessAge);
  ASSERT_NE(age, nullptr);
  EXPECT_TRUE(age->ever_set());
}

}  // namespace
}  // namespace acp::core
