// Tests for hierarchical state management: threshold-triggered coarse
// global state, aggregation publish, local state staleness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/topology.h"
#include "state/global_state.h"
#include "state/local_state.h"

namespace acp::state {
namespace {

struct StateFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 150;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 10;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(5, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, stream::ResourceVector(100.0, 1000.0));
    }
  }

  /// Replaces the fixture's world with `m` and a fresh system over it.
  void use_mesh(net::OverlayMesh m) {
    sys.reset();
    mesh = std::make_unique<net::OverlayMesh>(std::move(m));
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(5, crng));
    for (stream::NodeId n = 0; n < sys->node_count(); ++n) {
      sys->set_node_capacity(n, stream::ResourceVector(100.0, 1000.0));
    }
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  sim::Engine engine;
  obs::MetricsRegistry counters;
};

TEST_F(StateFixture, StartSeedsFromGroundTruth) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  EXPECT_DOUBLE_EQ(mgr.view().node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(StateFixture, SmallChangesAreFilteredOut) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  // 5% change: below the 10% threshold — no update message, stale view.
  ASSERT_TRUE(sys->commit_node_direct(1, 2, stream::ResourceVector(5.0, 50.0), 0.0));
  mgr.run_check_sweep();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 0u);
  EXPECT_DOUBLE_EQ(mgr.view().node_available(2, 0.0).cpu(), 100.0);  // stale
}

TEST_F(StateFixture, SignificantChangesTriggerUpdate) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 2, stream::ResourceVector(20.0, 50.0), 0.0));
  mgr.run_check_sweep();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 1u);
  EXPECT_DOUBLE_EQ(mgr.view().node_available(2, 0.0).cpu(), 80.0);  // fresh
}

TEST_F(StateFixture, LinkUpdatesFlowThroughAggregationPublish) {
  GlobalStateConfig cfg;
  cfg.threshold_fraction = 0.10;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  const net::OverlayLinkIndex l = 0;
  const double cap = sys->link_pool(l).capacity();
  ASSERT_TRUE(sys->link_pool(l).commit(cap * 0.5, 0.0));

  mgr.run_check_sweep();
  // The owner reported to the aggregation node…
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateAggregationUpdates), 1u);
  // …but the published global copy is only refreshed at the next publish.
  EXPECT_DOUBLE_EQ(mgr.view().link_available_kbps(l, 0.0), cap);
  mgr.run_publish();
  EXPECT_DOUBLE_EQ(mgr.view().link_available_kbps(l, 0.0), cap * 0.5);
}

TEST_F(StateFixture, AggregationRoleRotates) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  const auto first = mgr.aggregation_node();
  mgr.run_publish();
  EXPECT_NE(mgr.aggregation_node(), first);
}

TEST_F(StateFixture, PeriodicTicksRunThroughEngine) {
  GlobalStateConfig cfg;
  cfg.check_interval_s = 10.0;
  cfg.aggregation_publish_interval_s = 60.0;
  GlobalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 4, stream::ResourceVector(50.0, 500.0), 0.0));
  engine.run_until(10.5);  // one check tick
  EXPECT_DOUBLE_EQ(mgr.view().node_available(4, engine.now()).cpu(), 50.0);
}

TEST_F(StateFixture, StartTwiceThrows) {
  GlobalStateManager mgr(*sys, engine, counters);
  mgr.start();
  EXPECT_THROW(mgr.start(), acp::PreconditionError);
}

// ---- Virtual-link memo -----------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The bottleneck of a→b walked over `view`'s per-link reads: the value the
/// coarse view's memo must reproduce bit for bit.
double walked_bottleneck(const net::OverlayMesh& mesh, const stream::StateView& view,
                         stream::NodeId a, stream::NodeId b) {
  double avail = std::numeric_limits<double>::infinity();
  if (a == b) return avail;
  mesh.for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    avail = std::min(avail, view.link_available_kbps(l, 0.0));
  });
  return avail;
}

/// Reads every ordered pair twice through `view` (the second read is a memo
/// hit) and counts the reads that differ from the walk.
std::size_t memo_mismatches(const stream::StreamSystem& sys, const stream::StateView& view) {
  std::size_t mismatches = 0;
  for (stream::NodeId a = 0; a < sys.node_count(); ++a) {
    for (stream::NodeId b = 0; b < sys.node_count(); ++b) {
      const std::uint64_t want = bits(walked_bottleneck(sys.mesh(), view, a, b));
      for (int read = 0; read < 2; ++read) {
        if (bits(view.virtual_link_available_kbps(sys.mesh(), a, b, 0.0)) != want) ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Ordered pairs whose bottleneck differs from the reverse direction's.
std::size_t asymmetric_pairs(const stream::StreamSystem& sys, const stream::StateView& view) {
  std::size_t n = 0;
  for (stream::NodeId a = 0; a < sys.node_count(); ++a) {
    for (stream::NodeId b = 0; b < sys.node_count(); ++b) {
      n += walked_bottleneck(sys.mesh(), view, a, b) != walked_bottleneck(sys.mesh(), view, b, a);
    }
  }
  return n;
}

/// Commits 15–85% of every third link's capacity (links ≡ `phase` mod 3),
/// so each phase moves fresh links by more than the update threshold.
void load_links(stream::StreamSystem& sys, std::uint32_t phase) {
  for (net::OverlayLinkIndex l = phase; l < sys.mesh().link_count(); l += 3) {
    const double share = 0.15 + 0.7 * static_cast<double>((l * 37) % 101) / 100.0;
    ASSERT_TRUE(sys.link_pool(l).commit(share * sys.link_pool(l).capacity(), 0.0));
  }
}

/// Drives the manager through every kind of publication and checks, after
/// each, that the coarse view and a shard view answer every ordered pair
/// exactly as a walk over their own link reads does.
void check_memo_against_walk(stream::StreamSystem& sys, sim::Engine& engine,
                             obs::MetricsRegistry& counters, bool expect_asymmetry) {
  GlobalStateManager mgr(sys, engine, counters);
  fault::FaultInjector faults(sys, engine, util::Rng(99), fault::FaultPlan{}, {}, nullptr);
  mgr.set_fault_injector(&faults);
  const stream::StateView& view = mgr.view();
  const auto shard = mgr.make_shard_view(nullptr);

  // Before start() every published value is zero; start() must drop the
  // entries memoized from them.
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "before start";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "before start (shard)";
  mgr.start();
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "after start";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "after start (shard)";

  mgr.run_publish();
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "after an unchanged publish";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "after an unchanged publish (shard)";

  load_links(sys, 0);
  mgr.run_check_sweep();
  mgr.run_publish();
  if (expect_asymmetry) {
    EXPECT_GT(asymmetric_pairs(sys, view), 0u);
  }
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "after a changing publish";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "after a changing publish (shard)";

  load_links(sys, 1);
  mgr.run_check_sweep();
  faults.tear_state();
  mgr.run_publish();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 3u);
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "after a torn publish";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "after a torn publish (shard)";

  faults.freeze_state(1.0e6);
  load_links(sys, 2);
  mgr.run_check_sweep();
  mgr.run_publish();
  EXPECT_EQ(counters.counter_family_total(obs::metric::kStateGlobalUpdates), 3u);
  EXPECT_EQ(memo_mismatches(sys, view), 0u) << "after a suppressed publish";
  EXPECT_EQ(memo_mismatches(sys, *shard), 0u) << "after a suppressed publish (shard)";
}

TEST_F(StateFixture, MemoizedVirtualLinkReadsMatchTheWalkOnATorus) {
  use_mesh(net::OverlayMesh::torus(5, 6, 1.0, 1.0e6));
  check_memo_against_walk(*sys, engine, counters, /*expect_asymmetry=*/true);
}

TEST_F(StateFixture, MemoizedVirtualLinkReadsMatchTheWalkOnALossyInetMesh) {
  net::OverlayConfig oc;
  oc.member_count = 40;
  oc.min_loss_rate = 0.001;
  oc.max_loss_rate = 0.01;
  util::Rng orng(43);
  use_mesh(net::OverlayMesh(ip, oc, orng));
  check_memo_against_walk(*sys, engine, counters, /*expect_asymmetry=*/false);
}

TEST_F(StateFixture, EachCoarseVirtualLinkQueryObservesStalenessOnce) {
  use_mesh(net::OverlayMesh::torus(5, 6, 1.0, 1.0e6));
  obs::Observability obs;
  GlobalStateManager mgr(*sys, engine, counters, GlobalStateConfig{}, &obs);
  mgr.start();
  engine.run_until(30.0);  // three check sweeps, no publish: the copy is 30 s old
  const stream::StateView& view = mgr.view();

  // Multi-hop pairs, with repeats (memo hits) and both directions.
  const std::vector<std::pair<stream::NodeId, stream::NodeId>> pairs{
      {0, 14}, {0, 14}, {14, 0}, {3, 20}, {29, 1}, {3, 20}, {0, 14}, {7, 25}};
  for (const auto& [a, b] : pairs) {
    ASSERT_GE(mesh->virtual_link_hops(a, b), 2u);
    view.virtual_link_available_kbps(*mesh, a, b, engine.now());
  }
  const obs::Histogram* staleness = obs.metrics.find_histogram(obs::metric::kStateReadStaleness);
  ASSERT_NE(staleness, nullptr);
  EXPECT_EQ(staleness->count(), pairs.size());
  EXPECT_DOUBLE_EQ(staleness->min(), 30.0);
  EXPECT_DOUBLE_EQ(staleness->sum(), 30.0 * static_cast<double>(pairs.size()));

  // Co-location reads no state, so it observes nothing.
  view.virtual_link_available_kbps(*mesh, 5, 5, engine.now());
  EXPECT_EQ(staleness->count(), pairs.size());

  const obs::Gauge* age = obs.metrics.find_gauge(obs::metric::kStateStalenessAge);
  ASSERT_NE(age, nullptr);
  EXPECT_TRUE(age->ever_set());
  EXPECT_DOUBLE_EQ(age->value(), 30.0);
}

// ---- Local state -------------------------------------------------------------

TEST_F(StateFixture, LocalViewSelfIsAlwaysExact) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 3, stream::ResourceVector(40.0, 100.0), 0.0));
  // No refresh has run since the commit, but node 3 knows itself.
  EXPECT_DOUBLE_EQ(mgr.view_from(3).node_available(3, 0.0).cpu(), 60.0);
  // A remote vantage still sees the stale snapshot.
  EXPECT_DOUBLE_EQ(mgr.view_from(0).node_available(3, 0.0).cpu(), 100.0);
}

TEST_F(StateFixture, LocalRefreshUpdatesNeighborhood) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  ASSERT_TRUE(sys->commit_node_direct(1, 3, stream::ResourceVector(40.0, 100.0), 0.0));
  mgr.run_refresh();
  EXPECT_DOUBLE_EQ(mgr.view_from(0).node_available(3, 0.0).cpu(), 60.0);
}

TEST_F(StateFixture, AdjacentLinksAreExactFromEitherEnd) {
  LocalStateManager mgr(*sys, engine, counters);
  mgr.start();
  const net::OverlayLinkIndex l = 0;
  const auto& link = mesh->link(l);
  const double cap = sys->link_pool(l).capacity();
  ASSERT_TRUE(sys->link_pool(l).commit(cap * 0.3, 0.0));
  EXPECT_DOUBLE_EQ(mgr.view_from(link.a).link_available_kbps(l, 0.0), cap * 0.7);
  EXPECT_DOUBLE_EQ(mgr.view_from(link.b).link_available_kbps(l, 0.0), cap * 0.7);
}

TEST_F(StateFixture, RefreshMessagesCountedOnlyWhenEnabled) {
  LocalStateConfig cfg;
  cfg.count_messages = true;
  LocalStateManager mgr(*sys, engine, counters, cfg);
  mgr.start();
  EXPECT_GT(counters.counter_family_total(obs::metric::kStateLocalRefresh), 0u);
}

}  // namespace
}  // namespace acp::state
