#include "discovery/registry.h"

#include <gtest/gtest.h>

#include <memory>

#include "net/topology.h"

namespace acp::discovery {
namespace {

struct DiscoveryFixture : ::testing::Test {
  void SetUp() override {
    util::Rng rng(42);
    net::TopologyConfig tc;
    tc.node_count = 120;
    ip = net::generate_power_law_topology(tc, rng);
    net::OverlayConfig oc;
    oc.member_count = 6;
    util::Rng orng(43);
    mesh = std::make_unique<net::OverlayMesh>(ip, oc, orng);
    util::Rng crng(44);
    sys = std::make_unique<stream::StreamSystem>(*mesh,
                                                 stream::FunctionCatalog::generate(4, crng));
    c0 = sys->add_component(2, 0, {});
    c1 = sys->add_component(2, 3, {});
  }

  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;
  obs::MetricsRegistry counters;
  stream::ComponentId c0{}, c1{};
};

TEST_F(DiscoveryFixture, LookupReturnsAllProviders) {
  Registry reg(*sys, counters);
  const auto& found = reg.lookup(2);
  EXPECT_EQ(found, (std::vector<stream::ComponentId>{c0, c1}));
  EXPECT_TRUE(reg.lookup(0).empty());
}

TEST_F(DiscoveryFixture, LookupsAreCounted) {
  Registry reg(*sys, counters);
  reg.lookup(2);
  reg.lookup(1);
  reg.lookup(2);
  EXPECT_EQ(counters.counter_family_total(obs::metric::kDiscoveryLookups), 3u);
}

TEST_F(DiscoveryFixture, LatencyDrawnFromConfiguredRange) {
  DiscoveryConfig cfg;
  cfg.min_lookup_latency_ms = 5.0;
  cfg.max_lookup_latency_ms = 10.0;
  Registry reg(*sys, counters, cfg);
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const double lat = reg.draw_lookup_latency_ms(rng);
    EXPECT_GE(lat, 5.0);
    EXPECT_LE(lat, 10.0);
  }
}

TEST_F(DiscoveryFixture, ZeroLatencyByDefault) {
  Registry reg(*sys, counters);
  util::Rng rng(7);
  EXPECT_DOUBLE_EQ(reg.draw_lookup_latency_ms(rng), 0.0);
}

TEST_F(DiscoveryFixture, RejectsInvalidLatencyRange) {
  DiscoveryConfig cfg;
  cfg.min_lookup_latency_ms = 10.0;
  cfg.max_lookup_latency_ms = 5.0;
  EXPECT_THROW(Registry(*sys, counters, cfg), acp::PreconditionError);
}

}  // namespace
}  // namespace acp::discovery
