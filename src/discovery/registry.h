// Decentralized service discovery stand-in (paper ref [6], SpiderNet).
//
// The per-hop probe processing step "acquires the locations of all available
// candidate components for each next-hop function using a decentralized
// service discovery system". We model the discovery result exactly (the
// registry is the system's component index) and account for its cost:
// each lookup counts one discovery message and can carry a latency drawn
// from a configurable range, which the probe's hop delay absorbs.
#pragma once

#include <vector>

#include "obs/observability.h"
#include "stream/system.h"
#include "util/rng.h"

namespace acp::discovery {

struct DiscoveryConfig {
  double min_lookup_latency_ms = 0.0;
  double max_lookup_latency_ms = 0.0;  ///< default: instantaneous lookups
};

class Registry {
 public:
  /// Lookups count into `counters` (acp.discovery.lookups). `obs`, when
  /// non-null, records each lookup's wall-clock under the
  /// "discovery.lookup" profiling scope.
  Registry(const stream::StreamSystem& sys, obs::MetricsRegistry& counters,
           DiscoveryConfig config = {}, obs::Observability* obs = nullptr);

  /// All components currently providing `f`. Counts one discovery lookup.
  const std::vector<stream::ComponentId>& lookup(stream::FunctionId f) const;

  /// Latency of the last lookup-like operation (drawn per call).
  double draw_lookup_latency_ms(util::Rng& rng) const;

 private:
  const stream::StreamSystem* sys_;
  mutable obs::CounterHandle lookup_messages_;
  DiscoveryConfig config_;
  obs::ProfSlot prof_lookup_;
};

}  // namespace acp::discovery
