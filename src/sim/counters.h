// Legacy counter spellings, kept for perfbench/main.cpp, which reads its
// stream.confirmations and discovery.lookups metrics through
// canonical_metric_name. Counters live in obs::MetricsRegistry under the
// names in obs/observability.h; nothing else should use this header.
#pragma once

#include <string>

#include "obs/observability.h"
#include "util/error.h"

namespace acp::sim {

namespace counter {
inline constexpr const char* kConfirmation = "confirmation_messages";
inline constexpr const char* kDiscovery = "discovery_lookups";
}  // namespace counter

/// Registry name of a legacy counter spelling above.
inline std::string canonical_metric_name(const std::string& counter_name) {
  if (counter_name == counter::kConfirmation) return obs::metric::kConfirmations;
  if (counter_name == counter::kDiscovery) return obs::metric::kDiscoveryLookups;
  throw PreconditionError("unknown legacy counter name: " + counter_name);
}

}  // namespace acp::sim
