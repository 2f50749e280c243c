// Wall-clock profiling scopes — where does real (not simulated) time go?
//
// The simulator's metrics are sim-time observables; the ROADMAP's
// "as fast as the hardware allows" goal needs the orthogonal axis: host
// wall-clock per hot-path invocation. A `ProfScope` measures one invocation
// of a named scope with std::chrono::steady_clock and records the elapsed
// seconds into the shared MetricsRegistry as a labeled histogram
// (`acp.prof.wall_s{scope=<name>}`), so per-scope call counts, totals, and
// quantiles ride the existing snapshot/report/bench-JSON machinery for free.
//
// Usage mirrors the cached-handle idiom sim::Engine uses for its counters:
// resolve a ProfSlot once off the hot path, then construct a ProfScope per
// invocation — two steady_clock reads and one histogram observe when
// profiling is on, a single branch when off:
//
//   ProfSlot slot_ = profiler.scope(prof_scope::kProbingProcess);  // setup
//   ...
//   { ProfScope prof(slot_); hot_path(); }                          // per call
//
// A scope at a protocol-phase call site can also charge its one elapsed
// time to the cost attribution's host rows (attr_host{phase, node}, see
// obs/attribution.h) when attribution is enabled, so the profiler and the
// attribution artifact count the same invocations with the same clock.
//
// Optional allocation deltas: when the build defines ACPSTREAM_PROF_ALLOC
// (CMake option, off by default), profile.cpp replaces global operator
// new/delete with counting versions and every scope additionally records
// the number of heap allocations it performed
// (`acp.prof.allocs{scope=<name>}`). Without the define the counters
// compile away and allocations_now() is always 0.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/attribution.h"
#include "obs/metrics.h"

namespace acp::obs {

/// Bucket bounds (seconds) for wall-clock scope histograms: 100 ns … 1 s,
/// roughly logarithmic. Hot-path invocations sit at the bottom; anything
/// beyond the last finite bucket lands in +inf and is visible in max().
std::vector<double> prof_bounds_s();

/// Bucket bounds for per-scope allocation-count histograms.
std::vector<double> alloc_bounds();

/// Number of global operator-new calls so far on *this thread* (the counter
/// is thread-local, so scope deltas stay exact under parallel trials).
/// Always 0 unless compiled with ACPSTREAM_PROF_ALLOC.
std::uint64_t allocations_now();

/// True when the build counts allocations (ACPSTREAM_PROF_ALLOC).
bool alloc_counting_enabled();

/// Cached metric handles for one named scope. Default-constructed (or
/// resolved from a detached Profiler) it is inert: wall == nullptr and a
/// ProfScope over it costs one branch.
struct ProfSlot {
  Histogram* wall = nullptr;    ///< acp.prof.wall_s{scope=...}
  Histogram* allocs = nullptr;  ///< acp.prof.allocs{scope=...}; null unless counting
};

/// Hands out ProfSlots backed by a MetricsRegistry (or inert ones when
/// detached). Lives inside obs::Observability next to the registry.
class Profiler {
 public:
  Profiler() = default;
  explicit Profiler(MetricsRegistry* registry) : registry_(registry) {}

  void attach(MetricsRegistry* registry) { registry_ = registry; }
  bool enabled() const { return registry_ != nullptr; }

  /// Resolves (creating on first use) the histograms for `name`. Stable for
  /// the registry's lifetime — resolve once, reuse per invocation.
  ProfSlot scope(const char* name) const;

 private:
  MetricsRegistry* registry_ = nullptr;
};

/// RAII measurement of one scope invocation. Construction snapshots the
/// steady clock (and the allocation counter when enabled); destruction
/// observes the deltas into the slot's histograms and, when `attr` is
/// enabled, adds the same wall seconds to attr_host{phase, node}. Over an
/// inert slot it reads no clock and records nothing.
class ProfScope {
 public:
  explicit ProfScope(const ProfSlot& slot) : ProfScope(slot, nullptr, nullptr, -1) {}
  ProfScope(const ProfSlot& slot, Attribution* attr, const char* phase, std::int64_t node)
      : slot_(slot),
        attr_(attr != nullptr && attr->enabled() ? attr : nullptr),
        phase_(phase),
        node_(node) {
    if (slot_.wall != nullptr) {
      if (slot_.allocs != nullptr) allocs_start_ = allocations_now();
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (slot_.wall == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double wall_s = std::chrono::duration<double>(elapsed).count();
    slot_.wall->observe(wall_s);
    if (attr_ != nullptr) attr_->record_wall(phase_, node_, wall_s);
    if (slot_.allocs != nullptr) {
      slot_.allocs->observe(static_cast<double>(allocations_now() - allocs_start_));
    }
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ProfSlot slot_;
  Attribution* attr_;  ///< null unless attribution is enabled
  const char* phase_;
  std::int64_t node_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t allocs_start_ = 0;
};

namespace metric {
inline constexpr const char* kProfWall = "acp.prof.wall_s";   ///< label: scope
inline constexpr const char* kProfAllocs = "acp.prof.allocs"; ///< label: scope
}  // namespace metric

/// Well-known scope names, so benches, the report, and acptrace diff agree
/// on spelling.
namespace prof_scope {
inline constexpr const char* kSimDispatch = "sim.dispatch";
// Windowed-engine phases (sim/sharded_engine.h).
inline constexpr const char* kSimLaneDrain = "sim.lane_drain";
inline constexpr const char* kSimWindowSlowestLane = "sim.window_slowest_lane";
inline constexpr const char* kSimBarrierWait = "sim.barrier_wait";
inline constexpr const char* kSimApply = "sim.apply";
inline constexpr const char* kProbingProcess = "probing.process_probe";
inline constexpr const char* kProbingRank = "probing.rank_candidates";
inline constexpr const char* kProbingFinalize = "probing.finalize";
inline constexpr const char* kDiscoveryLookup = "discovery.lookup";
inline constexpr const char* kStateCheckSweep = "state.check_sweep";
inline constexpr const char* kStatePublish = "state.publish";
}  // namespace prof_scope

}  // namespace acp::obs
