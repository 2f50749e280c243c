// Discrete-event simulation engine.
//
// The whole reproduction is driven by this engine: request arrivals, probe
// hops (delayed by overlay-link latency), transient-reservation timeouts,
// state-update ticks, session teardowns, and sampling ticks are all events.
// Observability samplers run as observers: ordered like events, counted as
// none.
//
// Determinism: events at equal timestamps fire in scheduling order (a
// monotonic sequence number breaks ties), so a fixed RNG seed reproduces a
// run exactly. Pending events live in one sim::EventHeap (sim/event_heap.h)
// ordered exactly by (at, seq).
//
// Two kinds of event share that order. A typed event (Event) is a
// trivially copyable handler plus two words: the probe protocol's hops and
// returns schedule them with a slot index into its own probe slab, so a hop
// allocates nothing. A closure (std::function) serves the rare callers —
// arrivals, session ends, state ticks, faults, migration, the tuner,
// observers, timeouts and retries; it waits in an engine-owned pool and is
// moved out of it before it runs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "sim/event_heap.h"
#include "util/error.h"

namespace acp::obs {
class Attribution;
}  // namespace acp::obs

namespace acp::sim {

/// Simulated time in seconds.
using SimTime = double;

/// Handle that allows cancelling a scheduled event. 0 is never a valid id.
using EventId = std::uint64_t;

class Engine {
 public:
  using Callback = std::function<void()>;

  /// A typed event: `handler(context, arg)` runs when it fires. The
  /// scheduler owns whatever `context` and `arg` name until then, and a
  /// cancelled typed event leaves that to the scheduler too.
  struct Event {
    void (*handler)(void* context, std::uint64_t arg) = nullptr;
    void* context = nullptr;
    std::uint64_t arg = 0;
  };

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time (seconds since simulation start).
  SimTime now() const { return now_; }

  /// Schedules `cb` to fire at absolute time `at` (>= now()). `tag`, when
  /// given, must be a string literal (the pointer is stored, not copied) —
  /// it labels the event's queue wait in the attribution decomposition
  /// (obs/attribution.h attr_wait names); untagged events report "other".
  EventId schedule_at(SimTime at, Callback cb, const char* tag = nullptr);

  /// Schedules `cb` to fire `delay` seconds from now (delay >= 0).
  EventId schedule_after(SimTime delay, Callback cb, const char* tag = nullptr) {
    return schedule_at(now_ + delay, std::move(cb), tag);
  }

  /// Schedules the typed event `ev` (non-null handler); same order, tags
  /// and accounting as a closure.
  EventId schedule_at(SimTime at, Event ev, const char* tag = nullptr);
  EventId schedule_after(SimTime delay, Event ev, const char* tag = nullptr) {
    return schedule_at(now_ + delay, ev, tag);
  }

  /// Schedules an observer: `cb` fires at `at` in (time, seq) order among
  /// the events, but it is not a simulation event. events_fired(),
  /// acp.sim.events_executed, pending(), acp.sim.queue_depth and the
  /// sim.dispatch scope leave it out, so attaching an observer (the
  /// timeline sampler) changes no sim number. It can be cancelled.
  EventId observe_at(SimTime at, Callback cb, const char* tag = nullptr);
  EventId observe_after(SimTime delay, Callback cb, const char* tag = nullptr) {
    return observe_at(now_ + delay, std::move(cb), tag);
  }

  /// Cancels a pending event or observer; returns false if it already
  /// fired, was cancelled before, or never existed (0 included). O(log n),
  /// and destroys a closure at once rather than at its fire time, so heavy
  /// retry cancellation can't grow engine state.
  bool cancel(EventId id);

  /// Runs events with timestamp <= `until` (inclusive), then advances the
  /// clock to `until`. Returns the number of events run (observers not
  /// counted).
  std::uint64_t run_until(SimTime until);

  /// Runs all remaining events. Returns the number of events run
  /// (observers not counted).
  std::uint64_t run();

  /// Fires exactly one event if any is pending; returns false if idle.
  bool step();

  /// Number of pending (non-cancelled) events, observers excluded.
  std::size_t pending() const { return queue_.size() - observers_; }

  /// Timestamp of the earliest pending event; false when idle. Pure peek —
  /// the sharded engine's window loop uses it to skip empty windows.
  bool next_event_at(SimTime& at) const {
    std::uint64_t seq = 0;
    return queue_.peek(at, seq);
  }

  /// Simulation events fired so far, observers excluded.
  std::uint64_t events_fired() const { return fired_; }

  /// Mirrors engine activity into `registry` (nullptr detaches): counter
  /// acp.sim.events_executed per fired event, gauge acp.sim.queue_depth
  /// updated after each step (its max tracks the high-water mark), and the
  /// wall-clock of every dispatched callback as the "sim.dispatch"
  /// profiling scope.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Mirrors per-event queue waits (fire time − enqueue time, sim seconds)
  /// into `attr`, decomposed by scheduling tag. nullptr detaches; a
  /// disabled Attribution costs one branch per event.
  void set_attribution(obs::Attribution* attr) { attribution_ = attr; }

 private:
  /// A pending event plus the bookkeeping the attribution layer needs:
  /// when it entered the queue and under which tag.
  struct Pending {
    Event event;
    SimTime enqueued_at = 0.0;
    const char* tag = nullptr;  ///< string literal; nullptr = untagged
    bool observer = false;
  };
  using Queue = EventHeap<Pending>;

  /// Queues `ev` at `at` (already checked against now_).
  EventId push(SimTime at, Event ev, const char* tag, bool observer);
  /// A closure's typed event: `cb` waits in closures_[arg].
  Event stash(Callback cb);
  /// Handler of every closure event: moves the closure out of the pool,
  /// frees its slot, then runs it.
  static void run_closure(void* engine, std::uint64_t index);

  /// Advances the clock to the popped event and dispatches it; false when
  /// it was an observer.
  bool fire(const Queue::Entry& ev);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  std::size_t observers_ = 0;  ///< pending observers
  Queue queue_;
  std::vector<Callback> closures_;            ///< pending closures, by pool slot
  std::vector<std::uint32_t> free_closures_;  ///< recycled pool slots
  obs::Attribution* attribution_ = nullptr;

  // Cached metric handles (owned by the attached registry); both set or
  // both null.
  obs::Counter* events_metric_ = nullptr;
  obs::Gauge* depth_metric_ = nullptr;
  obs::ProfSlot dispatch_slot_;  ///< "sim.dispatch" wall time; inert when detached
};

}  // namespace acp::sim
