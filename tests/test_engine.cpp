#include "sim/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/profile.h"
#include "sim/counters.h"
#include "sim/event_heap.h"
#include "sim/sharded_engine.h"

namespace acp::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  double seen = -1;
  e.schedule_at(5.5, [&] { seen = e.now(); });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(e.now(), 5.5);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  double seen = -1;
  e.schedule_at(2.0, [&] {
    e.schedule_after(3.0, [&] { seen = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, RejectsPastScheduling) {
  Engine e;
  e.schedule_at(10.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5.0, [] {}), PreconditionError);
}

TEST(Engine, RejectsNullCallback) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, nullptr), PreconditionError);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const auto id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelReturnsFalseTwice) {
  Engine e;
  const auto id = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  EXPECT_FALSE(e.cancel(99999));
}

TEST(Engine, RunUntilIsInclusiveAndAdvancesClock) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(2.5, [&] { ++fired; });
  const auto n = e.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, StepFiresExactlyOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) e.schedule_after(1.0, recurse);
  };
  e.schedule_at(0.0, recurse);
  e.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
  EXPECT_EQ(e.events_fired(), 10u);
}

TEST(Engine, PendingExcludesCancelled) {
  Engine e;
  const auto a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, ObserversFireInOrderButCountAsNoEvent) {
  Engine e;
  obs::MetricsRegistry registry;
  e.set_metrics(&registry);
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.observe_at(1.0, [&] {
    order.push_back(2);
    EXPECT_EQ(e.pending(), 1u);  // the event at 3.0; the observer at 2.0 is not counted
  });
  e.observe_at(2.0, [&] { order.push_back(3); });
  e.schedule_at(3.0, [&] { order.push_back(4); });
  const EventId dropped = e.observe_at(2.5, [&] { order.push_back(-1); });
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(dropped));
  EXPECT_EQ(e.run_until(2.0), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(e.events_fired(), 2u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(registry.find_counter(obs::metric::kSimEventsExecuted)->value(), 2u);
}

// The two legacy spellings perfbench reads its metrics through.
TEST(Counters, CanonicalMetricNames) {
  EXPECT_EQ(canonical_metric_name(counter::kConfirmation), "acp.probe.confirmations");
  EXPECT_EQ(canonical_metric_name(counter::kDiscovery), "acp.discovery.lookups");
  EXPECT_THROW(canonical_metric_name("probe_messages"), PreconditionError);
}

TEST(Engine, NextEventAtPeeksWithoutMutating) {
  Engine e;
  double at = -1.0;
  EXPECT_FALSE(e.next_event_at(at));
  e.schedule_at(4.0, [] {});
  e.schedule_at(2.0, [] {});
  ASSERT_TRUE(e.next_event_at(at));
  EXPECT_DOUBLE_EQ(at, 2.0);
  // A pure peek: nothing fired, clock untouched, repeated peeks agree.
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
  EXPECT_EQ(e.pending(), 2u);
  ASSERT_TRUE(e.next_event_at(at));
  EXPECT_DOUBLE_EQ(at, 2.0);
}

// ---- Typed events, the closure pool and cancellation -----------------------

/// A typed event's target: appends its arg to `order`.
struct Recorder {
  std::vector<int>* order;
  static void note(void* self, std::uint64_t arg) {
    static_cast<Recorder*>(self)->order->push_back(static_cast<int>(arg));
  }
};

TEST(Engine, TypedEventsClosuresAndObserversInterleaveInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  Recorder rec{&order};
  const Engine::Event typed{&Recorder::note, &rec, 0};
  // Equal timestamps, every kind mixed: scheduling order decides.
  e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 1});
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.observe_at(1.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 4});
  e.schedule_at(0.5, [&] {
    order.push_back(0);
    // Scheduled while firing: after everything already at 1.0.
    e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 6});
    e.schedule_at(1.0, [&] { order.push_back(7); });
  });
  e.schedule_at(1.0, [&] { order.push_back(5); });
  e.schedule_at(2.0, typed);
  EXPECT_EQ(e.run(), 8u);  // the observer is no event
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 0}));
}

TEST(Engine, CancelTypedEventAndClosureDestroysTheClosureAtOnce) {
  Engine e;
  std::vector<int> order;
  Recorder rec{&order};
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  const EventId closure = e.schedule_at(2.0, [token, &order] { order.push_back(*token); });
  token.reset();
  const EventId typed = e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 9});
  e.schedule_at(3.0, Engine::Event{&Recorder::note, &rec, 3});
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(e.cancel(closure));
  EXPECT_TRUE(watch.expired());  // the pooled closure is gone before its fire time
  EXPECT_TRUE(e.cancel(typed));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(Engine, IdZeroAndStaleIdsCancelNothing) {
  Engine e;
  int fired = 0;
  EXPECT_FALSE(e.cancel(0));
  const EventId a = e.schedule_at(1.0, [&] { ++fired; });
  const EventId b = e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_NE(a, 0u);
  EXPECT_TRUE(e.cancel(a));
  ASSERT_TRUE(e.step());  // fires b
  // Both slots are reused; the old ids must not reach the new events.
  const EventId c = e.schedule_at(3.0, [&] { ++fired; });
  const EventId d = e.schedule_at(4.0, [&] { ++fired; });
  for (const EventId stale : {a, b}) {
    EXPECT_NE(stale, c);
    EXPECT_NE(stale, d);
    EXPECT_FALSE(e.cancel(stale));
  }
  EXPECT_FALSE(e.cancel(0));
  EXPECT_EQ(e.pending(), 2u);
  e.run();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(e.cancel(c));
  EXPECT_FALSE(e.cancel(d));
}

TEST(Engine, PendingExcludesObserversAndCancelledEvents) {
  Engine e;
  std::vector<int> order;
  Recorder rec{&order};
  const EventId typed = e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 1});
  const EventId closure = e.schedule_at(2.0, [] {});
  const EventId watcher = e.observe_at(1.5, [] {});
  e.observe_at(2.5, [] {});
  e.schedule_at(3.0, Engine::Event{&Recorder::note, &rec, 3});
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_TRUE(e.cancel(watcher));
  EXPECT_EQ(e.pending(), 3u);
  EXPECT_TRUE(e.cancel(typed));
  EXPECT_TRUE(e.cancel(closure));
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run_until(2.75), 0u);  // only the observer at 2.5 ran
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(order, (std::vector<int>{3}));
}

TEST(Engine, RejectsNullTypedHandler) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1.0, Engine::Event{}), PreconditionError);
  e.schedule_at(2.0, [] {});
  e.run();
  std::vector<int> order;
  Recorder rec{&order};
  EXPECT_THROW(e.schedule_at(1.0, Engine::Event{&Recorder::note, &rec, 0}), PreconditionError);
}

// ---- Event-heap shard-boundary behavior -------------------------------------
//
// The sharded engine leans on queue semantics a serial run never exercises:
// peeks interleaved with bounded pops (window skip-ahead), pop_if_le
// stopping exactly at a barrier bound, and cancellation racing a window
// boundary. Payloads are ints — the contract is ordering, not content.

TEST(EventHeap, PeekNeverMutatesAcrossBoundedPops) {
  EventHeap<int> q;
  q.push(3.0, 1, 30);
  q.push(1.0, 2, 10);
  q.push(2.0, 3, 20);
  double at = 0.0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(q.peek(at, seq));
  EXPECT_DOUBLE_EQ(at, 1.0);
  EXPECT_EQ(seq, 2u);
  EventHeap<int>::Entry ev;
  EXPECT_FALSE(q.pop_if_le(0.5, ev));  // bound below the min: no pop
  ASSERT_TRUE(q.peek(at, seq));        // the failed bounded pop changed nothing
  EXPECT_DOUBLE_EQ(at, 1.0);
  EXPECT_EQ(q.size(), 3u);
  // Drain with a window-style bound; peek always agrees with the next pop.
  ASSERT_TRUE(q.pop_if_le(2.0, ev));
  EXPECT_EQ(ev.payload, 10);
  ASSERT_TRUE(q.peek(at, seq));
  EXPECT_DOUBLE_EQ(at, 2.0);
  ASSERT_TRUE(q.pop_if_le(2.0, ev));
  EXPECT_EQ(ev.payload, 20);
  EXPECT_FALSE(q.pop_if_le(2.0, ev));  // 3.0 is past the window bound
  ASSERT_TRUE(q.peek(at, seq));
  EXPECT_DOUBLE_EQ(at, 3.0);
}

TEST(EventHeap, EqualTimestampsPopInSeqOrderUnderBound) {
  // (at, seq) ties are the cross-shard ordering contract: seq is the
  // stream-major order key, so equal-time events from different streams
  // must come back in key order even through a bounded drain.
  EventHeap<int> q;
  q.push(5.0, 40, 4);
  q.push(5.0, 10, 1);
  q.push(5.0, 30, 3);
  q.push(5.0, 20, 2);
  std::vector<int> order;
  EventHeap<int>::Entry ev;
  while (q.pop_if_le(5.0, ev)) order.push_back(ev.payload);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventHeap, CancelBetweenWindowsSkipsEagerly) {
  EventHeap<int> q;
  const auto first = q.push(1.0, 1, 10);
  const auto second = q.push(2.0, 2, 20);
  q.push(3.0, 3, 30);
  EventHeap<int>::Entry ev;
  ASSERT_TRUE(q.pop_if_le(1.5, ev));  // window 1 drains the first event
  EXPECT_TRUE(q.cancel(second));      // cancelled between windows
  EXPECT_FALSE(q.cancel(second));     // idempotent: already gone
  EXPECT_FALSE(q.cancel(first));      // already fired
  EXPECT_EQ(q.size(), 1u);
  ASSERT_TRUE(q.pop_if_le(10.0, ev));
  EXPECT_EQ(ev.payload, 30);
  EXPECT_TRUE(q.empty());
}

// ---- Sharded engine shard-boundary behavior ---------------------------------

TEST(ShardedEngine, CancelAfterWindowHandoffPreventsFiring) {
  // A stream event scheduled before a barrier round and cancelled after it:
  // the handoff across run_until calls must not resurrect the event, and
  // cancelling an already-fired id reports false.
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  cfg.window_s = 1.0;
  ShardedEngine se(cfg);
  se.open_stream(1, 0xfeedULL);
  bool early = false;
  bool late = false;
  const auto early_id = se.schedule_stream(1, 0.5, [&] { early = true; }, "t");
  const auto late_id = se.schedule_stream(1, 5.0, [&] { late = true; }, "t");
  se.run_until(2.0);  // several barrier rounds pass between schedule and cancel
  EXPECT_TRUE(early);
  EXPECT_FALSE(se.cancel_stream(1, early_id));  // fired in an earlier window
  EXPECT_TRUE(se.cancel_stream(1, late_id));    // still pending: cancel wins
  se.run_until(10.0);
  EXPECT_FALSE(late);
  EXPECT_EQ(se.total_events_fired(), 1u);
  EXPECT_EQ(se.total_pending(), 0u);
}

TEST(ShardedEngine, EqualTimeOpsApplyInStreamOrderForEveryShardCount) {
  // Four streams fire at the same instant; their ops must apply in stream
  // (order-key) order no matter how the streams land on shard lanes.
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.window_s = 2.0;
    ShardedEngine se(cfg);
    auto order = std::make_shared<std::vector<std::uint32_t>>();
    for (std::uint32_t s = 1; s <= 4; ++s) {
      se.open_stream(s, 0x9e3779b97f4a7c15ULL * s);
      se.schedule_stream(s, 5.0, [&se, order, s] { se.push_op([order, s] { order->push_back(s); }); },
                         "tie");
    }
    se.run_until(10.0);
    EXPECT_EQ(*order, (std::vector<std::uint32_t>{1, 2, 3, 4})) << "shards " << shards;
  }
}

TEST(ShardedEngine, EmptyLanesAndSparseTimeStillTerminate) {
  // One active stream among four lanes, events far sparser than the window:
  // skip-ahead must jump the grid instead of grinding empty barrier rounds,
  // idle lanes must not wedge the barrier, and counts must come out exact.
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  cfg.window_s = 0.01;
  ShardedEngine se(cfg);
  se.open_stream(1, 7ULL);
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    se.schedule_stream(1, 1000.0 * (i + 1), [&fired] { ++fired; }, "sparse");
  }
  se.global().schedule_at(2500.0, [] {});  // a lone global-lane event between shard events
  EXPECT_EQ(se.run_until(6000.0), 6u);
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(se.total_events_fired(), 6u);
  EXPECT_EQ(se.total_pending(), 0u);
  EXPECT_DOUBLE_EQ(se.global().now(), 6000.0);
}

// ---- Lane 0 on the coordinator ----------------------------------------------

/// An owner key that ShardPlan pins to `lane`.
std::uint64_t owner_on_lane(const ShardPlan& plan, std::size_t lane) {
  for (std::uint64_t key = 0;; ++key) {
    if (plan.owner(key) == lane) return key;
  }
}

TEST(ShardedEngine, CoordinatorDrainsLaneZeroAndOnlyLaneZero) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.window_s = 1.0;
    ShardedEngine se(cfg);
    // Two events per lane in different windows; each notes its thread.
    auto seen = std::make_shared<std::vector<std::vector<std::thread::id>>>(shards);
    for (std::size_t lane = 0; lane < shards; ++lane) {
      const auto stream = static_cast<std::uint32_t>(lane + 1);
      se.open_stream(stream, owner_on_lane(se.plan(), lane));
      for (double at : {0.5, 2.5}) {
        se.schedule_stream(
            stream, at, [seen, lane] { (*seen)[lane].push_back(std::this_thread::get_id()); },
            "lane");
      }
    }
    se.run_until(5.0);
    const std::thread::id caller = std::this_thread::get_id();
    for (std::size_t lane = 0; lane < shards; ++lane) {
      ASSERT_EQ((*seen)[lane].size(), 2u) << "shards " << shards << " lane " << lane;
      for (const std::thread::id id : (*seen)[lane]) {
        if (lane == 0) {
          EXPECT_EQ(id, caller) << "shards " << shards;
        } else {
          EXPECT_NE(id, caller) << "shards " << shards << " lane " << lane;
        }
      }
    }
  }
}

TEST(ShardedEngine, LaneExceptionsPropagateAndTheEngineStillDestructs) {
  struct Case {
    std::size_t shards;
    std::size_t lane;
  };
  for (const Case c : {Case{1, 0}, Case{4, 0}, Case{4, 3}}) {
    ShardedEngine::Config cfg;
    cfg.shards = c.shards;
    cfg.window_s = 1.0;
    auto se = std::make_unique<ShardedEngine>(cfg);
    // Every lane has work in the failing window, so the workers are busy
    // when the throwing lane finishes.
    for (std::size_t lane = 0; lane < c.shards; ++lane) {
      const auto stream = static_cast<std::uint32_t>(lane + 1);
      se->open_stream(stream, owner_on_lane(se->plan(), lane));
      if (lane == c.lane) {
        se->schedule_stream(stream, 0.5, [] { throw std::runtime_error("lane event"); }, "t");
      } else {
        se->schedule_stream(stream, 0.5, [] {}, "t");
      }
    }
    EXPECT_THROW(se->run_until(5.0), std::runtime_error)
        << "shards " << c.shards << " lane " << c.lane;
    se.reset();  // joins the workers; a hang here fails by timeout
  }
}

TEST(ShardedEngine, PhaseProfileSamplesEveryWindow) {
  // Two windows of work: sim.lane_drain samples once per lane per window,
  // sim.window_slowest_lane and sim.apply once per window, and
  // sim.barrier_wait once per window only when there are workers to wait on.
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    obs::MetricsRegistry registry;
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.window_s = 1.0;
    ShardedEngine se(cfg);
    se.set_phase_profiler(&registry);
    se.open_stream(1, 11ULL);
    se.schedule_stream(1, 0.5, [] {}, "t");
    se.schedule_stream(1, 3.5, [] {}, "t");
    se.run_until(10.0);
    const auto samples = [&](const char* scope) -> std::uint64_t {
      const obs::Histogram* h = registry.find_histogram(obs::metric::kProfWall, {{"scope", scope}});
      return h == nullptr ? 0 : h->count();
    };
    EXPECT_EQ(samples(obs::prof_scope::kSimLaneDrain), 2 * shards) << "shards " << shards;
    EXPECT_EQ(samples(obs::prof_scope::kSimWindowSlowestLane), 2u) << "shards " << shards;
    EXPECT_EQ(samples(obs::prof_scope::kSimApply), 2u) << "shards " << shards;
    EXPECT_EQ(samples(obs::prof_scope::kSimBarrierWait), shards >= 2 ? 2u : 0u)
        << "shards " << shards;
  }
}

}  // namespace
}  // namespace acp::sim
