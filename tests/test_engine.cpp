#include "sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/calendar_queue.h"
#include "sim/counters.h"
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

// ---- Calendar-queue shard-boundary behavior ---------------------------------
//
// The sharded engine leans on queue semantics a serial run never exercises:
// peek_min interleaved with bounded pops (window skip-ahead), pop_if_le
// stopping exactly at a barrier bound, and cancellation racing a window
// boundary. Payloads are ints — the contract is ordering, not content.

TEST(CalendarQueue, PeekMinNeverMutatesAcrossBoundedPops) {
  CalendarQueue<int> q;
  q.push(3.0, 1, 1, 30);
  q.push(1.0, 2, 2, 10);
  q.push(2.0, 3, 3, 20);
  double at = 0.0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(q.peek_min(at, seq));
  EXPECT_DOUBLE_EQ(at, 1.0);
  EXPECT_EQ(seq, 2u);
  CalendarQueue<int>::Entry ev;
  EXPECT_FALSE(q.pop_if_le(0.5, ev));  // bound below the min: no pop
  ASSERT_TRUE(q.peek_min(at, seq));    // the failed bounded pop changed nothing
  EXPECT_DOUBLE_EQ(at, 1.0);
  // Drain with a window-style bound; peek always agrees with the next pop.
  ASSERT_TRUE(q.pop_if_le(2.0, ev));
  EXPECT_EQ(ev.payload, 10);
  ASSERT_TRUE(q.peek_min(at, seq));
  EXPECT_DOUBLE_EQ(at, 2.0);
  ASSERT_TRUE(q.pop_if_le(2.0, ev));
  EXPECT_EQ(ev.payload, 20);
  EXPECT_FALSE(q.pop_if_le(2.0, ev));  // 3.0 is past the window bound
  ASSERT_TRUE(q.peek_min(at, seq));
  EXPECT_DOUBLE_EQ(at, 3.0);
}

TEST(CalendarQueue, EqualTimestampsPopInSeqOrderUnderBound) {
  // (at, seq) ties are the cross-shard ordering contract: seq is the
  // stream-major order key, so equal-time events from different streams
  // must come back in key order even through a bounded drain.
  CalendarQueue<int> q;
  q.push(5.0, 40, 1, 4);
  q.push(5.0, 10, 2, 1);
  q.push(5.0, 30, 3, 3);
  q.push(5.0, 20, 4, 2);
  std::vector<int> order;
  CalendarQueue<int>::Entry ev;
  while (q.pop_if_le(5.0, ev)) order.push_back(ev.payload);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(CalendarQueue, CancelBetweenWindowsSkipsEagerly) {
  CalendarQueue<int> q;
  q.push(1.0, 1, 1, 10);
  q.push(2.0, 2, 2, 20);
  q.push(3.0, 3, 3, 30);
  CalendarQueue<int>::Entry ev;
  ASSERT_TRUE(q.pop_if_le(1.5, ev));  // window 1 drains the first event
  EXPECT_TRUE(q.cancel(2));           // cancelled between windows
  EXPECT_FALSE(q.cancel(2));          // idempotent: already gone
  EXPECT_FALSE(q.cancel(1));          // already fired
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

}  // namespace
}  // namespace acp::sim
