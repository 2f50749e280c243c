// Tests for the wall-clock profiling scopes (obs/profile.h), including the
// attribution host rows they feed, and the abnormal-exit guard hooks
// (obs/guard.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "obs/attribution.h"
#include "obs/guard.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace acp::obs {
namespace {

TEST(ProfBounds, StrictlyIncreasingAndSubSecondResolution) {
  const auto bounds = prof_bounds_s();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_EQ(std::adjacent_find(bounds.begin(), bounds.end()), bounds.end());
  // The scopes being timed run in the nanosecond–millisecond range; the
  // first bucket must sit well below a millisecond to resolve them.
  EXPECT_LT(bounds.front(), 1e-3);
  EXPECT_GE(bounds.back(), 1.0);
}

TEST(Profiler, ScopeRecordsWallTimeIntoLabeledHistogram) {
  MetricsRegistry reg;
  Profiler prof(&reg);
  ASSERT_TRUE(prof.enabled());
  const ProfSlot slot = prof.scope("test.scope");
  ASSERT_NE(slot.wall, nullptr);

  {
    ProfScope s1(slot);
  }
  {
    ProfScope s2(slot);
  }

  const Histogram* h = reg.find_histogram(metric::kProfWall, {{"scope", "test.scope"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_GE(h->min(), 0.0);
  // Same scope name resolves to the same series, not a new one.
  EXPECT_EQ(prof.scope("test.scope").wall, slot.wall);
}

TEST(Profiler, DetachedProfilerYieldsInertSlots) {
  Profiler prof(nullptr);
  EXPECT_FALSE(prof.enabled());
  const ProfSlot slot = prof.scope("whatever");
  EXPECT_EQ(slot.wall, nullptr);
  EXPECT_EQ(slot.allocs, nullptr);
  // An inert scope must be safe to construct/destruct (the hot paths do
  // this unconditionally).
  ProfScope s(slot);
  ProfScope s2(ProfSlot{});
}

TEST(ProfScope, ChargesItsOneWallTimeToEnabledAttribution) {
  MetricsRegistry reg;
  const ProfSlot slot = Profiler(&reg).scope("test.scope");
  Attribution attr;
  attr.set_enabled(true);
  { const ProfScope s(slot, &attr, attr_phase::kRank, 9); }
  const Histogram* h = reg.find_histogram(metric::kProfWall, {{"scope", "test.scope"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  ASSERT_EQ(attr.host_rows().size(), 1u);
  const Attribution::HostCell& cell = attr.host_rows().at({attr_phase::kRank, 9});
  EXPECT_EQ(cell.count, 1u);
  EXPECT_EQ(cell.wall_s, h->sum());  // one clock reading feeds both
}

TEST(ProfScope, DisabledAttributionGetsNoHostRow) {
  MetricsRegistry reg;
  const ProfSlot slot = Profiler(&reg).scope("test.scope");
  Attribution attr;
  { const ProfScope s(slot, &attr, attr_phase::kProbe, 1); }
  { const ProfScope s(slot, nullptr, attr_phase::kProbe, 1); }
  EXPECT_EQ(reg.find_histogram(metric::kProfWall, {{"scope", "test.scope"}})->count(), 2u);
  EXPECT_EQ(attr.row_count(), 0u);
}

TEST(ProfScope, DetachedObservabilityWritesNeither) {
  Attribution attr;
  attr.set_enabled(true);
  { const ProfScope s(Profiler(nullptr).scope("test.scope"), &attr, attr_phase::kFinalize, 3); }
  EXPECT_EQ(attr.row_count(), 0u);
}

TEST(Profiler, AllocationCountingDisabledByDefault) {
  // The default build has ACPSTREAM_PROF_ALLOC off: no alloc histogram is
  // created and the process-wide counter stays at zero.
  EXPECT_FALSE(alloc_counting_enabled());
  EXPECT_EQ(allocations_now(), 0u);
  MetricsRegistry reg;
  Profiler prof(&reg);
  EXPECT_EQ(prof.scope("s").allocs, nullptr);
  EXPECT_EQ(reg.find_histogram(metric::kProfAllocs, {{"scope", "s"}}), nullptr);
}

TEST(Guard, HooksRunOnceAndCancelWorks) {
  int ran_a = 0, ran_b = 0;
  const GuardToken a = on_abnormal_exit([&] { ++ran_a; });
  const GuardToken b = on_abnormal_exit([&] { ++ran_b; });
  EXPECT_NE(a, b);
  EXPECT_GE(abnormal_exit_hook_count(), 2u);

  cancel_abnormal_exit(a);
  run_abnormal_exit_hooks();
  EXPECT_EQ(ran_a, 0);
  EXPECT_EQ(ran_b, 1);

  // Hooks are stolen before running: a second sweep is a no-op.
  run_abnormal_exit_hooks();
  EXPECT_EQ(ran_b, 1);
  EXPECT_EQ(abnormal_exit_hook_count(), 0u);
}

TEST(Guard, HookExceptionsAreSwallowed) {
  on_abnormal_exit([] { throw std::runtime_error("boom"); });
  int ran = 0;
  on_abnormal_exit([&] { ++ran; });
  EXPECT_NO_THROW(run_abnormal_exit_hooks());
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace acp::obs
