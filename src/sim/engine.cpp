#include "sim/engine.h"

#include "obs/observability.h"

namespace acp::sim {

void Engine::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    events_metric_ = nullptr;
    depth_metric_ = nullptr;
    dispatch_slot_ = obs::ProfSlot{};
    return;
  }
  events_metric_ = &registry->counter(obs::metric::kSimEventsExecuted);
  depth_metric_ = &registry->gauge(obs::metric::kSimQueueDepth);
  dispatch_slot_ = obs::Profiler(registry).scope(obs::prof_scope::kSimDispatch);
}

EventId Engine::schedule_at(SimTime at, Callback cb, const char* tag) {
  ACP_REQUIRE_MSG(at >= now_, "cannot schedule events in the past");
  ACP_REQUIRE(cb != nullptr);
  const EventId id = next_id_++;
  queue_.push(at, next_seq_++, id, Pending{std::move(cb), now_, tag});
  return id;
}

EventId Engine::observe_at(SimTime at, Callback cb, const char* tag) {
  ACP_REQUIRE_MSG(at >= now_, "cannot schedule events in the past");
  ACP_REQUIRE(cb != nullptr);
  const EventId id = next_id_++ | kObserverBit;
  queue_.push(at, next_seq_++, id, Pending{std::move(cb), now_, tag});
  ++observers_;
  return id;
}

bool Engine::cancel(EventId id) {
  if (!queue_.cancel(id)) return false;
  if ((id & kObserverBit) != 0) --observers_;
  return true;
}

bool Engine::fire(CalendarQueue<Pending>::Entry& ev) {
  now_ = ev.at;
  Callback cb = std::move(ev.payload.cb);
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution_->record_wait(ev.payload.tag, ev.at - ev.payload.enqueued_at);
  }
  if ((ev.id & kObserverBit) != 0) {
    --observers_;
    cb();
    return false;
  }
  ++fired_;
  if (events_metric_ != nullptr) {
    events_metric_->add(1);
    depth_metric_->set(static_cast<double>(pending()));
  }
  obs::ProfScope prof(dispatch_slot_);
  cb();
  return true;
}

bool Engine::step() {
  CalendarQueue<Pending>::Entry ev;
  if (!queue_.pop_min(ev)) return false;
  fire(ev);
  return true;
}

std::uint64_t Engine::run_until(SimTime until) {
  ACP_REQUIRE(until >= now_);
  std::uint64_t n = 0;
  CalendarQueue<Pending>::Entry ev;
  while (queue_.pop_if_le(until, ev)) {
    if (fire(ev)) ++n;
  }
  now_ = until;
  return n;
}

std::uint64_t Engine::run() {
  const std::uint64_t before = fired_;
  while (step()) {
  }
  return fired_ - before;
}

}  // namespace acp::sim
