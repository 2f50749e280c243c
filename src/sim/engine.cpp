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

EventId Engine::push(SimTime at, Event ev, const char* tag, bool observer) {
  if (observer) ++observers_;
  return queue_.push(at, next_seq_++, Pending{ev, now_, tag, observer});
}

Engine::Event Engine::stash(Callback cb) {
  ACP_REQUIRE(cb != nullptr);
  std::uint32_t index = 0;
  if (free_closures_.empty()) {
    index = static_cast<std::uint32_t>(closures_.size());
    closures_.push_back(std::move(cb));
  } else {
    index = free_closures_.back();
    free_closures_.pop_back();
    closures_[index] = std::move(cb);
  }
  return Event{&Engine::run_closure, this, index};
}

void Engine::run_closure(void* engine, std::uint64_t index) {
  Engine& self = *static_cast<Engine*>(engine);
  // Moved out first: the closure may schedule closures of its own, which
  // can reuse this slot or grow the pool.
  Callback cb = std::move(self.closures_[index]);
  self.closures_[index] = nullptr;
  self.free_closures_.push_back(static_cast<std::uint32_t>(index));
  cb();
}

EventId Engine::schedule_at(SimTime at, Callback cb, const char* tag) {
  ACP_REQUIRE_MSG(at >= now_, "cannot schedule events in the past");
  return push(at, stash(std::move(cb)), tag, /*observer=*/false);
}

EventId Engine::schedule_at(SimTime at, Event ev, const char* tag) {
  ACP_REQUIRE_MSG(at >= now_, "cannot schedule events in the past");
  ACP_REQUIRE(ev.handler != nullptr);
  return push(at, ev, tag, /*observer=*/false);
}

EventId Engine::observe_at(SimTime at, Callback cb, const char* tag) {
  ACP_REQUIRE_MSG(at >= now_, "cannot schedule events in the past");
  return push(at, stash(std::move(cb)), tag, /*observer=*/true);
}

bool Engine::cancel(EventId id) {
  const Pending* p = queue_.find(id);
  if (p == nullptr) return false;
  if (p->observer) --observers_;
  if (p->event.handler == &Engine::run_closure) {
    closures_[p->event.arg] = nullptr;
    free_closures_.push_back(static_cast<std::uint32_t>(p->event.arg));
  }
  queue_.cancel(id);
  return true;
}

bool Engine::fire(const Queue::Entry& ev) {
  now_ = ev.at;
  const Pending& p = ev.payload;
  if (attribution_ != nullptr && attribution_->enabled()) {
    attribution_->record_wait(p.tag, ev.at - p.enqueued_at);
  }
  if (p.observer) {
    --observers_;
    p.event.handler(p.event.context, p.event.arg);
    return false;
  }
  ++fired_;
  if (events_metric_ != nullptr) {
    events_metric_->add(1);
    depth_metric_->set(static_cast<double>(pending()));
  }
  obs::ProfScope prof(dispatch_slot_);
  p.event.handler(p.event.context, p.event.arg);
  return true;
}

bool Engine::step() {
  Queue::Entry ev;
  if (!queue_.pop_min(ev)) return false;
  fire(ev);
  return true;
}

std::uint64_t Engine::run_until(SimTime until) {
  ACP_REQUIRE(until >= now_);
  std::uint64_t n = 0;
  Queue::Entry ev;
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
