#include "sim/sharded_engine.h"

#include <algorithm>
#include <chrono>

#include "obs/observability.h"
#include "util/logging.h"

namespace acp::sim {

thread_local ShardedEngine::WorkerCtx ShardedEngine::tl_;

ShardedEngine::ShardedEngine(const Config& config)
    : plan_(config.shards), window_s_(config.window_s), barrier_(config.shards - 1) {
  ACP_REQUIRE(config.shards >= 1);
  ACP_REQUIRE_MSG(config.window_s > 0.0, "barrier window must be positive");
  lanes_.reserve(config.shards);
  for (std::size_t i = 0; i < config.shards; ++i) lanes_.push_back(std::make_unique<Lane>());
}

ShardedEngine::~ShardedEngine() {
  if (workers_started_) {
    barrier_.shutdown();
    for (std::thread& th : workers_) th.join();
  }
}

double ShardedEngine::now() const { return tl_.in_worker ? tl_.now : global_.now(); }

ShardedEngine::StreamInfo& ShardedEngine::stream_info(std::uint32_t stream) {
  ACP_REQUIRE_MSG(stream >= 1, "stream 0 is the global lane");
  ACP_REQUIRE_MSG(stream < streams_.size() && streams_[stream].open, "stream not open");
  return streams_[stream];
}

void ShardedEngine::open_stream(std::uint32_t stream, std::uint64_t owner_key) {
  ACP_REQUIRE_MSG(!tl_.in_worker, "streams are born from global-lane events");
  ACP_REQUIRE(stream >= 1);
  if (stream >= streams_.size()) streams_.resize(stream + 1);
  StreamInfo& info = streams_[stream];
  ACP_REQUIRE_MSG(!info.open, "stream already open");
  info.shard = static_cast<std::uint32_t>(plan_.owner(owner_key));
  info.next_local_seq = 0;
  info.open = true;
}

std::uint64_t ShardedEngine::schedule_stream(std::uint32_t stream, double at,
                                             std::function<void()> cb, const char* tag) {
  StreamInfo& info = stream_info(stream);
  ACP_ASSERT(!tl_.in_worker || tl_.lane == info.shard);
  ACP_REQUIRE(cb != nullptr);
  ACP_REQUIRE_MSG(at >= now(), "cannot schedule events in the past");
  Lane& lane = *lanes_[info.shard];
  const std::uint64_t key = pack_order_key(stream, info.next_local_seq++);
  return lane.queue.push(at, key, LanePending{std::move(cb), now(), tag});
}

bool ShardedEngine::cancel_stream(std::uint32_t stream, std::uint64_t id) {
  StreamInfo& info = stream_info(stream);
  ACP_ASSERT(!tl_.in_worker || tl_.lane == info.shard);
  return lanes_[info.shard]->queue.cancel(id);
}

void ShardedEngine::push_op(std::function<void()> fn) {
  ACP_REQUIRE_MSG(tl_.in_worker, "ops are deferred shard-phase mutations");
  Lane& lane = *lanes_[tl_.lane];
  lane.ops.push_back(Op{tl_.now, tl_.key, tl_.op_ord++, std::move(fn)});
}

void ShardedEngine::set_lane_obs(std::size_t shard, obs::MetricsRegistry* registry,
                                 obs::Attribution* attr) {
  ACP_REQUIRE(shard < lanes_.size());
  Lane& lane = *lanes_[shard];
  lane.events_metric =
      registry == nullptr ? nullptr : &registry->counter(obs::metric::kSimEventsExecuted);
  lane.attr = attr;
}

void ShardedEngine::set_phase_profiler(obs::MetricsRegistry* registry) {
  ACP_REQUIRE_MSG(!tl_.in_worker, "set_phase_profiler is coordinator-only");
  // Lane drains are timed on the lanes' own threads, so they get the wall
  // histogram alone: a thread-local allocation delta cannot follow them.
  const auto wall = [registry](const char* scope) -> obs::Histogram* {
    if (registry == nullptr) return nullptr;
    return &registry->histogram(obs::metric::kProfWall, obs::prof_bounds_s(), {{"scope", scope}});
  };
  lane_drain_wall_ = wall(obs::prof_scope::kSimLaneDrain);
  slowest_lane_wall_ = wall(obs::prof_scope::kSimWindowSlowestLane);
  const obs::Profiler profiler(registry);
  barrier_wait_prof_ =
      lanes_.size() >= 2 ? profiler.scope(obs::prof_scope::kSimBarrierWait) : obs::ProfSlot{};
  apply_prof_ = profiler.scope(obs::prof_scope::kSimApply);
}

void ShardedEngine::start_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  workers_.reserve(lanes_.size() - 1);
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

void ShardedEngine::worker_main(std::size_t lane_index) {
  util::Logger::set_worker_thread(true);
  tl_.in_worker = true;
  tl_.lane = lane_index;
  Lane& lane = *lanes_[lane_index];
  std::uint64_t seen = 0;
  double end = 0.0;
  while (barrier_.wait_for_window(seen, end)) {
    drain_lane(lane, end);
    barrier_.worker_done();
  }
}

void ShardedEngine::drain_lane(Lane& lane, double end) {
  using Clock = std::chrono::steady_clock;
  const bool timed = lane_drain_wall_ != nullptr;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
  try {
    EventHeap<LanePending>::Entry ev;
    while (lane.queue.pop_if_le(end, ev)) {
      tl_.now = ev.at;
      tl_.key = ev.seq;
      tl_.row_ord = 0;
      tl_.op_ord = 0;
      std::function<void()> cb = std::move(ev.payload.cb);
      ++lane.fired;
      if (lane.events_metric != nullptr) lane.events_metric->add(1);
      if (lane.attr != nullptr && lane.attr->enabled()) {
        lane.attr->record_wait(ev.payload.tag, ev.at - ev.payload.enqueued_at);
      }
      cb();
    }
  } catch (...) {
    lane.error = std::current_exception();
  }
  if (timed) lane.drain_s = std::chrono::duration<double>(Clock::now() - start).count();
}

void ShardedEngine::record_lane_drains() {
  if (lane_drain_wall_ == nullptr) return;
  double slowest = 0.0;
  for (const auto& lane : lanes_) {
    lane_drain_wall_->observe(lane->drain_s);
    slowest = std::max(slowest, lane->drain_s);
  }
  slowest_lane_wall_->observe(slowest);
}

std::uint64_t ShardedEngine::run_until(double until) {
  ACP_REQUIRE_MSG(!tl_.in_worker, "run_until is coordinator-only");
  start_workers();
  const std::uint64_t fired_before = total_events_fired();
  std::vector<Op> ops;
  while (true) {
    // Skip-ahead: find the earliest pending event anywhere. Depends only on
    // the event population, so the window grid walk is shard-count- and
    // worker-interleaving-invariant.
    double next = std::numeric_limits<double>::infinity();
    double t = 0.0;
    if (global_.next_event_at(t)) next = t;
    for (const auto& lane : lanes_) {
      std::uint64_t seq = 0;
      if (lane->queue.peek(t, seq)) next = std::min(next, t);
    }
    if (next > until) break;
    while (window_end_ < next) window_end_ += window_s_;
    const double bound = std::min(window_end_, until);

    // Shard phase: every lane drains up to `bound` against frozen shared
    // state, buffering mutations as ops — lanes 1..N−1 on the workers,
    // lane 0 here, as a worker would.
    barrier_.open_window(bound);
    const WorkerCtx coordinator_ctx = tl_;
    tl_.in_worker = true;
    tl_.lane = 0;
    drain_lane(*lanes_.front(), bound);
    tl_ = coordinator_ctx;
    {
      const obs::ProfScope wait(barrier_wait_prof_);
      barrier_.wait_workers();
    }
    for (const auto& lane : lanes_) {
      if (lane->error) {
        std::exception_ptr err = lane->error;
        lane->error = nullptr;
        std::rethrow_exception(err);
      }
    }
    record_lane_drains();

    // Barrier: collect ops from all lanes into one deterministic order —
    // (at, pushing-event key, push index) is unique and independent of
    // which worker ran what when.
    const obs::ProfScope apply(apply_prof_);
    ops.clear();
    for (const auto& lane : lanes_) {
      for (Op& op : lane->ops) ops.push_back(std::move(op));
      lane->ops.clear();
    }
    std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.key != b.key) return a.key < b.key;
      return a.push_ord < b.push_ord;
    });

    // Apply phase: ops interleave with global-lane events in timestamp
    // order; global events at equal timestamps run first (stream 0 < any
    // probe stream). In a repeat round of the same grid cell the global
    // clock already sits at the cell bound — past some ops' timestamps —
    // so clamp instead of rewinding; the clock an op observes is still the
    // prior round's bound, which derives from event times alone.
    for (Op& op : ops) {
      if (op.at > global_.now()) global_.run_until(op.at);
      op_active_ = true;
      op_at_ = op.at;
      op_key_ = op.key;
      op_row_base_ = (std::uint64_t{1} << 32) +
                     (static_cast<std::uint64_t>(op.push_ord) << 20);
      op_row_ord_ = 0;
      op.fn();
      op_active_ = false;
    }
    global_.run_until(bound);
  }
  global_.run_until(until);
  return total_events_fired() - fired_before;
}

std::uint64_t ShardedEngine::total_events_fired() const {
  std::uint64_t total = global_.events_fired();
  for (const auto& lane : lanes_) total += lane->fired;
  return total;
}

std::size_t ShardedEngine::total_pending() const {
  std::size_t total = global_.pending();
  for (const auto& lane : lanes_) total += lane->queue.size();
  return total;
}

obs::RowKey ShardedEngine::next_row_key() {
  if (tl_.in_worker) return obs::RowKey{tl_.now, tl_.key, tl_.row_ord++};
  if (op_active_) return obs::RowKey{op_at_, op_key_, op_row_base_ + op_row_ord_++};
  return obs::RowKey{global_.now(), 0, coord_row_ord_++};
}

}  // namespace acp::sim
