#include "state/global_state.h"

#include <cmath>

namespace acp::state {

// Queryable coarse view over the published copies.
class GlobalStateManager::CoarseView final : public stream::StateView {
 public:
  CoarseView(const GlobalStateManager& m, obs::Observability* obs, bool gauge)
      : m_(m), obs_(obs), gauge_(gauge) {}

  stream::ResourceVector node_available(stream::NodeId node, double /*now*/) const override {
    ACP_REQUIRE(node < m_.nodes_.size());
    if (obs_ != nullptr) m_.observe_read_staleness(m_.nodes_.updated_at(node), *obs_, gauge_);
    return m_.nodes_.available(node);
  }

  double link_available_kbps(net::OverlayLinkIndex l, double /*now*/) const override {
    ACP_REQUIRE(l < m_.links_.size());
    if (obs_ != nullptr) m_.observe_read_staleness(m_.links_.published_at(), *obs_, gauge_);
    return m_.links_.published(l);
  }

 private:
  const GlobalStateManager& m_;
  obs::Observability* obs_;
  bool gauge_;
};

GlobalStateManager::GlobalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                                       sim::CounterSet& counters, GlobalStateConfig config,
                                       obs::Observability* obs)
    : sys_(&sys), engine_(&engine), counters_(&counters), config_(config), obs_(obs) {
  if (obs_ != nullptr) {
    prof_check_ = obs_->profiler.scope(obs::prof_scope::kStateCheckSweep);
    prof_publish_ = obs_->profiler.scope(obs::prof_scope::kStatePublish);
  }
  ACP_REQUIRE(config_.check_interval_s > 0.0);
  ACP_REQUIRE(config_.threshold_fraction >= 0.0 && config_.threshold_fraction <= 1.0);
  ACP_REQUIRE(config_.aggregation_publish_interval_s > 0.0);
  nodes_.resize(sys.node_count());
  links_.resize(sys.mesh().link_count());
  view_ = std::make_unique<CoarseView>(*this, obs_, /*gauge=*/true);
}

void GlobalStateManager::observe_read_staleness(double updated_at, obs::Observability& obs,
                                                bool gauge) const {
  const double age = engine_->now() - updated_at;
  obs.metrics.histogram(obs::metric::kStateReadStaleness, obs::duration_bounds_s()).observe(age);
  if (gauge) obs.metrics.gauge(obs::metric::kStateStalenessAge).set(age);
}

std::unique_ptr<stream::StateView> GlobalStateManager::make_shard_view(
    obs::Observability* obs) const {
  return std::make_unique<CoarseView>(*this, obs, /*gauge=*/false);
}

GlobalStateManager::~GlobalStateManager() = default;

const stream::StateView& GlobalStateManager::view() const { return *view_; }

void GlobalStateManager::start() {
  ACP_REQUIRE_MSG(!started_, "start() may only be called once");
  started_ = true;
  const double now = engine_->now();
  // Seed every copy from ground truth — a fresh system announces itself.
  for (NodeHandle n = 0; n < nodes_.size(); ++n) {
    nodes_.store(n, sys_->node_pool(n).available(now), now);
  }
  links_.set_published_at(now);
  for (LinkHandle l = 0; l < links_.size(); ++l) {
    links_.seed(l, sys_->link_pool(l).available(now));
  }
  schedule_check();
  schedule_publish();
}

void GlobalStateManager::schedule_check() {
  engine_->schedule_after(
      config_.check_interval_s,
      [this] {
        run_check_sweep();
        schedule_check();
      },
      obs::attr_wait::kStateTick);
}

void GlobalStateManager::schedule_publish() {
  engine_->schedule_after(
      config_.aggregation_publish_interval_s,
      [this] {
        run_publish();
        schedule_publish();
      },
      obs::attr_wait::kStateTick);
}

void GlobalStateManager::run_check_sweep() {
  const obs::ProfScope prof(prof_check_);
  // Frozen (fault injection): nodes keep measuring but no update reaches the
  // global state — exactly how a partitioned reporting path looks from the
  // queriers' side. The published copies silently age.
  if (faults_ != nullptr && faults_->state_updates_suppressed()) {
    if (obs_ != nullptr) {
      obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "suppressed"}}).add();
    }
    return;
  }
  const double now = engine_->now();

  // Node resource states: push to global state when any dimension moved by
  // more than threshold * capacity since the last report.
  for (NodeHandle n = 0; n < nodes_.size(); ++n) {
    const stream::ResourceVector live = sys_->node_pool(n).available(now);
    const stream::ResourceVector& cap = sys_->node_pool(n).capacity();
    bool significant = false;
    for (std::size_t k = 0; k < stream::kResourceDims; ++k) {
      const double delta = std::abs(live.dim(k) - nodes_.available_dim(k, n));
      if (delta > config_.threshold_fraction * cap.dim(k)) {
        significant = true;
        break;
      }
    }
    if (significant) {
      nodes_.store(n, live, now);
      counters_->add(sim::counter::kGlobalStateUpdate);
      if (obs_ != nullptr) {
        obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "node"}}).add();
      }
    }
  }

  // Overlay-link states: owners report significant changes to the
  // aggregation node (not yet visible to queries until the next publish).
  for (LinkHandle l = 0; l < links_.size(); ++l) {
    const double live = sys_->link_pool(l).available(now);
    const double cap = sys_->link_pool(l).capacity();
    if (std::abs(live - links_.reported(l)) > config_.threshold_fraction * cap) {
      links_.report(l, live);
      counters_->add(sim::counter::kAggregationUpdate);
      if (obs_ != nullptr) {
        obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "link"}}).add();
      }
    }
  }
}

void GlobalStateManager::run_publish() {
  const obs::ProfScope prof(prof_publish_);
  if (faults_ != nullptr && faults_->state_updates_suppressed()) {
    if (obs_ != nullptr) {
      obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "suppressed"}}).add();
    }
    return;
  }
  // The aggregation node folds its collected link states into the global
  // state (one bulk update message) and the role rotates for load sharing.
  const bool torn = faults_ != nullptr && faults_->consume_state_tear();
  links_.publish(engine_->now(), torn);
  if (torn && obs_ != nullptr) {
    obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "torn_publish"}}).add();
  }
  counters_->add(sim::counter::kGlobalStateUpdate);
  if (obs_ != nullptr) {
    obs_->metrics.counter(obs::metric::kStateUpdates, {{"kind", "publish"}}).add();
  }
  if (config_.rotate_aggregation_node && sys_->node_count() > 0) {
    aggregation_node_ =
        static_cast<stream::NodeId>((aggregation_node_ + 1) % sys_->node_count());
  }
}

}  // namespace acp::state
