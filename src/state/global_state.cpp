#include "state/global_state.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/flat_map.h"

namespace acp::state {

// Queryable coarse view over the published copies. Virtual-link reads are
// answered from a memo of each ordered pair's bottleneck, filled on the
// pair's first read after a publication and dropped wholesale at the next:
// published link values change only at a publish, so a memoized entry is
// the same minimum a fresh walk would take. When attached, every query — a
// node, a link or a virtual link, memo hits included — observes its
// staleness once, through handles resolved on the first query.
class GlobalStateManager::CoarseView final : public stream::StateView {
 public:
  CoarseView(const GlobalStateManager& m, obs::Observability* obs, bool gauge)
      : m_(m),
        observed_(obs != nullptr),
        staleness_(obs != nullptr ? &obs->metrics : nullptr, obs::metric::kStateReadStaleness,
                   obs::duration_bounds_s()),
        age_(obs != nullptr && gauge ? &obs->metrics : nullptr,
             obs::metric::kStateStalenessAge) {}

  stream::ResourceVector node_available(stream::NodeId node, double /*now*/) const override {
    ACP_REQUIRE(node < m_.nodes_.size());
    if (observed_) observe(m_.nodes_.updated_at(node));
    return m_.nodes_.available(node);
  }

  double link_available_kbps(net::OverlayLinkIndex l, double /*now*/) const override {
    ACP_REQUIRE(l < m_.links_.size());
    if (observed_) observe(m_.links_.published_at());
    return m_.links_.published(l);
  }

  double virtual_link_available_kbps(const net::OverlayMesh& mesh, stream::NodeId a,
                                     stream::NodeId b, double /*now*/) const override {
    if (a == b) return std::numeric_limits<double>::infinity();
    ACP_REQUIRE(&mesh == &m_.sys_->mesh());
    if (observed_) observe(m_.links_.published_at());
    if (memo_publication_ != m_.publication_) {
      memo_.clear();
      memo_publication_ = m_.publication_;
    }
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    if (const double* hit = memo_.find(key)) return *hit;
    double avail = std::numeric_limits<double>::infinity();
    mesh.for_each_virtual_link(
        a, b, [&](net::OverlayLinkIndex l) { avail = std::min(avail, m_.links_.published(l)); });
    memo_.insert_or_assign(key, avail);
    return avail;
  }

 private:
  void observe(double updated_at) const {
    const double age = m_.engine_->now() - updated_at;
    staleness_.observe(age);
    age_.set(age);
  }

  const GlobalStateManager& m_;
  bool observed_;
  mutable obs::HistogramHandle staleness_;
  mutable obs::GaugeHandle age_;  ///< inert on shard views
  /// (a << 32 | b) → bottleneck of a→b as of publication memo_publication_.
  mutable util::FlatMap<std::uint64_t, double> memo_;
  mutable std::uint64_t memo_publication_ = 0;
};

GlobalStateManager::GlobalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                                       obs::MetricsRegistry& counters, GlobalStateConfig config,
                                       obs::Observability* obs)
    : sys_(&sys),
      engine_(&engine),
      global_updates_(&counters, obs::metric::kStateGlobalUpdates),
      aggregation_updates_(&counters, obs::metric::kStateAggregationUpdates),
      config_(config) {
  if (obs != nullptr) {
    prof_check_ = obs->profiler.scope(obs::prof_scope::kStateCheckSweep);
    prof_publish_ = obs->profiler.scope(obs::prof_scope::kStatePublish);
    const auto updates = [obs](const char* kind) {
      return obs::CounterHandle(&obs->metrics, obs::metric::kStateUpdates, {{"kind", kind}});
    };
    updates_node_ = updates("node");
    updates_link_ = updates("link");
    updates_publish_ = updates("publish");
    updates_torn_ = updates("torn_publish");
    updates_suppressed_ = updates("suppressed");
  }
  ACP_REQUIRE(config_.check_interval_s > 0.0);
  ACP_REQUIRE(config_.threshold_fraction >= 0.0 && config_.threshold_fraction <= 1.0);
  ACP_REQUIRE(config_.aggregation_publish_interval_s > 0.0);
  nodes_.resize(sys.node_count());
  links_.resize(sys.mesh().link_count());
  view_ = std::make_unique<CoarseView>(*this, obs, /*gauge=*/true);
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
  ++publication_;
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
    updates_suppressed_.add();
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
      global_updates_.add();
      updates_node_.add();
    }
  }

  // Overlay-link states: owners report significant changes to the
  // aggregation node (not yet visible to queries until the next publish).
  for (LinkHandle l = 0; l < links_.size(); ++l) {
    const double live = sys_->link_pool(l).available(now);
    const double cap = sys_->link_pool(l).capacity();
    if (std::abs(live - links_.reported(l)) > config_.threshold_fraction * cap) {
      links_.report(l, live);
      aggregation_updates_.add();
      updates_link_.add();
    }
  }
}

void GlobalStateManager::run_publish() {
  const obs::ProfScope prof(prof_publish_);
  if (faults_ != nullptr && faults_->state_updates_suppressed()) {
    updates_suppressed_.add();
    return;
  }
  // The aggregation node folds its collected link states into the global
  // state (one bulk update message) and the role rotates for load sharing.
  const bool torn = faults_ != nullptr && faults_->consume_state_tear();
  links_.publish(engine_->now(), torn);
  ++publication_;
  if (torn) updates_torn_.add();
  global_updates_.add();
  updates_publish_.add();
  if (config_.rotate_aggregation_node && sys_->node_count() > 0) {
    aggregation_node_ =
        static_cast<stream::NodeId>((aggregation_node_ + 1) % sys_->node_count());
  }
}

}  // namespace acp::state
