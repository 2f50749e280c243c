#include "state/local_state.h"

namespace acp::state {

// View from one vantage node: own node + adjacent links exact, the rest from
// the periodic snapshot.
class LocalStateManager::LocalView final : public stream::StateView {
 public:
  LocalView(const LocalStateManager& m, stream::NodeId vantage) : m_(m), vantage_(vantage) {
    for (net::OverlayLinkIndex l : m.sys_->mesh().links_of(vantage)) adjacent_.push_back(l);
  }

  stream::ResourceVector node_available(stream::NodeId node, double now) const override {
    if (node == vantage_) return m_.sys_->node_pool(node).available(now);  // self: exact
    ACP_REQUIRE(node < m_.cached_nodes_.size());
    return m_.cached_nodes_.available(node);
  }

  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    for (net::OverlayLinkIndex adj : adjacent_) {
      if (adj == l) return m_.sys_->link_pool(l).available(now);  // adjacent: exact
    }
    ACP_REQUIRE(l < m_.cached_link_avail_.size());
    return m_.cached_link_avail_[l];
  }

 private:
  const LocalStateManager& m_;
  stream::NodeId vantage_;
  std::vector<net::OverlayLinkIndex> adjacent_;
};

LocalStateManager::LocalStateManager(const stream::StreamSystem& sys, sim::Engine& engine,
                                     obs::MetricsRegistry& counters, LocalStateConfig config)
    : sys_(&sys),
      engine_(&engine),
      refresh_messages_(&counters, obs::metric::kStateLocalRefresh),
      config_(config) {
  ACP_REQUIRE(config_.refresh_interval_s > 0.0);
  cached_nodes_.resize(sys.node_count());
  cached_link_avail_.resize(sys.mesh().link_count());
  views_.resize(sys.node_count());
}

LocalStateManager::~LocalStateManager() = default;

void LocalStateManager::start() {
  ACP_REQUIRE_MSG(!started_, "start() may only be called once");
  started_ = true;
  run_refresh();
  schedule_refresh();
}

void LocalStateManager::schedule_refresh() {
  engine_->schedule_after(
      config_.refresh_interval_s,
      [this] {
        run_refresh();
        schedule_refresh();
      },
      obs::attr_wait::kStateTick);
}

void LocalStateManager::run_refresh() {
  const double now = engine_->now();
  for (NodeHandle n = 0; n < cached_nodes_.size(); ++n) {
    cached_nodes_.store(n, sys_->node_pool(n).available(now), now);
  }
  for (LinkHandle l = 0; l < cached_link_avail_.size(); ++l) {
    cached_link_avail_[l] = sys_->link_pool(l).available(now);
  }
  last_refresh_ = now;
  if (config_.count_messages) {
    // One measurement message per overlay neighbor pair (each node pings its
    // neighbors once per refresh).
    refresh_messages_.add(sys_->mesh().link_count() * 2);
  }
}

const stream::StateView& LocalStateManager::view_from(stream::NodeId node) const {
  ACP_REQUIRE(node < views_.size());
  if (!views_[node]) views_[node] = std::make_unique<LocalView>(*this, node);
  return *views_[node];
}

double LocalStateManager::snapshot_age(stream::NodeId /*node*/) const {
  return engine_->now() - last_refresh_;
}

}  // namespace acp::state
