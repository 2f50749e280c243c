#include "stream/system.h"

#include <algorithm>
#include <iterator>
#include <limits>


namespace acp::stream {

// ---- StateView shared derived quantities ----------------------------------

double StateView::virtual_link_available_kbps(const net::OverlayMesh& mesh, NodeId a, NodeId b,
                                              double now) const {
  if (a == b) return std::numeric_limits<double>::infinity();
  double avail = std::numeric_limits<double>::infinity();
  mesh.for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    avail = std::min(avail, link_available_kbps(l, now));
  });
  return avail;
}

// ---- Ground-truth view ------------------------------------------------------

class StreamSystem::TrueView final : public StateView {
 public:
  explicit TrueView(const StreamSystem& sys) : sys_(sys) {}

  ResourceVector node_available(NodeId node, double now) const override {
    return sys_.node_pool(node).available(now);
  }

  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    return sys_.link_pool(l).available(now);
  }

 private:
  const StreamSystem& sys_;
};

// ---- StreamSystem -----------------------------------------------------------

StreamSystem::StreamSystem(const net::OverlayMesh& mesh, FunctionCatalog catalog)
    : mesh_(&mesh), catalog_(std::move(catalog)), by_function_(catalog_.size()) {
  by_node_.resize(mesh.node_count());
  node_pools_.reserve(mesh.node_count());
  for (std::size_t i = 0; i < mesh.node_count(); ++i) {
    node_pools_.emplace_back(ResourceVector{});  // capacity set by builder
  }
  link_pools_.reserve(mesh.link_count());
  for (std::size_t l = 0; l < mesh.link_count(); ++l) {
    link_pools_.emplace_back(mesh.link(static_cast<net::OverlayLinkIndex>(l)).capacity_kbps);
  }
  true_view_ = std::make_unique<TrueView>(*this);
}

StreamSystem::~StreamSystem() = default;

const StateView& StreamSystem::true_state() const { return *true_view_; }

void StreamSystem::set_node_capacity(NodeId node, const ResourceVector& capacity) {
  ACP_REQUIRE(node < node_pools_.size());
  ACP_REQUIRE_MSG(node_pools_[node].committed_count() == 0,
                  "cannot resize a pool with live allocations");
  node_pools_[node] = NodePool(capacity);
}

ComponentId StreamSystem::add_component(FunctionId function, NodeId node, const QoSVector& qos,
                                        const ComponentAttributes& attrs) {
  ACP_REQUIRE(function < catalog_.size());
  ACP_REQUIRE(node < node_pools_.size());
  const ComponentId id = static_cast<ComponentId>(components_.size());
  components_.push_back(Component{id, function, node, qos});
  attributes_.push_back(attrs);
  by_function_[function].push_back(id);
  by_node_[node].push_back(id);
  return id;
}

void StreamSystem::set_component_attributes(ComponentId c, const ComponentAttributes& attrs) {
  ACP_REQUIRE(c < attributes_.size());
  attributes_[c] = attrs;
}

const ComponentAttributes& StreamSystem::component_attributes(ComponentId c) const {
  ACP_REQUIRE(c < attributes_.size());
  return attributes_[c];
}

NodeId StreamSystem::move_component(ComponentId c, NodeId new_node) {
  ACP_REQUIRE(c < components_.size());
  ACP_REQUIRE(new_node < node_pools_.size());
  const NodeId old_node = components_[c].node;
  if (old_node == new_node) return old_node;
  auto& old_list = by_node_[old_node];
  old_list.erase(std::remove(old_list.begin(), old_list.end(), c), old_list.end());
  by_node_[new_node].push_back(c);
  components_[c].node = new_node;
  return old_node;
}

const Component& StreamSystem::component(ComponentId c) const {
  ACP_REQUIRE(c < components_.size());
  return components_[c];
}

const std::vector<ComponentId>& StreamSystem::components_providing(FunctionId f) const {
  ACP_REQUIRE(f < by_function_.size());
  return by_function_[f];
}

const std::vector<ComponentId>& StreamSystem::components_on(NodeId node) const {
  ACP_REQUIRE(node < by_node_.size());
  return by_node_[node];
}

NodePool& StreamSystem::node_pool(NodeId node) {
  ACP_REQUIRE(node < node_pools_.size());
  return node_pools_[node];
}
const NodePool& StreamSystem::node_pool(NodeId node) const {
  ACP_REQUIRE(node < node_pools_.size());
  return node_pools_[node];
}
BandwidthPool& StreamSystem::link_pool(net::OverlayLinkIndex l) {
  ACP_REQUIRE(l < link_pools_.size());
  return link_pools_[l];
}
const BandwidthPool& StreamSystem::link_pool(net::OverlayLinkIndex l) const {
  ACP_REQUIRE(l < link_pools_.size());
  return link_pools_[l];
}

bool StreamSystem::reserve_node_transient(RequestId request, std::uint32_t tag, NodeId node,
                                          const ResourceVector& amount, double now,
                                          double expires_at) {
  if (!node_pool(node).reserve_transient(request, tag, amount, now, expires_at)) return false;
  request_footprints_[request].push_back({node, node});
  return true;
}

template <typename Admit, typename Undo>
bool StreamSystem::admit_virtual_link(NodeId a, NodeId b, Admit&& admit, Undo&& undo) {
  std::size_t done = 0;
  bool ok = true;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (ok && admit(l)) {
      ++done;
    } else {
      ok = false;
    }
  });
  if (ok) return true;
  // Walk the virtual link again rather than list the admitted links: a
  // 64×80-torus virtual link spans ~33 overlay links, past any inline list.
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (done == 0) return;
    undo(l);
    --done;
  });
  return false;
}

bool StreamSystem::reserve_virtual_link_transient(RequestId request, std::uint32_t tag, NodeId a,
                                                  NodeId b, double kbps, double now,
                                                  double expires_at) {
  if (a == b) return true;  // co-located: no bandwidth consumed
  const bool ok = admit_virtual_link(
      a, b,
      [&](net::OverlayLinkIndex l) {
        return link_pools_[l].reserve_transient(request, tag, kbps, now, expires_at);
      },
      // Cancels just this tag (cancel_request would drop the request's
      // other tags too).
      [&](net::OverlayLinkIndex l) { link_pools_[l].cancel_request_tag(request, tag); });
  if (ok) request_footprints_[request].push_back({a, b});
  return ok;
}

void StreamSystem::force_reserve_node_transient(RequestId request, std::uint32_t tag, NodeId node,
                                                const ResourceVector& amount, double now,
                                                double expires_at) {
  node_pool(node).force_reserve_transient(request, tag, amount, now, expires_at);
  request_footprints_[request].push_back({node, node});
}

void StreamSystem::force_reserve_virtual_link_transient(RequestId request, std::uint32_t tag,
                                                        NodeId a, NodeId b, double kbps,
                                                        double now, double expires_at) {
  if (a == b) return;  // co-located: no bandwidth consumed
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    link_pools_[l].force_reserve_transient(request, tag, kbps, now, expires_at);
  });
  request_footprints_[request].push_back({a, b});
}

bool StreamSystem::confirm_node(RequestId request, std::uint32_t tag, NodeId node,
                                SessionId session, double now) {
  if (!node_pool(node).confirm(request, tag, session, now)) return false;
  session_footprints_[session].push_back({node, node});
  return true;
}

bool StreamSystem::confirm_virtual_link(RequestId request, std::uint32_t tag, NodeId a, NodeId b,
                                        SessionId session, double now) {
  if (a == b) return true;
  bool ok = true;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (ok && !link_pools_[l].confirm(request, tag, session, now)) ok = false;
  });
  // Noted even on failure: the links confirmed before it keep their records
  // until the caller releases the session.
  session_footprints_[session].push_back({a, b});
  return ok;
}

template <typename F>
void StreamSystem::for_each_pool(Footprint& footprint, F&& f) {
  std::sort(footprint.begin(), footprint.end());
  footprint.erase(std::unique(footprint.begin(), footprint.end()), footprint.end());
  for (const PoolSpan& s : footprint) {
    if (s.a == s.b) {
      f(node_pools_[s.a]);
    } else {
      mesh_->for_each_virtual_link(s.a, s.b, [&](net::OverlayLinkIndex l) { f(link_pools_[l]); });
    }
  }
}

void StreamSystem::cancel_request(RequestId request) {
  const auto it = request_footprints_.find(request);
  if (it == request_footprints_.end()) return;
  for_each_pool(it->second, [request](auto& pool) { pool.cancel_request(request); });
  request_footprints_.erase(it);
}

bool StreamSystem::commit_node_direct(SessionId session, NodeId node, const ResourceVector& amount,
                                      double now) {
  if (!node_pool(node).commit_direct(session, amount, now)) return false;
  session_footprints_[session].push_back({node, node});
  return true;
}

bool StreamSystem::commit_virtual_link_direct(SessionId session, NodeId a, NodeId b, double kbps,
                                              double now) {
  if (a == b) return true;
  const bool ok = admit_virtual_link(
      a, b, [&](net::OverlayLinkIndex l) { return link_pools_[l].commit_direct(session, kbps, now); },
      [&](net::OverlayLinkIndex l) { link_pools_[l].release_session_one(session, kbps); });
  if (ok) session_footprints_[session].push_back({a, b});
  return ok;
}

void StreamSystem::release_session(SessionId session) {
  const auto it = session_footprints_.find(session);
  if (it == session_footprints_.end()) return;
  for_each_pool(it->second, [session](auto& pool) { pool.release_session(session); });
  session_footprints_.erase(it);
}

void StreamSystem::prune_expired(double now) {
  for (auto& p : node_pools_) p.prune_expired(now);
  for (auto& p : link_pools_) p.prune_expired(now);
  drop_settled_requests();
}

void StreamSystem::drop_settled_requests() {
  for (auto it = request_footprints_.begin(); it != request_footprints_.end();) {
    const RequestId request = it->first;
    bool holds = false;
    for_each_pool(it->second, [&](const auto& p) { holds |= p.holds_transients_of(request); });
    it = holds ? std::next(it) : request_footprints_.erase(it);
  }
}

std::size_t StreamSystem::reclaim_node_transients(NodeId node, double now) {
  std::size_t reclaimed = node_pool(node).cancel_all_transients(now);
  for (net::OverlayLinkIndex l : mesh_->links_of(node)) {
    reclaimed += link_pools_[l].cancel_all_transients(now);
  }
  return reclaimed;
}

std::size_t StreamSystem::reclaim_transients_older_than(double age_s, double now) {
  std::size_t reclaimed = 0;
  for (auto& p : node_pools_) reclaimed += p.cancel_transients_older_than(age_s, now);
  for (auto& p : link_pools_) reclaimed += p.cancel_transients_older_than(age_s, now);
  drop_settled_requests();
  return reclaimed;
}

bool StreamSystem::release_virtual_link_direct(SessionId session, NodeId a, NodeId b, double kbps) {
  if (a == b) return true;
  bool all = true;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    all = link_pools_[l].release_session_one(session, kbps) && all;
  });
  return all;
}

}  // namespace acp::stream
