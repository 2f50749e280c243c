#include "stream/system.h"

#include <algorithm>
#include <limits>

#include "stream/component_graph.h"

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
  ACP_REQUIRE_MSG(mesh.node_count() < kLinkPool && mesh.link_count() < kLinkPool,
                  "pool references need the top bit free");
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
  const Reserved r = node_pool(node).reserve_transient(request, tag, amount, now, expires_at);
  if (r.created) hold_list_of(request).push_back(node);
  return r.ok;
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
  std::vector<PoolRef>* holds = nullptr;
  // A rollback leaves the pools it emptied listed (over-listing is allowed).
  return admit_virtual_link(
      a, b,
      [&](net::OverlayLinkIndex l) {
        const Reserved r = link_pools_[l].reserve_transient(request, tag, kbps, now, expires_at);
        if (r.created) {
          if (holds == nullptr) holds = &hold_list_of(request);
          holds->push_back(l | kLinkPool);
        }
        return r.ok;
      },
      // Cancels just this tag (cancel_request would drop the request's
      // other tags too).
      [&](net::OverlayLinkIndex l) { link_pools_[l].cancel_request_tag(request, tag); });
}

void StreamSystem::force_reserve_node_transient(RequestId request, std::uint32_t tag, NodeId node,
                                                const ResourceVector& amount, double now,
                                                double expires_at) {
  if (node_pool(node).force_reserve_transient(request, tag, amount, now, expires_at)) {
    hold_list_of(request).push_back(node);
  }
}

void StreamSystem::force_reserve_virtual_link_transient(RequestId request, std::uint32_t tag,
                                                        NodeId a, NodeId b, double kbps,
                                                        double now, double expires_at) {
  if (a == b) return;  // co-located: no bandwidth consumed
  std::vector<PoolRef>* holds = nullptr;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!link_pools_[l].force_reserve_transient(request, tag, kbps, now, expires_at)) return;
    if (holds == nullptr) holds = &hold_list_of(request);
    holds->push_back(l | kLinkPool);
  });
}

void StreamSystem::reserve_session_records(SessionId session, const ComponentGraph& cg) {
  const FunctionGraph& fg = cg.function_graph();
  const auto host = [&](FnNodeIndex fn) { return component(cg.component_at(fn)).node; };
  std::size_t links = 0;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    links += mesh_->virtual_link_hops(host(fg.edge(e).from), host(fg.edge(e).to));
  }
  SessionCommits& c = commits_of(session);
  c.nodes.reserve(c.nodes.size() + fg.node_count());
  c.links.reserve(c.links.size() + links);
}

bool StreamSystem::confirm_node(RequestId request, std::uint32_t tag, NodeId node,
                                SessionId session, double now) {
  const std::optional<ResourceVector> amount = node_pool(node).confirm(request, tag, now);
  if (!amount) return false;
  commits_of(session).nodes.push_back({node, *amount});
  return true;
}

bool StreamSystem::confirm_virtual_link(RequestId request, std::uint32_t tag, NodeId a, NodeId b,
                                        SessionId session, double now) {
  if (a == b) return true;
  std::vector<LinkCommit>* links = nullptr;
  bool ok = true;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!ok) return;
    const std::optional<double> kbps = link_pools_[l].confirm(request, tag, now);
    if (!kbps) {
      ok = false;
      return;
    }
    if (links == nullptr) links = &commits_of(session).links;
    links->push_back({l, *kbps});
  });
  return ok;
}

template <typename F>
void StreamSystem::visit(PoolRef p, F&& f) {
  if (p & kLinkPool) {
    f(link_pools_[p & ~kLinkPool]);
  } else {
    f(node_pools_[p]);
  }
}

namespace {
/// The slot `key` maps to in `index`; a key without one takes a slot from
/// `free`, or a new one at the end of `slots`.
template <typename T>
std::uint32_t slot_of(util::FlatMap<std::uint64_t, std::uint32_t>& index, std::vector<T>& slots,
                      std::vector<std::uint32_t>& free, std::uint64_t key) {
  if (const std::uint32_t* slot = index.find(key)) return *slot;
  std::uint32_t slot = 0;
  if (free.empty()) {
    slot = static_cast<std::uint32_t>(slots.size());
    slots.emplace_back();
  } else {
    slot = free.back();
    free.pop_back();
  }
  index.insert_or_assign(key, slot);
  return slot;
}
}  // namespace

std::vector<StreamSystem::PoolRef>& StreamSystem::hold_list_of(RequestId request) {
  return hold_lists_[slot_of(hold_index_, hold_lists_, free_hold_lists_, request)];
}

void StreamSystem::close_hold_list(RequestId request, std::uint32_t slot) {
  hold_lists_[slot].clear();  // keeps its capacity for the next request
  free_hold_lists_.push_back(slot);
  hold_index_.erase(request);
}

StreamSystem::SessionCommits& StreamSystem::commits_of(SessionId session) {
  return session_commits_[slot_of(session_index_, session_commits_, free_session_commits_,
                                  session)];
}

void StreamSystem::cancel_request(RequestId request) {
  const std::uint32_t* slot = hold_index_.find(request);
  if (slot == nullptr) return;
  for (const PoolRef p : hold_lists_[*slot]) {
    visit(p, [request](auto& pool) { pool.cancel_request(request); });
  }
  close_hold_list(request, *slot);
}

bool StreamSystem::commit_node_direct(SessionId session, NodeId node, const ResourceVector& amount,
                                      double now) {
  if (!node_pool(node).commit(amount, now)) return false;
  commits_of(session).nodes.push_back({node, amount});
  return true;
}

bool StreamSystem::commit_virtual_link_direct(SessionId session, NodeId a, NodeId b, double kbps,
                                              double now) {
  if (a == b) return true;
  std::vector<LinkCommit>* links = nullptr;
  std::size_t before = 0;
  const bool ok = admit_virtual_link(
      a, b,
      [&](net::OverlayLinkIndex l) {
        if (!link_pools_[l].commit(kbps, now)) return false;
        if (links == nullptr) {
          links = &commits_of(session).links;
          before = links->size();
        }
        links->push_back({l, kbps});
        return true;
      },
      [&](net::OverlayLinkIndex l) { link_pools_[l].release(kbps); });
  if (!ok && links != nullptr) links->resize(before);
  return ok;
}

void StreamSystem::release_session(SessionId session) {
  const std::uint32_t* slot = session_index_.find(session);
  if (slot == nullptr) return;
  SessionCommits& c = session_commits_[*slot];
  for (const NodeCommit& n : c.nodes) node_pools_[n.node].release(n.amount);
  for (const LinkCommit& l : c.links) link_pools_[l.link].release(l.kbps);
  c = SessionCommits{};  // a live session's lists are sized exactly; free them
  free_session_commits_.push_back(*slot);
  session_index_.erase(session);
}

void StreamSystem::prune_expired(double now) {
  for (auto& p : node_pools_) p.prune_expired(now);
  for (auto& p : link_pools_) p.prune_expired(now);
  drop_settled_requests();
}

void StreamSystem::drop_settled_requests() {
  std::vector<RequestId> settled;
  hold_index_.for_each([&](RequestId request, std::uint32_t slot) {
    bool holds = false;
    for (const PoolRef p : hold_lists_[slot]) {
      visit(p, [&](const auto& pool) { holds = holds || pool.holds_transients_of(request); });
      if (holds) return;
    }
    settled.push_back(request);
  });
  for (const RequestId request : settled) close_hold_list(request, *hold_index_.find(request));
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
  const std::uint32_t* slot = session_index_.find(session);
  bool all = true;
  mesh_->for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (slot == nullptr) {
      all = false;
      return;
    }
    auto& links = session_commits_[*slot].links;
    const auto it = std::find_if(links.begin(), links.end(), [&](const LinkCommit& c) {
      return c.link == l && c.kbps == kbps;
    });
    if (it == links.end()) {
      all = false;
      return;
    }
    link_pools_[l].release(kbps);
    links.erase(it);
  });
  return all;
}

bool StreamSystem::release_node_direct(SessionId session, NodeId node,
                                       const ResourceVector& amount) {
  const std::uint32_t* slot = session_index_.find(session);
  if (slot == nullptr) return false;
  auto& nodes = session_commits_[*slot].nodes;
  const auto it = std::find_if(nodes.begin(), nodes.end(), [&](const NodeCommit& c) {
    return c.node == node && c.amount == amount;
  });
  if (it == nodes.end()) return false;
  node_pool(node).release(amount);
  nodes.erase(it);
  return true;
}

std::span<const StreamSystem::PoolRef> StreamSystem::hold_list(RequestId request) const {
  const std::uint32_t* slot = hold_index_.find(request);
  if (slot == nullptr) return {};
  return hold_lists_[*slot];
}

std::span<const StreamSystem::NodeCommit> StreamSystem::node_commits(SessionId session) const {
  const std::uint32_t* slot = session_index_.find(session);
  if (slot == nullptr) return {};
  return session_commits_[*slot].nodes;
}

std::span<const StreamSystem::LinkCommit> StreamSystem::link_commits(SessionId session) const {
  const std::uint32_t* slot = session_index_.find(session);
  if (slot == nullptr) return {};
  return session_commits_[*slot].links;
}

}  // namespace acp::stream
