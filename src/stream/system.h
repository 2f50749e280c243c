// StreamSystem — ground truth of the distributed stream processing system.
//
// Owns: the function catalog, the deployed components, one resource pool per
// node (CPU/memory) and one bandwidth pool per overlay link. All admission
// control — transient reservations during probing, commits at session setup,
// releases at teardown — goes through this class, so Eq. 4/5 residual
// non-negativity is enforced in exactly one place.
//
// Hold lists: every call here that creates a transient record appends that
// pool to the request's hold list (a refresh appends nothing), so
// cancel_request visits exactly the pools the request's records went to,
// never re-walking a virtual link. A hold list may over-list (a rollback or
// a crash reclamation can empty a listed pool, and a pool holding two of the
// request's records is listed twice) but never misses a pool that holds a
// record, which holds as long as records are created only through this
// class. Hold lists recycle their storage through a free list.
//
// Commit lists: pools keep only the sum and count of what is committed.
// This class keeps each session's (pool, amount) records in confirm order,
// and release_session hands them back in that order, so every pool
// subtracts the same amounts in the same order as a per-pool scan of its
// commits would: pool state stays bit-identical to keeping the records in
// the pools. Only this class creates or releases session records.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/overlay.h"
#include "stream/component.h"
#include "stream/constraints.h"
#include "stream/function.h"
#include "stream/resources.h"
#include "stream/state_view.h"
#include "util/flat_map.h"

namespace acp::stream {

class ComponentGraph;

class StreamSystem {
 public:
  /// The mesh must outlive the system.
  StreamSystem(const net::OverlayMesh& mesh, FunctionCatalog catalog);
  ~StreamSystem();

  // The internal state view points back at this object, so the system is
  // pinned in memory (hold it behind unique_ptr to pass around).
  StreamSystem(const StreamSystem&) = delete;
  StreamSystem& operator=(const StreamSystem&) = delete;
  StreamSystem(StreamSystem&&) = delete;
  StreamSystem& operator=(StreamSystem&&) = delete;

  const net::OverlayMesh& mesh() const { return *mesh_; }
  const FunctionCatalog& catalog() const { return catalog_; }

  // ---- Construction-time population --------------------------------------

  /// Sets the resource capacity of `node` (replaces the pool; only valid
  /// before any reservation has been made on it).
  void set_node_capacity(NodeId node, const ResourceVector& capacity);

  /// Deploys a component of `function` on `node`; returns its id.
  /// Attributes default to (open security, permissive license).
  ComponentId add_component(FunctionId function, NodeId node, const QoSVector& qos,
                            const ComponentAttributes& attrs = {});

  /// Replaces a component's policy attributes.
  void set_component_attributes(ComponentId c, const ComponentAttributes& attrs);
  const ComponentAttributes& component_attributes(ComponentId c) const;

  /// Migrates component `c` to `new_node` (paper footnote 1: composition
  /// operates on the current placement; running sessions keep their node
  /// allocations, only future compositions see the move). Returns the old
  /// node.
  NodeId move_component(ComponentId c, NodeId new_node);

  // ---- Introspection ------------------------------------------------------

  std::size_t node_count() const { return node_pools_.size(); }
  std::size_t component_count() const { return components_.size(); }
  const Component& component(ComponentId c) const;
  const std::vector<ComponentId>& components_providing(FunctionId f) const;
  const std::vector<ComponentId>& components_on(NodeId node) const;

  NodePool& node_pool(NodeId node);
  const NodePool& node_pool(NodeId node) const;
  BandwidthPool& link_pool(net::OverlayLinkIndex l);
  const BandwidthPool& link_pool(net::OverlayLinkIndex l) const;

  /// Aggregated QoS of the virtual link a→b — the walk-order sum of its
  /// overlay links' delay and additive loss, in O(1); zero when a == b
  /// (paper footnote 4). Like component(c).qos it is static, the same under
  /// every information regime, so no StateView serves it.
  QoSVector virtual_link_qos(NodeId a, NodeId b) const {
    const net::PathQoS q = mesh_->virtual_link_qos(a, b);
    return QoSVector::from_additive(q.delay_ms, q.additive_loss);
  }

  /// Ground-truth state view (precise, current).
  const StateView& true_state() const;

  /// Ground-truth view as seen BY one request: the request's own transient
  /// reservations count as available to it (its probes reserved them for
  /// exactly this decision), everything else is precise and current. Used by
  /// the deputy's optimal-composition-selection step.
  class RequestScopedView;

  // ---- Admission (used by composers / protocol) ---------------------------

  /// Transiently reserves `amount` on `node` for (request, tag); expires at
  /// `expires_at` unless confirmed. Returns false if it does not fit now.
  bool reserve_node_transient(RequestId request, std::uint32_t tag, NodeId node,
                              const ResourceVector& amount, double now, double expires_at);

  /// Transiently reserves `kbps` on every overlay link of the virtual link
  /// a→b. All-or-nothing: on any failure already-made reservations for this
  /// (request, tag) are cancelled. a == b trivially succeeds.
  bool reserve_virtual_link_transient(RequestId request, std::uint32_t tag, NodeId a, NodeId b,
                                      double kbps, double now, double expires_at);

  /// Unchecked variants applying claims a shard worker already admitted
  /// against window-frozen state (see ReservationPool::force_reserve_
  /// transient). Barrier/apply-phase only.
  void force_reserve_node_transient(RequestId request, std::uint32_t tag, NodeId node,
                                    const ResourceVector& amount, double now, double expires_at);
  void force_reserve_virtual_link_transient(RequestId request, std::uint32_t tag, NodeId a,
                                            NodeId b, double kbps, double now, double expires_at);

  /// Sizes `session`'s commit lists for the records that confirming `cg`
  /// makes (one per fn node, one per overlay link of each edge's virtual
  /// link), so the confirms append without reallocating.
  void reserve_session_records(SessionId session, const ComponentGraph& cg);

  /// Confirms the (request, tag) node reservation into `session` ownership.
  bool confirm_node(RequestId request, std::uint32_t tag, NodeId node, SessionId session,
                    double now);

  /// Confirms the (request, tag) virtual-link reservation into `session`,
  /// link by link in walk order. On a failure the links confirmed before it
  /// stay in the session until it is released.
  bool confirm_virtual_link(RequestId request, std::uint32_t tag, NodeId a, NodeId b,
                            SessionId session, double now);

  /// Drops every transient reservation belonging to `request`, system-wide
  /// (the pools on its hold list), and recycles the hold list.
  void cancel_request(RequestId request);

  /// Direct commits without probing (used by non-probing baselines).
  bool commit_node_direct(SessionId session, NodeId node, const ResourceVector& amount,
                          double now);
  bool commit_virtual_link_direct(SessionId session, NodeId a, NodeId b, double kbps, double now);

  /// Releases everything owned by `session` on all nodes and links, in
  /// confirm order, and forgets the session's commit list.
  void release_session(SessionId session);

  /// Drops expired transient records everywhere (housekeeping), then the
  /// hold lists of requests that no longer hold any record.
  void prune_expired(double now);

  // ---- Failure recovery (used by acp::fault) ------------------------------

  /// Crash reclamation: force-cancels every live transient reservation on
  /// `node`'s pool and on all overlay links incident to it — the crashed
  /// node's probe-time holds are void and its in-flight reservations on
  /// adjacent links can never be confirmed. Committed session allocations
  /// are untouched (session repair handles those). Returns the number of
  /// live transients dropped.
  std::size_t reclaim_node_transients(NodeId node, double now);

  /// Leak sweep: drops live transients older than `age_s` on every pool. A
  /// legitimate probe hold is confirmed or cancelled within seconds; older
  /// records are orphans (e.g. from a node that crashed mid-probe). Then
  /// drops the hold lists of requests that no longer hold any record.
  /// Returns the number reclaimed.
  std::size_t reclaim_transients_older_than(double age_s, double now);

  /// Releases one direct-committed `kbps` record of `session` on every link
  /// of the virtual link a→b (session-repair path rerouting). a == b is a
  /// no-op. Returns false if any link had no matching record.
  bool release_virtual_link_direct(SessionId session, NodeId a, NodeId b, double kbps);

  /// Releases one committed `amount` record of `session` on `node` (session
  /// repair moving a placement). Returns false if there is none.
  bool release_node_direct(SessionId session, NodeId node, const ResourceVector& amount);

  // ---- Hold and commit lists (read-only) ----------------------------------

  /// A pool on a hold list: node n's pool as n, overlay link l's pool as l
  /// with kLinkPool set.
  using PoolRef = std::uint32_t;
  static constexpr PoolRef kLinkPool = PoolRef{1} << 31;

  /// One committed allocation of a session.
  struct NodeCommit {
    NodeId node;
    ResourceVector amount;
  };
  struct LinkCommit {
    net::OverlayLinkIndex link;
    double kbps;
  };

  /// Requests that may still hold transient records. Zero once every
  /// request is decided and every orphaned hold has been swept.
  std::size_t held_request_count() const { return hold_index_.size(); }
  /// Sessions that may still hold commit records. Zero once every session
  /// is closed.
  std::size_t committed_session_count() const { return session_index_.size(); }

  /// The pools on `request`'s hold list in listing order; empty when it has
  /// none. Like the two below, valid until the next non-const call.
  std::span<const PoolRef> hold_list(RequestId request) const;
  /// `session`'s commit records in confirm order; empty when it has none.
  std::span<const NodeCommit> node_commits(SessionId session) const;
  std::span<const LinkCommit> link_commits(SessionId session) const;

 private:
  class TrueView;

  struct SessionCommits {
    std::vector<NodeCommit> nodes;
    std::vector<LinkCommit> links;
  };

  /// Calls `admit(l)` on each overlay link l of the virtual link a→b in walk
  /// order until one returns false; then calls `undo(l)` on the links
  /// admitted before it, in the same order. True when every link admitted.
  template <typename Admit, typename Undo>
  bool admit_virtual_link(NodeId a, NodeId b, Admit&& admit, Undo&& undo);
  /// `request`'s hold list, opened (from the free list) if it has none.
  std::vector<PoolRef>& hold_list_of(RequestId request);
  /// Recycles `request`'s hold list.
  void close_hold_list(RequestId request, std::uint32_t slot);
  /// `session`'s commit lists, opened if it has none.
  SessionCommits& commits_of(SessionId session);
  /// Calls `f(pool)` on the pool `p` names.
  template <typename F>
  void visit(PoolRef p, F&& f);
  /// Forgets the hold lists of requests whose listed pools hold no record
  /// of them any more (after a world-wide sweep).
  void drop_settled_requests();

  const net::OverlayMesh* mesh_;
  FunctionCatalog catalog_;
  std::vector<Component> components_;
  std::vector<ComponentAttributes> attributes_;  ///< parallel to components_
  std::vector<std::vector<ComponentId>> by_function_;
  std::vector<std::vector<ComponentId>> by_node_;
  std::vector<NodePool> node_pools_;
  std::vector<BandwidthPool> link_pools_;
  // Hold and commit lists sit in slots reused through free lists; an index
  // maps each open request or session to its slot. A closed hold list keeps
  // its storage for the next request; a closed commit list frees its own.
  util::FlatMap<RequestId, std::uint32_t> hold_index_;
  std::vector<std::vector<PoolRef>> hold_lists_;
  std::vector<std::uint32_t> free_hold_lists_;
  util::FlatMap<SessionId, std::uint32_t> session_index_;
  std::vector<SessionCommits> session_commits_;
  std::vector<std::uint32_t> free_session_commits_;
  std::unique_ptr<TrueView> true_view_;
};

class StreamSystem::RequestScopedView final : public StateView {
 public:
  RequestScopedView(const StreamSystem& sys, RequestId request) : sys_(sys), request_(request) {}

  ResourceVector node_available(NodeId node, double now) const override {
    return sys_.node_pool(node).available_excluding(now, request_);
  }
  double link_available_kbps(net::OverlayLinkIndex l, double now) const override {
    return sys_.link_pool(l).available_excluding(now, request_);
  }

 private:
  const StreamSystem& sys_;
  RequestId request_;
};

}  // namespace acp::stream
