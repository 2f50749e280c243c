// StateView — the read-side abstraction over resource availability.
//
// Composition logic is written once against this interface and evaluated
// against different information regimes, which is the heart of the paper's
// hybrid design:
//   * StreamSystem::TrueView          — the simulator's ground truth (what
//                                       the Optimal baseline may read
//                                       everywhere);
//   * StreamSystem::RequestScopedView — ground truth as one request's deputy
//                                       sees it: its own transient
//                                       reservations count as available;
//   * GlobalStateManager::CoarseView  — the threshold-updated global state
//                                       (what ACP's candidate selection
//                                       reads, possibly stale);
//   * LocalStateManager::LocalView    — one node's exact own state plus a
//                                       periodic snapshot of the rest;
//   * core::WhatIfView                — any view minus hypothetical
//                                       allocations (trace replay).
//
// The regimes differ only in availability, so that is all a view carries.
// QoS is static in the simulated system — no fault or update changes a
// component's profile or a link's delay and loss — and is read from
// StreamSystem::component(c).qos and StreamSystem::virtual_link_qos instead.
#pragma once

#include "net/overlay.h"
#include "stream/component.h"
#include "stream/resources.h"

namespace acp::stream {

class StateView {
 public:
  virtual ~StateView() = default;

  /// Available end-system resources on `node` as believed at time `now`.
  virtual ResourceVector node_available(NodeId node, double now) const = 0;

  /// Available bandwidth on overlay link `l` as believed at time `now`.
  virtual double link_available_kbps(net::OverlayLinkIndex l, double now) const = 0;

  /// Bottleneck available bandwidth of the virtual link a→b: min over its
  /// overlay links; +infinity when a == b (co-location, paper footnote 8).
  /// The default walks the overlay links through link_available_kbps; the
  /// coarse view answers from a per-publication memo of the same minimum.
  virtual double virtual_link_available_kbps(const net::OverlayMesh& mesh, NodeId a, NodeId b,
                                             double now) const;
};

}  // namespace acp::stream
