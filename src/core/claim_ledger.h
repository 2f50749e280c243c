// One request's transient admissions under the windowed engine.
//
// Under --shards a probe hop cannot reserve on the shared pools (they are
// frozen for the window); it admits the reservation against the frozen
// state minus the request's own pending claims, records a claim, and
// defers the real reservation to the barrier (core/probing.cpp). A claim
// is recorded once per (pool, tag) — mirroring the pools' one reservation
// per (request, tag) — and never expires within the cascade (TTL 60 s vs a
// ≤ 10 s probe deadline), so "frozen available minus other-tag claims"
// reproduces the serial admission arithmetic exactly.
//
// Link claims are chained per overlay link in claim order behind a
// util::FlatMap from link to its first claim, so admitting a virtual link
// reads only the claims on the links it walks; a torus request collects
// hundreds of link claims. Node claims stay a linear scan: a request holds a few
// (8.9 on average, at most 26 on fig7_xl's torus).
#pragma once

#include <cstdint>
#include <optional>

#include "stream/system.h"
#include "util/flat_map.h"
#include "util/small_vec.h"

namespace acp::core {

class ClaimLedger {
 public:
  /// Claims of request `rid` against `sys`'s pools; `sys` must outlive
  /// the ledger.
  ClaimLedger(const stream::StreamSystem& sys, stream::RequestId rid) : sys_(&sys), rid_(rid) {}

  /// What a fresh claim of `tag` on `node` is admitted against: the node's
  /// frozen availability for this request minus its other-tag claims there,
  /// subtracted in claim order. nullopt when (node, tag) is already claimed
  /// — a refresh, admitted without a check.
  std::optional<stream::ResourceVector> node_available(std::uint32_t tag, stream::NodeId node,
                                                       double now) const;
  /// The same for overlay link `l`.
  std::optional<double> link_available(std::uint32_t tag, net::OverlayLinkIndex l,
                                       double now) const;

  /// Admits `amount` of `tag` on `node`: true for a refresh, or when the
  /// amount fits node_available (and then records the claim).
  bool admit_node(std::uint32_t tag, stream::NodeId node, const stream::ResourceVector& amount,
                  double now);

  /// Admits `kbps` of `tag` on every overlay link of the virtual link
  /// a → b, all or nothing: each link must be a refresh or fit its
  /// link_available before any claim is recorded.
  bool admit_link(std::uint32_t tag, stream::NodeId a, stream::NodeId b, double kbps, double now);

 private:
  static constexpr std::uint32_t kEnd = UINT32_MAX;

  struct NodeClaim {
    stream::NodeId node;
    std::uint32_t tag;
    stream::ResourceVector amount;
  };
  /// One link claim; its link is the chain it sits on.
  struct LinkClaim {
    std::uint32_t next;  ///< next claim on the same link, or kEnd
    std::uint32_t tag;
    double kbps;
  };
  static_assert(sizeof(LinkClaim) == 16);

  const stream::StreamSystem* sys_;
  stream::RequestId rid_;
  util::SmallVec<NodeClaim, 16> node_claims_;
  util::SmallVec<LinkClaim, 32> link_claims_;
  /// Each claimed link's first claim, an index into link_claims_. A chain
  /// holds one claim per tag on its link, so appending walks a few steps.
  util::FlatMap<net::OverlayLinkIndex, std::uint32_t> chains_;
};

}  // namespace acp::core
