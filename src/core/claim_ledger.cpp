#include "core/claim_ledger.h"

namespace acp::core {

std::optional<stream::ResourceVector> ClaimLedger::node_available(std::uint32_t tag,
                                                                  stream::NodeId node,
                                                                  double now) const {
  for (const NodeClaim& c : node_claims_) {
    if (c.node == node && c.tag == tag) return std::nullopt;
  }
  stream::ResourceVector avail = sys_->node_pool(node).available_excluding(now, rid_);
  for (const NodeClaim& c : node_claims_) {
    if (c.node == node) avail -= c.amount;
  }
  return avail;
}

std::optional<double> ClaimLedger::link_available(std::uint32_t tag, net::OverlayLinkIndex l,
                                                  double now) const {
  const std::uint32_t* head = chains_.find(l);
  const std::uint32_t first = head != nullptr ? *head : kEnd;
  for (std::uint32_t i = first; i != kEnd; i = link_claims_[i].next) {
    if (link_claims_[i].tag == tag) return std::nullopt;
  }
  // Every claim left on the link has another tag; subtract in claim order.
  double avail = sys_->link_pool(l).available_excluding(now, rid_);
  for (std::uint32_t i = first; i != kEnd; i = link_claims_[i].next) {
    avail -= link_claims_[i].kbps;
  }
  return avail;
}

bool ClaimLedger::admit_node(std::uint32_t tag, stream::NodeId node,
                             const stream::ResourceVector& amount, double now) {
  const auto avail = node_available(tag, node, now);
  if (!avail) return true;
  if (!stream::pool_fits(amount, *avail)) return false;
  node_claims_.push_back({node, tag, amount});
  return true;
}

bool ClaimLedger::admit_link(std::uint32_t tag, stream::NodeId a, stream::NodeId b, double kbps,
                             double now) {
  bool ok = true;
  util::SmallVec<net::OverlayLinkIndex, 16> fresh;
  sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!ok) return;
    const auto avail = link_available(tag, l, now);
    if (!avail) return;
    if (!stream::pool_fits(kbps, *avail)) {
      ok = false;
      return;
    }
    fresh.push_back(l);
  });
  if (!ok) return false;
  for (const net::OverlayLinkIndex l : fresh) {
    const auto index = static_cast<std::uint32_t>(link_claims_.size());
    link_claims_.push_back({kEnd, tag, kbps});
    if (const std::uint32_t* head = chains_.find(l)) {
      std::uint32_t last = *head;
      while (link_claims_[last].next != kEnd) last = link_claims_[last].next;
      link_claims_[last].next = index;
    } else {
      chains_.insert_or_assign(l, index);
    }
  }
  return true;
}

}  // namespace acp::core
