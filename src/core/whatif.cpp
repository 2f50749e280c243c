#include "core/whatif.h"

namespace acp::core {

stream::ResourceVector WhatIfView::node_available(stream::NodeId node, double now) const {
  stream::ResourceVector avail = base_->node_available(node, now);
  const auto it = node_taken_.find(node);
  if (it != node_taken_.end()) avail -= it->second;
  return avail;
}

double WhatIfView::link_available_kbps(net::OverlayLinkIndex l, double now) const {
  double avail = base_->link_available_kbps(l, now);
  const auto it = link_taken_.find(l);
  if (it != link_taken_.end()) avail -= it->second;
  return avail;
}

void WhatIfView::take_node(stream::NodeId node, const stream::ResourceVector& amount) {
  node_taken_[node] += amount;
}

void WhatIfView::take_link(net::OverlayLinkIndex l, double kbps) { link_taken_[l] += kbps; }

void WhatIfView::apply_composition(const stream::StreamSystem& sys,
                                   const stream::ComponentGraph& cg) {
  stream::CompositionEvaluator demand(sys);
  demand.aggregate(cg.function_graph(), cg.assignment());
  // Each node and link appears once, so one add per key: the lists' order
  // (first use) does not reach the sums.
  for (const auto& n : demand.node_demand()) take_node(n.node, n.demand);
  for (const auto& l : demand.link_demand()) take_link(l.link, l.kbps);
}

void WhatIfView::reset() {
  node_taken_.clear();
  link_taken_.clear();
}

}  // namespace acp::core
