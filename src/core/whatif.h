// WhatIfView — a copy-on-write overlay on a StateView that subtracts
// hypothetical allocations.
//
// Used by the probing-ratio tuner's trace-replay profiler (paper Sec. 3.4):
// replaying last period's requests must *tentatively* consume resources so
// later replayed requests see a loaded system, without touching the live
// pools. Also used by tests to explore counterfactual placements.
#pragma once

#include <map>

#include "stream/component_graph.h"
#include "stream/state_view.h"
#include "stream/system.h"

namespace acp::core {

class WhatIfView final : public stream::StateView {
 public:
  /// `base` must outlive this view.
  explicit WhatIfView(const stream::StateView& base) : base_(&base) {}

  stream::ResourceVector node_available(stream::NodeId node, double now) const override;
  double link_available_kbps(net::OverlayLinkIndex l, double now) const override;

  /// Hypothetically allocates `amount` on `node` (accumulates).
  void take_node(stream::NodeId node, const stream::ResourceVector& amount);

  /// Hypothetically allocates `kbps` on overlay link `l` (accumulates).
  void take_link(net::OverlayLinkIndex l, double kbps);

  /// Applies a whole composition's demands (per-node aggregation + every
  /// overlay link of every non-co-located virtual link).
  void apply_composition(const stream::StreamSystem& sys, const stream::ComponentGraph& cg);

  /// Drops all hypothetical allocations.
  void reset();

 private:
  const stream::StateView* base_;
  std::map<stream::NodeId, stream::ResourceVector> node_taken_;
  std::map<net::OverlayLinkIndex, double> link_taken_;
};

}  // namespace acp::core
