#include "stream/component_graph.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace acp::stream {

ComponentGraph::ComponentGraph(const FunctionGraph& fg)
    : fg_(&fg), assignment_(fg.node_count(), kNoComponent) {}

void ComponentGraph::assign(FnNodeIndex fn, ComponentId c) {
  ACP_REQUIRE(fn < assignment_.size());
  assignment_[fn] = c;
}

bool ComponentGraph::is_assigned(FnNodeIndex fn) const {
  ACP_REQUIRE(fn < assignment_.size());
  return assignment_[fn] != kNoComponent;
}

bool ComponentGraph::fully_assigned() const {
  return std::none_of(assignment_.begin(), assignment_.end(),
                      [](ComponentId c) { return c == kNoComponent; });
}

ComponentId ComponentGraph::component_at(FnNodeIndex fn) const {
  ACP_REQUIRE(fn < assignment_.size());
  ACP_REQUIRE_MSG(assignment_[fn] != kNoComponent, "function node not assigned");
  return assignment_[fn];
}

std::vector<ComponentId> ComponentGraph::components() const {
  std::vector<ComponentId> out;
  for (ComponentId c : assignment_) {
    if (c != kNoComponent) out.push_back(c);
  }
  return out;
}

bool ComponentGraph::functions_match(const StreamSystem& sys) const {
  for (FnNodeIndex i = 0; i < assignment_.size(); ++i) {
    if (assignment_[i] == kNoComponent) return false;
    if (sys.component(assignment_[i]).function != fg_->node(i).function) return false;
  }
  return true;
}

QoSVector ComponentGraph::path_qos(const StreamSystem& sys, const StateView& view,
                                   const std::vector<FnNodeIndex>& path, double now) const {
  QoSVector q;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const ComponentId c = component_at(path[i]);
    q += view.component_qos(c, now);
    if (i + 1 < path.size()) {
      const ComponentId next = component_at(path[i + 1]);
      q += view.virtual_link_qos(sys.mesh(), sys.component(c).node, sys.component(next).node, now);
    }
  }
  return q;
}

bool ComponentGraph::satisfies_policy(const StreamSystem& sys,
                                      const PolicyConstraint& policy) const {
  if (policy.is_permissive()) return true;
  for (ComponentId c : assignment_) {
    if (c == kNoComponent) return false;
    if (!policy.admits(sys.component_attributes(c))) return false;
  }
  return true;
}

bool ComponentGraph::interfaces_compatible(const StreamSystem& sys) const {
  const auto& catalog = sys.catalog();
  for (FnEdgeIndex e = 0; e < fg_->edge_count(); ++e) {
    const FnEdge& edge = fg_->edge(e);
    if (!catalog.compatible(fg_->node(edge.from).function, fg_->node(edge.to).function)) {
      return false;
    }
  }
  return true;
}

bool ComponentGraph::qualified(const StreamSystem& sys, const StateView& view,
                               const QoSVector& qos_req, const PolicyConstraint& policy,
                               double now) const {
  return CompositionEvaluator(sys)
      .evaluate(*this, fg_->enumerate_paths(), qos_req, policy, view, now)
      .has_value();
}

std::string ComponentGraph::to_string(const StreamSystem& sys) const {
  std::ostringstream os;
  os << "λ{";
  for (FnNodeIndex i = 0; i < assignment_.size(); ++i) {
    if (i) os << ", ";
    os << i << "→";
    if (assignment_[i] == kNoComponent) {
      os << "∅";
    } else {
      os << "c" << assignment_[i] << "@n" << sys.component(assignment_[i]).node;
    }
  }
  os << "}";
  return os.str();
}

// ---- CompositionEvaluator ----------------------------------------------------

std::optional<double> CompositionEvaluator::evaluate(const ComponentGraph& cg,
                                                     const FnPaths& paths,
                                                     const QoSVector& qos_req,
                                                     const PolicyConstraint& policy,
                                                     const StateView& view, double now) {
  if (!cg.fully_assigned() || !cg.functions_match(*sys_) || !cg.interfaces_compatible(*sys_) ||
      !cg.satisfies_policy(*sys_, policy)) {
    return std::nullopt;
  }
  for (const auto& path : paths) {
    if (!cg.path_qos(*sys_, view, path, now).satisfies(qos_req)) return std::nullopt;
  }
  return phi(cg.function_graph(), cg.assignment(), view, now);
}

void CompositionEvaluator::aggregate(const FunctionGraph& fg,
                                     const std::vector<ComponentId>& assignment) {
  ACP_REQUIRE(assignment.size() == fg.node_count());
  // Node demand: a composition has a handful of hosts, so a scan per fn
  // node is cheapest.
  nodes_.clear();
  fn_slot_.resize(fg.node_count());
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    const NodeId node = sys_->component(assignment[i]).node;
    std::uint32_t slot = 0;
    while (slot < nodes_.size() && nodes_[slot].node != node) ++slot;
    if (slot == nodes_.size()) nodes_.push_back({node, {}, {}});
    nodes_[slot].demand += fg.node(i).required;
    fn_slot_[i] = slot;
  }

  // Link demand: one use per (edge, walk step), in that order. Sorting the
  // (link, position) keys groups each link's uses and keeps them in
  // position order, so every run sums in (edge, walk) order.
  uses_.clear();
  use_kbps_.clear();
  edge_end_.resize(fg.edge_count());
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const FnEdge& edge = fg.edge(e);
    const NodeId a = sys_->component(assignment[edge.from]).node;
    const NodeId b = sys_->component(assignment[edge.to]).node;
    if (a != b) {  // co-located: no bandwidth consumed
      sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
        uses_.push_back((std::uint64_t{l} << 32) | uses_.size());
        use_kbps_.push_back(edge.required_bandwidth_kbps);
      });
    }
    edge_end_[e] = static_cast<std::uint32_t>(uses_.size());
  }
  std::sort(uses_.begin(), uses_.end());
  links_.clear();
  use_slot_.resize(uses_.size());
  for (const std::uint64_t use : uses_) {
    const auto link = static_cast<net::OverlayLinkIndex>(use >> 32);
    const auto pos = static_cast<std::uint32_t>(use);
    if (links_.empty() || links_.back().link != link) links_.push_back({link, 0.0});
    links_.back().kbps += use_kbps_[pos];
    use_slot_[pos] = static_cast<std::uint32_t>(links_.size() - 1);
  }
}

std::optional<double> CompositionEvaluator::phi(const FunctionGraph& fg,
                                                const std::vector<ComponentId>& assignment,
                                                const StateView& view, double now) {
  aggregate(fg, assignment);
  for (NodeDemand& n : nodes_) {
    const ResourceVector avail = view.node_available(n.node, now);
    if (!n.demand.fits_within(avail)) return std::nullopt;
    n.residual = avail - n.demand;
  }
  for (LinkDemand& l : links_) {
    const double avail = view.link_available_kbps(l.link, now);
    if (l.kbps > avail) return std::nullopt;
    l.residual = avail - l.kbps;
  }

  // Node terms: Σ_k r_k / (rr_k + r_k) per component, with the residual
  // left after the composition's whole demand on its node.
  double phi = 0.0;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    phi += congestion_terms(fg.node(i).required, nodes_[fn_slot_[i]].residual);
  }
  // Virtual-link terms: b / (rb + b), rb the bottleneck residual along the
  // virtual link; a co-located edge has no uses, rb = ∞ and no term.
  std::uint32_t pos = 0;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    if (pos == edge_end_[e]) continue;
    double residual = std::numeric_limits<double>::infinity();
    for (; pos < edge_end_[e]; ++pos) {
      residual = std::min(residual, links_[use_slot_[pos]].residual);
    }
    phi += congestion_term(fg.edge(e).required_bandwidth_kbps, residual);
  }
  return phi;
}

}  // namespace acp::stream
