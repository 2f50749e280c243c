#include "stream/component_graph.h"

#include <algorithm>
#include <bit>
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

QoSVector ComponentGraph::path_qos(const StreamSystem& sys,
                                   const std::vector<FnNodeIndex>& path) const {
  QoSVector q;
  for (std::size_t i = 0; i < path.size(); ++i) {
    const ComponentId c = component_at(path[i]);
    q += sys.component(c).qos;
    if (i + 1 < path.size()) {
      const ComponentId next = component_at(path[i + 1]);
      q += sys.virtual_link_qos(sys.component(c).node, sys.component(next).node);
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
    if (!cg.path_qos(*sys_, path).satisfies(qos_req)) return std::nullopt;
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

  // Link demand: one use per (edge, walk step), in that order; a
  // co-located edge has none. use_slot_ first collects each use's link, then
  // the table replaces it by the link's slot in links_. A link's first use
  // appends its slot, and every use adds into that slot, so each link sums
  // in (edge, walk) order.
  use_slot_.clear();
  edge_end_.resize(fg.edge_count());
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const NodeId a = sys_->component(assignment[fg.edge(e).from]).node;
    const NodeId b = sys_->component(assignment[fg.edge(e).to]).node;
    if (a != b) {
      sys_->mesh().for_each_virtual_link(a, b,
                                         [&](net::OverlayLinkIndex l) { use_slot_.push_back(l); });
    }
    edge_end_[e] = static_cast<std::uint32_t>(use_slot_.size());
  }
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};  // link kNoOverlayLink: never a real one
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(2 * use_slot_.size(), 16));
  const int shift = 64 - std::countr_zero(capacity);
  link_table_.resize(capacity);
  std::fill(link_table_.begin(), link_table_.end(), kEmpty);
  links_.clear();
  std::uint32_t pos = 0;
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const double kbps = fg.edge(e).required_bandwidth_kbps;
    for (; pos < edge_end_[e]; ++pos) {
      const net::OverlayLinkIndex l = use_slot_[pos];
      // Fibonacci hashing: the top bits of l·2^64/φ spread the strided ids
      // of a torus walk.
      std::size_t h = (std::uint64_t{l} * 0x9E3779B97F4A7C15ULL) >> shift;
      while ((link_table_[h] >> 32) != l && link_table_[h] != kEmpty) h = (h + 1) & (capacity - 1);
      if (link_table_[h] == kEmpty) {
        link_table_[h] = (std::uint64_t{l} << 32) | links_.size();
        links_.push_back({l, 0.0});
      }
      const auto slot = static_cast<std::uint32_t>(link_table_[h]);
      links_[slot].kbps += kbps;
      use_slot_[pos] = slot;
    }
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
