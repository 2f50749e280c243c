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

void CompositionEvaluator::BatchIndex::reset() {
  size_ = 0;
  if (++generation_ != 0) return;
  // Wrapped: slots of every earlier generation must read as unused again.
  std::fill(slots_.begin(), slots_.end(), Slot{});
  generation_ = 1;
}

CompositionEvaluator::BatchIndex::Found CompositionEvaluator::BatchIndex::find_or_insert(
    std::uint64_t key, std::uint32_t fresh) {
  if (2 * (std::size_t{size_} + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  // Fibonacci hashing: the top bits of key·2^64/φ spread the strided ids of
  // a torus walk.
  std::size_t h = (key * 0x9E3779B97F4A7C15ULL) >> shift_;
  for (; slots_[h].generation == generation_; h = (h + 1) & mask) {
    if (slots_[h].key == key) return {slots_[h].id, false};
  }
  slots_[h] = {key, fresh, generation_};
  ++size_;
  return {fresh, true};
}

void CompositionEvaluator::BatchIndex::grow() {
  const util::SmallVec<Slot, 32> old = slots_;
  const std::size_t capacity = std::max<std::size_t>(32, 2 * old.size());
  slots_.clear();
  slots_.resize(capacity);
  shift_ = 64 - std::countr_zero(capacity);
  for (const Slot& s : old) {
    if (s.generation != generation_) continue;
    std::size_t h = (s.key * 0x9E3779B97F4A7C15ULL) >> shift_;
    while (slots_[h].generation == generation_) h = (h + 1) & (capacity - 1);
    slots_[h] = s;
  }
}

CompositionEvaluator::Batch CompositionEvaluator::batch(const StateView& view, double now) {
  ACP_REQUIRE_MSG(view_ == nullptr, "an evaluation batch is already open");
  reset_batch();
  view_ = &view;
  now_ = now;
  return Batch(*this);
}

void CompositionEvaluator::reset_batch() {
  pair_index_.reset();
  link_index_.reset();
  node_index_.reset();
  pairs_.clear();
  walk_links_.clear();
  batch_links_.clear();
  node_avail_.clear();
}

void CompositionEvaluator::require_bound(const StateView& view, double now) const {
  ACP_REQUIRE_MSG(&view == view_ && now == now_,
                  "evaluation inside a batch bound to another view or time");
}

CompositionEvaluator::Pair& CompositionEvaluator::pair(NodeId a, NodeId b) {
  const auto p = pair_index_.find_or_insert((std::uint64_t{a} << 32) | b,
                                            static_cast<std::uint32_t>(pairs_.size()));
  if (p.inserted) pairs_.push_back({});
  return pairs_[p.id];
}

CompositionEvaluator::Walk CompositionEvaluator::walk(NodeId a, NodeId b) {
  Pair& p = pair(a, b);
  if (p.expanded) return p.walk;
  const auto begin = static_cast<std::uint32_t>(walk_links_.size());
  sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    const auto link =
        link_index_.find_or_insert(l, static_cast<std::uint32_t>(batch_links_.size()));
    if (link.inserted) batch_links_.push_back({l});
    walk_links_.push_back(link.id);
  });
  p.walk = {begin, static_cast<std::uint32_t>(walk_links_.size())};
  p.expanded = true;
  return p.walk;
}

double CompositionEvaluator::bottleneck(NodeId a, NodeId b) {
  Pair& p = pair(a, b);
  if (p.bounded) return p.bottleneck;
  double avail = std::numeric_limits<double>::infinity();
  sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    avail = std::min(avail, view_->link_available_kbps(l, now_));
  });
  p.bottleneck = avail;
  p.bounded = true;
  return avail;
}

double CompositionEvaluator::link_available(BatchLink& bl) {
  if (!bl.read) {
    bl.avail = view_->link_available_kbps(bl.link, now_);
    bl.read = true;
  }
  return bl.avail;
}

const ResourceVector& CompositionEvaluator::node_available(NodeId node) {
  const auto n = node_index_.find_or_insert(node, static_cast<std::uint32_t>(node_avail_.size()));
  if (n.inserted) node_avail_.push_back(view_->node_available(node, now_));
  return node_avail_[n.id];
}

std::optional<double> CompositionEvaluator::evaluate(const ComponentGraph& cg,
                                                     const FnPaths& paths,
                                                     const QoSVector& qos_req,
                                                     const PolicyConstraint& policy,
                                                     const StateView& view, double now) {
  if (view_ == nullptr) {
    const Batch one = batch(view, now);
    return evaluate(cg, paths, qos_req, policy, view, now);
  }
  require_bound(view, now);
  if (!cg.fully_assigned() || !cg.functions_match(*sys_) || !cg.interfaces_compatible(*sys_) ||
      !cg.satisfies_policy(*sys_, policy)) {
    return std::nullopt;
  }
  for (const auto& path : paths) {
    if (!cg.path_qos(*sys_, path).satisfies(qos_req)) return std::nullopt;
  }
  return phi_in_batch(cg.function_graph(), cg.assignment());
}

std::optional<double> CompositionEvaluator::phi(const FunctionGraph& fg,
                                                const std::vector<ComponentId>& assignment,
                                                const StateView& view, double now) {
  if (view_ == nullptr) {
    const Batch one = batch(view, now);
    return phi_in_batch(fg, assignment);
  }
  require_bound(view, now);
  return phi_in_batch(fg, assignment);
}

double CompositionEvaluator::node_term_bound(const ResourceVector& required, NodeId host) {
  ACP_REQUIRE_MSG(view_ != nullptr, "term bounds read through an open batch");
  const ResourceVector& avail = node_available(host);
  if (!required.fits_within(avail)) return std::numeric_limits<double>::infinity();
  return congestion_terms(required, avail - required);
}

double CompositionEvaluator::edge_term_bound(double kbps, NodeId a, NodeId b) {
  ACP_REQUIRE_MSG(view_ != nullptr, "term bounds read through an open batch");
  if (a == b) return 0.0;
  const double avail = bottleneck(a, b);
  if (kbps > avail) return std::numeric_limits<double>::infinity();
  return congestion_term(kbps, avail - kbps);
}

void CompositionEvaluator::aggregate(const FunctionGraph& fg,
                                     const std::vector<ComponentId>& assignment) {
  if (view_ == nullptr) reset_batch();  // a batch of one that reads no state
  accumulate(fg, assignment);
  links_.clear();
  for (const std::uint32_t id : link_ids_) {
    links_.push_back({batch_links_[id].link, batch_links_[id].kbps});
  }
}

void CompositionEvaluator::accumulate(const FunctionGraph& fg,
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
  // co-located edge has none. A batch link's first use by this candidate
  // stamps it and restarts its total from 0.0, and every use adds into that
  // total, so each link sums in (edge, walk) order.
  if (++stamp_ == 0) {
    // Wrapped: no batch link may still carry the new stamp.
    for (BatchLink& bl : batch_links_) bl.stamp = 0;
    stamp_ = 1;
  }
  link_ids_.clear();
  edge_walk_.resize(fg.edge_count());
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const NodeId a = sys_->component(assignment[fg.edge(e).from]).node;
    const NodeId b = sys_->component(assignment[fg.edge(e).to]).node;
    if (a == b) {
      edge_walk_[e] = {};
      continue;
    }
    const Walk w = walk(a, b);
    edge_walk_[e] = w;
    const double kbps = fg.edge(e).required_bandwidth_kbps;
    for (std::uint32_t pos = w.begin; pos < w.end; ++pos) {
      BatchLink& bl = batch_links_[walk_links_[pos]];
      if (bl.stamp != stamp_) {
        bl.stamp = stamp_;
        bl.kbps = 0.0;
        link_ids_.push_back(walk_links_[pos]);
      }
      bl.kbps += kbps;
    }
  }
}

std::optional<double> CompositionEvaluator::phi_in_batch(
    const FunctionGraph& fg, const std::vector<ComponentId>& assignment) {
  accumulate(fg, assignment);
  for (NodeDemand& n : nodes_) {
    const ResourceVector& avail = node_available(n.node);
    if (!n.demand.fits_within(avail)) return std::nullopt;
    n.residual = avail - n.demand;
  }
  for (const std::uint32_t id : link_ids_) {
    BatchLink& bl = batch_links_[id];
    const double avail = link_available(bl);
    if (bl.kbps > avail) return std::nullopt;
    bl.residual = avail - bl.kbps;
  }

  // Node terms: Σ_k r_k / (rr_k + r_k) per component, with the residual
  // left after the composition's whole demand on its node.
  double phi = 0.0;
  for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
    phi += congestion_terms(fg.node(i).required, nodes_[fn_slot_[i]].residual);
  }
  // Virtual-link terms: b / (rb + b), rb the bottleneck residual along the
  // virtual link; a co-located edge has an empty walk, rb = ∞ and no term.
  for (FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
    const Walk w = edge_walk_[e];
    if (w.begin == w.end) continue;
    double residual = std::numeric_limits<double>::infinity();
    for (std::uint32_t pos = w.begin; pos < w.end; ++pos) {
      residual = std::min(residual, batch_links_[walk_links_[pos]].residual);
    }
    phi += congestion_term(fg.edge(e).required_bandwidth_kbps, residual);
  }
  return phi;
}

}  // namespace acp::stream
