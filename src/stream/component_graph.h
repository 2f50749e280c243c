// ComponentGraph — a composed stream processing application λ = (C, L) —
// and CompositionEvaluator, the one implementation of the paper's
// composition evaluation.
//
// A ComponentGraph maps every node of a FunctionGraph to a concrete
// component; virtual links are implied by the chosen components' host
// nodes (delay-shortest overlay paths). The evaluator scores it:
//
//   * accumulated QoS along each source→sink path (Eq. 3 check)
//   * residual-resource feasibility (Eq. 4, 5)
//   * the congestion aggregation metric φ(λ) (Eq. 1), co-location aware
//     (footnotes 4, 5, 8)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stream/component.h"
#include "stream/function_graph.h"
#include "stream/state_view.h"
#include "stream/system.h"
#include "util/small_vec.h"

namespace acp::stream {

/// A request's source→sink paths (FunctionGraph::enumerate_paths), built
/// once per request and shared by every evaluation of its candidates.
using FnPaths = std::vector<std::vector<FnNodeIndex>>;

class ComponentGraph {
 public:
  /// An unassigned graph over `fg`; the graph must outlive this object.
  explicit ComponentGraph(const FunctionGraph& fg);

  const FunctionGraph& function_graph() const { return *fg_; }

  /// Assigns function node `fn` to component `c` (must provide fn's
  /// function; checked against `sys` on evaluation, not here).
  void assign(FnNodeIndex fn, ComponentId c);

  bool is_assigned(FnNodeIndex fn) const;
  bool fully_assigned() const;
  ComponentId component_at(FnNodeIndex fn) const;

  /// Component per function node (kNoComponent where unassigned).
  const std::vector<ComponentId>& assignment() const { return assignment_; }

  /// Distinct components in the composition (Eq. 2 requires one per fn).
  std::vector<ComponentId> components() const;

  // ---- Constraint checks (all read-only) -----------------------------------

  /// Eq. 2: every assigned component provides the requested function.
  bool functions_match(const StreamSystem& sys) const;

  /// Interface compatibility: along every dependency edge, the upstream
  /// function's output format feeds the downstream function's input format
  /// (the paper's input/output stream-rate compatibility check). A property
  /// of the function graph; template-generated requests satisfy it by
  /// construction.
  bool interfaces_compatible(const StreamSystem& sys) const;

  /// Accumulated QoS of one source→sink path (components + virtual links).
  QoSVector path_qos(const StreamSystem& sys, const std::vector<FnNodeIndex>& path) const;

  /// Every assigned component satisfies the request's security/license
  /// policy (extension: paper Sec. 6 future-work constraints).
  bool satisfies_policy(const StreamSystem& sys, const PolicyConstraint& policy) const;

  /// Eqs. 2–5 plus the policy constraint. A one-shot convenience that
  /// enumerates the paths and builds an evaluator per call; code that
  /// evaluates many candidates holds a CompositionEvaluator instead.
  bool qualified(const StreamSystem& sys, const StateView& view, const QoSVector& qos_req,
                 const PolicyConstraint& policy, double now) const;

  bool operator==(const ComponentGraph& o) const { return assignment_ == o.assignment_; }

  std::string to_string(const StreamSystem& sys) const;

 private:
  const FunctionGraph* fg_;
  std::vector<ComponentId> assignment_;  ///< per fn node; kNoComponent if unset
};

/// The one implementation of composition evaluation (paper Sec. 3.3 step 3,
/// the deputy's optimal-composition selection). phi() aggregates a full
/// assignment's node and overlay-link demand once, checks Eqs. 4–5 and
/// returns φ(λ), or nullopt when infeasible; evaluate() first checks Eq. 2,
/// interface compatibility, the policy and Eq. 3 against the request's
/// paths.
///
/// Summation order is part of the contract, so φ is bit-reproducible: a
/// node's demand sums in fn order, a link's demand in (edge, walk) order,
/// and φ adds node terms in fn order, then link terms in edge order.
/// Per-link demand is aggregated through a small open-addressing table from
/// overlay link to its slot, not a scan per use: a torus virtual link spans
/// dozens of overlay links.
///
/// The buffers are reused across calls and hold a typical composition
/// inline, so evaluating allocates nothing in steady state. The owner (a
/// protocol instance, one search call) must not share an evaluator between
/// threads.
class CompositionEvaluator {
 public:
  struct NodeDemand {
    NodeId node;
    ResourceVector demand;    ///< the composition's total on this node
    ResourceVector residual;  ///< available − demand (set by phi())
  };
  struct LinkDemand {
    net::OverlayLinkIndex link;
    double kbps;              ///< the composition's total on this link
    double residual = 0.0;    ///< available − kbps (set by phi())
  };

  explicit CompositionEvaluator(const StreamSystem& sys) : sys_(&sys) {}

  /// Eqs. 2–5 and the policy against `view`, then φ(λ); nullopt when any
  /// check fails. `paths` are cg's request's source→sink paths.
  std::optional<double> evaluate(const ComponentGraph& cg, const FnPaths& paths,
                                 const QoSVector& qos_req, const PolicyConstraint& policy,
                                 const StateView& view, double now);

  /// Eqs. 4–5 and Eq. 1 for a full assignment (one component per fn node):
  /// residuals account for the composition's entire demand on each node
  /// and link (footnote 5); co-located neighbors add no bandwidth term
  /// (footnote 8). Returns φ(λ), or nullopt when some node or link lacks
  /// the capacity.
  std::optional<double> phi(const FunctionGraph& fg, const std::vector<ComponentId>& assignment,
                            const StateView& view, double now);

  /// Aggregates the assignment's demand without reading any state:
  /// node_demand() lists each host once, link_demand() each overlay link
  /// once, both in first-use order.
  void aggregate(const FunctionGraph& fg, const std::vector<ComponentId>& assignment);

  std::span<const NodeDemand> node_demand() const { return {nodes_.data(), nodes_.size()}; }
  std::span<const LinkDemand> link_demand() const { return {links_.data(), links_.size()}; }

 private:
  /// Inline capacities: fn nodes/edges of the largest template, and the
  /// overlay-link uses of a paper-scale (Inet) composition.
  static constexpr std::size_t kInlineFns = 16;
  static constexpr std::size_t kInlineUses = 64;
  template <typename T>
  using FnVec = util::SmallVec<T, kInlineFns>;
  template <typename T>
  using UseVec = util::SmallVec<T, kInlineUses>;

  const StreamSystem* sys_;
  FnVec<NodeDemand> nodes_;
  UseVec<LinkDemand> links_;
  FnVec<std::uint32_t> fn_slot_;    ///< fn node → index in nodes_
  FnVec<std::uint32_t> edge_end_;   ///< edge → one past its last use position
  UseVec<std::uint32_t> use_slot_;  ///< use position → index in links_
  /// Overlay link → index in links_, as (link << 32 | index) entries with
  /// linear probing. Each aggregate() clears and uses only a power-of-two
  /// prefix of at least twice the composition's link uses (Σ hops over its
  /// non-co-located edges).
  UseVec<std::uint64_t> link_table_;
};

}  // namespace acp::stream
