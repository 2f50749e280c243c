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
/// node's demand sums in fn order, a link's demand in (edge, walk) order
/// from 0.0, and φ adds node terms in fn order, then link terms in edge
/// order.
///
/// Every evaluation runs in an evaluation batch bound to one (StateView,
/// now). batch() opens one explicitly, for scoring many candidates against
/// the same unchanging state; a phi() or evaluate() outside one is a batch
/// of one, and aggregate() outside one is a batch that reads no state.
/// Within a batch:
///   * each distinct (a, b) host pair's walk is expanded once, into
///     batch-local link ids, the first time a candidate's φ needs it;
///   * each pair's bottleneck is read once, straight from the view, by the
///     first term bound that needs it; a bound never expands a pair;
///   * φ reads each node's and each expanded overlay link's availability
///     from the view at most once, when a candidate first needs it;
///   * a candidate's link demand adds into a dense batch-local accumulator
///     that a per-candidate stamp resets.
/// The memo answers every later read, so open a batch only over a view
/// whose reads have no side effects (RequestScopedView, TrueView,
/// WhatIfView) and only while the state it reads stays unchanged.
///
/// The batch's indexes are sized by the links and hosts the batch touches,
/// not by the world, and are reset by a generation bump, not cleared. The
/// owner (a protocol instance, one search call) must not share an
/// evaluator between threads.
class CompositionEvaluator {
 public:
  struct NodeDemand {
    NodeId node;
    ResourceVector demand;    ///< the composition's total on this node
    ResourceVector residual;  ///< available − demand (set by phi())
  };
  struct LinkDemand {
    net::OverlayLinkIndex link;
    double kbps;  ///< the composition's total on this link
  };

  /// An open evaluation batch; closing it (on destruction, on every path)
  /// lets the evaluator bind the next batch to another view or time.
  class [[nodiscard]] Batch {
   public:
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch() { eval_->view_ = nullptr; }

   private:
    friend class CompositionEvaluator;
    explicit Batch(CompositionEvaluator& eval) : eval_(&eval) {}
    CompositionEvaluator* eval_;
  };

  explicit CompositionEvaluator(const StreamSystem& sys) : sys_(&sys) {}

  const StreamSystem& system() const { return *sys_; }

  /// Opens a batch bound to (view, now): until it closes, every phi() and
  /// evaluate() must pass this view and this time (ACP_REQUIRE). At most
  /// one batch is open per evaluator.
  Batch batch(const StateView& view, double now);

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

  /// Lower bounds on single terms of φ(λ), read through the open batch (a
  /// batch must be open): the term a fn node demanding `required` adds on
  /// `host`, and the term an edge of `kbps` adds between hosts `a` and `b`,
  /// each as if the composition put nothing else there. A composition's
  /// demand on a node or link includes each such share, so each bound is ≤
  /// the term φ sums for it, bit for bit (every step is monotone in the
  /// residual). +∞ when that share alone does not fit: no composition
  /// using it passes Eqs. 4–5. 0 for a co-located edge.
  double node_term_bound(const ResourceVector& required, NodeId host);
  double edge_term_bound(double kbps, NodeId a, NodeId b);

  /// Aggregates the assignment's demand without reading any state:
  /// node_demand() lists each host once, link_demand() each overlay link
  /// once, both in first-use order, until the next aggregate(), phi() or
  /// evaluate().
  void aggregate(const FunctionGraph& fg, const std::vector<ComponentId>& assignment);

  std::span<const NodeDemand> node_demand() const { return {nodes_.data(), nodes_.size()}; }
  std::span<const LinkDemand> link_demand() const { return {links_.data(), links_.size()}; }

 private:
  /// Open addressing from a 64-bit key to a batch-local id, reset in O(1):
  /// a slot belongs to the current batch only when it carries the current
  /// generation. Capacity doubles past half load and is never cleared; a
  /// paper-scale batch fits the inline slots, so a fresh evaluator (one per
  /// search call) allocates nothing for it.
  class BatchIndex {
   public:
    struct Found {
      std::uint32_t id;
      bool inserted;
    };
    void reset();
    /// The id of `key`, or `fresh` after inserting `key` with it.
    Found find_or_insert(std::uint64_t key, std::uint32_t fresh);

   private:
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t id = 0;
      std::uint32_t generation = 0;  ///< 0: never used
    };
    void grow();
    util::SmallVec<Slot, 32> slots_;
    int shift_ = 64;  ///< 64 − log2(capacity), set when the table first grows
    std::uint32_t size_ = 0;
    std::uint32_t generation_ = 1;
  };

  /// An overlay link the batch has walked.
  struct BatchLink {
    net::OverlayLinkIndex link;
    std::uint32_t stamp = 0;  ///< the last candidate that used it
    double kbps = 0.0;        ///< that candidate's total on it
    double residual = 0.0;    ///< avail − kbps (set by phi())
    double avail = 0.0;
    bool read = false;        ///< avail holds the view's availability
  };
  /// A host pair's walk: [begin, end) in walk_links_.
  struct Walk {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  /// A host pair the batch has met: its walk once a φ expanded it, its
  /// bottleneck availability once a bound read it.
  struct Pair {
    Walk walk;
    bool expanded = false;
    bool bounded = false;
    double bottleneck = 0.0;
  };

  /// Inline capacities: fn nodes/edges of the largest template, and the
  /// overlay links of a paper-scale (Inet) composition.
  static constexpr std::size_t kInlineFns = 16;
  static constexpr std::size_t kInlineLinks = 64;
  template <typename T>
  using FnVec = util::SmallVec<T, kInlineFns>;
  template <typename T>
  using LinkVec = util::SmallVec<T, kInlineLinks>;

  void reset_batch();
  void require_bound(const StateView& view, double now) const;
  void accumulate(const FunctionGraph& fg, const std::vector<ComponentId>& assignment);
  /// The batch's entry for the host pair a→b.
  Pair& pair(NodeId a, NodeId b);
  /// a→b's walk, expanded into batch link ids on first use.
  Walk walk(NodeId a, NodeId b);
  /// The least availability along a→b (a ≠ b), memoized per pair.
  double bottleneck(NodeId a, NodeId b);
  const ResourceVector& node_available(NodeId node);
  /// `bl`'s availability, read from the view on its first use in the batch.
  double link_available(BatchLink& bl);
  std::optional<double> phi_in_batch(const FunctionGraph& fg,
                                     const std::vector<ComponentId>& assignment);

  const StreamSystem* sys_;

  // The candidate last accumulated; links_ only when aggregate() listed it.
  FnVec<NodeDemand> nodes_;
  LinkVec<LinkDemand> links_;
  LinkVec<std::uint32_t> link_ids_;  ///< its batch links in first-use order
  FnVec<std::uint32_t> fn_slot_;     ///< fn node → index in nodes_
  FnVec<Walk> edge_walk_;            ///< edge → its walk; empty when co-located
  std::uint32_t stamp_ = 0;          ///< marks the batch links the candidate uses

  // The open batch, or the last one; view_ is null when none is open.
  const StateView* view_ = nullptr;
  double now_ = 0.0;
  BatchIndex pair_index_;  ///< (a << 32 | b) → index in pairs_
  BatchIndex link_index_;  ///< overlay link → index in batch_links_
  BatchIndex node_index_;  ///< node → index in node_avail_
  LinkVec<Pair> pairs_;
  LinkVec<std::uint32_t> walk_links_;  ///< batch link ids, walk after walk
  LinkVec<BatchLink> batch_links_;
  FnVec<ResourceVector> node_avail_;
};

}  // namespace acp::stream
