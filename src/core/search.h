// Synchronous composition search.
//
// Three users:
//   * the Optimal baseline — exhaustive enumeration with feasibility pruning
//     (the paper's brute-force comparator with exponential probing cost);
//   * the Random / Static baselines — single-shot assignments;
//   * the probing-ratio tuner — replaying last period's request trace
//     against a what-if state requires running ACP's *decision logic*
//     synchronously (guided beam search) without the event-driven protocol.
//
// All searches operate per source→sink path and merge per-path assignments
// that agree on shared function nodes — the same merge the deputy performs
// on returned probes (paper Sec. 3.3 step 3).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/candidate_selection.h"
#include "stream/component_graph.h"
#include "util/rng.h"
#include "util/small_vec.h"

namespace acp::core {

struct SearchStats {
  std::size_t examined = 0;   ///< complete compositions evaluated
  std::size_t qualified = 0;  ///< of those, how many passed Eqs. 2–5
};

/// Per-path partial assignment used by both searches and by the probing
/// protocol's finalization.
struct PathAssignment {
  /// Component chosen for each node of the path (aligned with the path's
  /// node-index sequence). Inline storage covers every template in the
  /// catalog (at most 5 functions per path), so a returned probe's copy
  /// never allocates.
  util::SmallVec<stream::ComponentId, 8> components;
  /// QoS accumulated along the path, as collected during the walk.
  stream::QoSVector accumulated;
};

/// Merges per-path assignments into complete ComponentGraphs. Assignments
/// are combined across paths only when they agree on every shared function
/// node (e.g. a DAG's split and merge nodes). At most `cap` graphs are
/// produced; `cap_hit` reports truncation.
std::vector<stream::ComponentGraph> merge_path_assignments(
    const stream::FunctionGraph& fg, const std::vector<std::vector<stream::FnNodeIndex>>& paths,
    const std::vector<std::vector<PathAssignment>>& per_path, std::size_t cap, bool* cap_hit);

/// The deputy's qualification step (paper Sec. 3.3 step 3) for selections
/// that need every qualified candidate (SP's random draw, the sharded
/// barrier's fallback ranking, graphs of more than two paths): evaluates
/// each merged candidate once with `eval` against `view`, all in one
/// evaluation batch (so `view` must read without side effects), and returns
/// the qualified ones as (φ(λ), index) pairs in index order. Sorting them
/// gives the (φ, index) ranking, whose head is the first strict φ minimum.
std::vector<std::pair<double, std::size_t>> score_qualified(
    stream::CompositionEvaluator& eval, const workload::Request& req,
    const stream::FnPaths& paths, const std::vector<stream::ComponentGraph>& graphs,
    const stream::StateView& view, double now);

/// What a BestPhiJoin run found.
struct JoinBest {
  /// The winner, or nullopt when no merged candidate qualifies.
  std::optional<stream::ComponentGraph> graph;
  double phi = 0.0;           ///< the winner's φ(λ)
  std::size_t index = 0;      ///< the winner's position in the merge order
  std::size_t merged = 0;     ///< merge_path_assignments' result size
  std::size_t evaluated = 0;  ///< candidates evaluated
  std::size_t qualified = 0;  ///< of those, how many qualified
  bool cap_hit = false;       ///< merge_path_assignments' cap_hit
};

/// The min-φ selection over merged candidates (paper Sec. 3.3 step 3)
/// without materializing the merge: the head of score_qualified's (φ,
/// index) ranking over merge_path_assignments(paths, per_path, cap), ties
/// and caps included, for one or two paths.
///
/// It buckets the paths' complete assignments by their components at the
/// shared (split/merge) nodes, bounds each assignment's share of φ through
/// the evaluation batch (node_term_bound / edge_term_bound; path 0 counts
/// all its nodes and edges, path 1 only those path 0 lacks, so each fn node
/// and edge is counted once on any DAG), and evaluates merged candidates in
/// ascending (bound, index) order until the next bound exceeds the best φ
/// by a relative 1e-9. A bound summed in another order can exceed its
/// candidate's φ by a few ulps, never by that much, so every candidate that
/// could tie or beat the best is evaluated, and ties go to the lower merge
/// index. It builds one ComponentGraph per run. The owner keeps one join
/// and reuses its buffers; `eval` must have no batch open.
class BestPhiJoin {
 public:
  /// Which checks a candidate must pass besides Eqs. 4–5.
  enum class Checks {
    /// evaluate(): Eq. 2, interfaces, policy and Eq. 3 on every path.
    kFull,
    /// phi() only: every path assignment already passed Eq. 2, interfaces,
    /// policy and Eq. 3 on its own walk (exhaustive_best).
    kWalked,
  };

  JoinBest run(stream::CompositionEvaluator& eval, const workload::Request& req,
               const stream::FnPaths& paths,
               const std::vector<std::vector<PathAssignment>>& per_path, std::size_t cap,
               const stream::StateView& view, double now, Checks checks = Checks::kFull);

 private:
  /// A complete path assignment. Path 0: `order` is the merge index of its
  /// first candidate, `bucket` its partners'. Path 1: `order` is its
  /// position within its bucket.
  struct Entry {
    const PathAssignment* pa = nullptr;
    double bound = 0.0;
    std::size_t order = 0;
    std::uint32_t bucket = 0;
  };
  /// Path 1's assignments sharing one key: [begin, end) in cols_.
  struct Bucket {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool bounded = false;
  };
  /// Rows (path 0, in rows_) × columns (path 1, in lane_cols_), each sorted
  /// by (bound, order); every pair is a merged candidate.
  struct Lane {
    std::uint32_t row_begin = 0;
    std::uint32_t row_end = 0;
    std::uint32_t col_begin = 0;
    std::uint32_t col_end = 0;
  };
  /// A candidate waiting in the best-first frontier.
  struct Next {
    double bound = 0.0;
    std::size_t index = 0;
    std::uint32_t lane = 0;
    std::uint32_t row = 0;
    std::uint32_t col = 0;
  };
  /// A term of φ a path's bound counts: the fn node at path position
  /// `pos`, or the edge from `pos` to `pos + 1`.
  struct Term {
    std::uint32_t pos = 0;
    std::uint32_t index = 0;  ///< FnNodeIndex or FnEdgeIndex
  };

  /// Finds the shared nodes and the terms each path's bound counts; false
  /// when the paths leave some fn node unassigned.
  bool plan(const stream::FunctionGraph& fg, const stream::FnPaths& paths);
  double bound(stream::CompositionEvaluator& eval, const stream::FunctionGraph& fg,
               std::size_t p, const PathAssignment& pa) const;
  /// <0, 0, >0 as x's components at the shared nodes (x on path px) order
  /// before, equal or after y's.
  int compare_key(const PathAssignment& x, std::size_t px, const PathAssignment& y,
                  std::size_t py) const;
  /// Adds the lane of rows_[row_begin, row_end) and the bucket's columns of
  /// finite bound among its first `limit`, and queues its first candidate.
  void add_lane(std::uint32_t row_begin, std::uint32_t row_end, const Bucket& bucket,
                std::size_t limit);
  void push(std::uint32_t lane, std::uint32_t row, std::uint32_t col);
  /// The frontier's heap order: a min-heap on (bound, index).
  static bool later(const Next& x, const Next& y);

  util::SmallVec<std::uint32_t, 8> shared_[2];  ///< shared nodes' positions on each path
  util::SmallVec<Term, 16> own_nodes_[2];
  util::SmallVec<Term, 16> own_edges_[2];
  std::vector<Entry> rows_;
  std::vector<Entry> cols_;
  std::vector<Entry> lane_cols_;
  std::vector<Bucket> buckets_;
  std::vector<Lane> lanes_;
  std::vector<Next> frontier_;
};

/// Exhaustive search: every combination of candidates (per-path DFS with
/// Eq. 6–8 pruning, then cross-path merge), evaluated against `view` in one
/// evaluation batch; returns the qualified composition minimizing φ(λ), or
/// nullopt.
std::optional<stream::ComponentGraph> exhaustive_best(const stream::StreamSystem& sys,
                                                      const workload::Request& req,
                                                      const stream::StateView& view, double now,
                                                      SearchStats* stats = nullptr,
                                                      std::size_t combo_cap = 200'000);

/// The number of probe messages brute-force exhaustive probing would send
/// for this request: Σ over paths, Σ over levels i of Π_{j<=i} k_j, where
/// k_j is the candidate count of the j-th function on the path. This is the
/// paper's overhead accounting for the Optimal algorithm and is independent
/// of any internal pruning we use to keep CPU time reasonable.
std::uint64_t exhaustive_probe_count(const stream::StreamSystem& sys,
                                     const workload::Request& req);

/// Uniform random candidate for every function node (the Random baseline);
/// nullopt when some function has no candidates at all.
std::optional<stream::ComponentGraph> random_assignment(const stream::StreamSystem& sys,
                                                        const workload::Request& req,
                                                        util::Rng& rng);

/// Fixed (lowest-id) candidate for every function node (the Static
/// baseline); nullopt when some function has no candidates.
std::optional<stream::ComponentGraph> static_assignment(const stream::StreamSystem& sys,
                                                        const workload::Request& req);

/// Guided beam search replicating ACP's per-hop decisions synchronously:
/// at each hop keep the best M = ceil(α·k) qualified continuations ranked
/// by (D, W) on `decision_view` (the coarse state), then merge paths and
/// return the qualified composition minimizing φ on `eval_view` (the
/// precise state). `beam_cap` bounds partials per level, mirroring the
/// probing protocol's per-request probe cap.
std::optional<stream::ComponentGraph> guided_search(const stream::StreamSystem& sys,
                                                    const workload::Request& req, double alpha,
                                                    const stream::StateView& decision_view,
                                                    const stream::StateView& eval_view, double now,
                                                    double risk_eps = 0.05,
                                                    SearchStats* stats = nullptr,
                                                    std::size_t beam_cap = 256);

}  // namespace acp::core
