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

namespace acp::core {

struct SearchStats {
  std::size_t examined = 0;   ///< complete compositions evaluated
  std::size_t qualified = 0;  ///< of those, how many passed Eqs. 2–5
};

/// Per-path partial assignment used by both searches and by the probing
/// protocol's finalization.
struct PathAssignment {
  /// Component chosen for each node of the path (aligned with the path's
  /// node-index sequence).
  std::vector<stream::ComponentId> components;
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

/// The deputy's qualification step (paper Sec. 3.3 step 3), shared by every
/// min-φ selection: evaluates each merged candidate once with `eval`
/// against `view`, all in one evaluation batch (so `view` must read without
/// side effects), and returns the qualified ones as (φ(λ), index) pairs in
/// index order. Sorting them gives the (φ, index) ranking, whose head is
/// the first strict φ minimum.
std::vector<std::pair<double, std::size_t>> score_qualified(
    stream::CompositionEvaluator& eval, const workload::Request& req,
    const stream::FnPaths& paths, const std::vector<stream::ComponentGraph>& graphs,
    const stream::StateView& view, double now);

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
