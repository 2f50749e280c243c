// Per-hop candidate component selection (paper Sec. 3.5).
//
// Given a partial composition that has reached `current_node` with
// accumulated QoS, and the set of candidates for the next-hop function, a
// node must decide which M = ceil(α·k) candidates to probe:
//
//   1. filter out unqualified candidates — stream-rate incompatibility, QoS
//      accumulation already violating Q^req (Eq. 6), insufficient node
//      resources (Eq. 7) or virtual-link bandwidth (Eq. 8);
//   2. rank the qualified ones by the risk function D(c) (Eq. 9); break
//      near-ties (|ΔD| ≤ eps) by the congestion function W(c) (Eq. 10);
//   3. keep the best M.
//
// Availability checks and W(c) read whatever StateView the algorithm is
// entitled to — ACP uses the coarse global state, making this exactly the
// paper's "select good candidates under the guidance of the coarse-grain
// global state". QoS (Eq. 6, D(c)) is static and read from the system.
// Steps 1 and 2 share one pass: the filter scores each qualified candidate
// from the values its checks read, and the ranking sorts those scores.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "stream/function_graph.h"
#include "stream/state_view.h"
#include "stream/system.h"
#include "util/rng.h"
#include "workload/request.h"

namespace acp::core {

/// Context for one hop decision.
struct HopContext {
  const stream::StreamSystem* sys = nullptr;
  const workload::Request* req = nullptr;
  /// Accumulated QoS along the path prefix (components + virtual links).
  stream::QoSVector accumulated;
  /// Node hosting the current (upstream) component; the candidate's virtual
  /// link is measured from here. Unset for the first hop (no upstream edge).
  stream::NodeId current_node = 0;
  bool has_upstream = false;
  /// Function of the current component (for rate-compatibility checks);
  /// ignored when !has_upstream.
  stream::FunctionId current_function = stream::kNoFunction;
  /// Function-graph node being filled.
  stream::FnNodeIndex next_fn = 0;
  /// Bandwidth demand of the fn-graph edge current→next (0 if !has_upstream).
  double edge_bw_kbps = 0.0;
  double now = 0.0;
};

/// Eq. 9 — risk: max over QoS dims of (accumulated + candidate + link) /
/// requirement. Lower is better; > 1 means the bound is already blown. QoS
/// is static, so no view is involved. The reference definition:
/// filter_qualified_into computes the same value from its Eq. 6 total.
double risk_function(const HopContext& ctx, stream::ComponentId candidate);

/// Eq. 10 — congestion: Σ_k r_k/(rr_k + r_k) + b/(rb + b) for the candidate
/// placement, on `view`'s (possibly coarse) availability. Lower is better.
/// The reference definition: filter_qualified_into computes the same value
/// from the availability its Eq. 7–8 checks read.
double congestion_function(const HopContext& ctx, const stream::StateView& view,
                           stream::ComponentId candidate);

/// Per-reason tally of candidates dropped by filter_qualified — feeds the
/// acp.probe.candidates_rejected{reason=...} metrics (obs subsystem).
struct HopFilterStats {
  std::size_t policy = 0;             ///< security/license constraint
  std::size_t rate_incompatible = 0;  ///< stream-rate mismatch with upstream
  std::size_t qos_bound = 0;          ///< Eq. 6 violated
  std::size_t node_resources = 0;     ///< Eq. 7 violated
  std::size_t link_bandwidth = 0;     ///< Eq. 8 violated

  std::size_t total() const {
    return policy + rate_incompatible + qos_bound + node_resources + link_bandwidth;
  }
};

/// A qualified candidate with its (D, W) scores.
struct ScoredCandidate {
  stream::ComponentId id;
  double risk;        ///< D(c), Eq. 9
  double congestion;  ///< W(c), Eq. 10
};

/// The per-hop filter-and-score pass. Appends every candidate that passes
/// the paper's per-hop qualification (rate compatibility + Eqs. 6–8)
/// against `view` to `out` (any push_back container of ScoredCandidate,
/// e.g. util::ArenaVector) in input order, scored from the Eq. 6 QoS total
/// and the node and virtual-link availability the Eq. 7–8 checks read:
/// each candidate's node and virtual link is read at most once, and the
/// scores equal risk_function and congestion_function on the same view
/// bit for bit. When `stats` is non-null, every dropped candidate is
/// attributed to the first check it failed (checks run in the order listed
/// in HopFilterStats).
template <typename OutVec>
void filter_qualified_into(const HopContext& ctx, const stream::StateView& view,
                           const std::vector<stream::ComponentId>& candidates, OutVec& out,
                           HopFilterStats* stats = nullptr);

/// The qualified ids of filter_qualified_into, in input order.
std::vector<stream::ComponentId> filter_qualified(const HopContext& ctx,
                                                  const stream::StateView& view,
                                                  const std::vector<stream::ComponentId>& candidates,
                                                  HopFilterStats* stats = nullptr);

/// Ranking rule for guided per-hop selection. The paper uses
/// kRiskThenCongestion; the others exist for the ranking ablation
/// (bench/ablation_selection).
enum class RankingPolicy {
  kRiskThenCongestion,  ///< D(c) first, W(c) within risk_eps (paper Sec. 3.5)
  kRiskOnly,            ///< D(c) only
  kCongestionOnly,      ///< W(c) only
};

/// Truncates `scored` (any random-access container of ScoredCandidate) to
/// its best `m` by (D, then W within `risk_eps`), in ranked order, reading
/// no view. Deterministic: ties beyond W break by component id. Leaves
/// `scored` untouched (in filter order) when it already fits.
template <typename ScoredVec>
void select_best_into(ScoredVec& scored, std::size_t m, double risk_eps,
                      RankingPolicy policy = RankingPolicy::kRiskThenCongestion);

/// Reference ranking: scores `qualified` with risk_function and
/// congestion_function on `view`, then keeps the best `m` exactly as
/// select_best_into does.
std::vector<stream::ComponentId> select_best(const HopContext& ctx, const stream::StateView& view,
                                             std::vector<stream::ComponentId> qualified,
                                             std::size_t m, double risk_eps,
                                             RankingPolicy policy = RankingPolicy::kRiskThenCongestion);

/// Uniformly random `m` of `qualified` (the RP baseline's per-hop rule).
std::vector<stream::ComponentId> select_random(std::vector<stream::ComponentId> qualified,
                                               std::size_t m, util::Rng& rng);

/// In-place variant of select_random: identical RNG draw sequence (the
/// Fisher–Yates draws depend only on size()), so swapping container types
/// preserves run determinism.
template <typename Vec>
void select_random_into(Vec& qualified, std::size_t m, util::Rng& rng) {
  if (qualified.size() <= m) return;
  rng.shuffle(qualified);
  qualified.resize(m);
}

/// Number of candidates to probe for a function with `k` candidates at
/// probing ratio `alpha`: M = ceil(α·k), at least 1 when k > 0.
std::size_t probe_count(std::size_t k, double alpha);

// ---- Template implementations (shared by the std::vector wrappers in
// candidate_selection.cpp, the arena-backed hot path in probing.cpp and the
// search walks in search.cpp).

template <typename OutVec>
void filter_qualified_into(const HopContext& ctx, const stream::StateView& view,
                           const std::vector<stream::ComponentId>& candidates, OutVec& out,
                           HopFilterStats* stats) {
  HopFilterStats local;
  const stream::ResourceVector& required = ctx.req->graph.node(ctx.next_fn).required;
  for (stream::ComponentId c : candidates) {
    const stream::Component& cand = ctx.sys->component(c);

    // Security/license policy (extension: paper Sec. 6 constraints).
    if (!ctx.req->policy.admits(ctx.sys->component_attributes(c))) {
      ++local.policy;
      continue;
    }

    // Input/output stream-rate compatibility with the upstream component.
    if (ctx.has_upstream && !ctx.sys->catalog().compatible(ctx.current_function, cand.function)) {
      ++local.rate_incompatible;
      continue;
    }

    // Eq. 6: QoS accumulation must stay within the requirement.
    stream::QoSVector total = ctx.accumulated;
    total += cand.qos;
    if (ctx.has_upstream) total += ctx.sys->virtual_link_qos(ctx.current_node, cand.node);
    if (!total.satisfies(ctx.req->qos_req)) {
      ++local.qos_bound;
      continue;
    }

    // Eq. 7: candidate node must have the end-system resources.
    const stream::ResourceVector avail = view.node_available(cand.node, ctx.now);
    if (!required.fits_within(avail)) {
      ++local.node_resources;
      continue;
    }
    double congestion = stream::congestion_terms(required, avail - required);

    // Eq. 8: the virtual link to the candidate must carry the edge's
    // bandwidth (co-location trivially passes).
    if (ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0) {
      const double ba =
          view.virtual_link_available_kbps(ctx.sys->mesh(), ctx.current_node, cand.node, ctx.now);
      if (ctx.edge_bw_kbps > ba) {
        ++local.link_bandwidth;
        continue;
      }
      congestion += stream::congestion_term(ctx.edge_bw_kbps, ba - ctx.edge_bw_kbps);
    }

    out.push_back(ScoredCandidate{c, total.max_ratio(ctx.req->qos_req), congestion});
  }
  if (stats != nullptr) *stats = local;
}

template <typename ScoredVec>
void select_best_into(ScoredVec& scored, std::size_t m, double risk_eps, RankingPolicy policy) {
  ACP_REQUIRE(risk_eps >= 0.0);
  if (scored.size() <= m) return;
  std::sort(scored.begin(), scored.end(), [&](const ScoredCandidate& a, const ScoredCandidate& b) {
    switch (policy) {
      case RankingPolicy::kRiskOnly:
        if (a.risk != b.risk) return a.risk < b.risk;
        break;
      case RankingPolicy::kCongestionOnly:
        if (a.congestion != b.congestion) return a.congestion < b.congestion;
        break;
      case RankingPolicy::kRiskThenCongestion:
        // Similar risk ⇒ compare load; otherwise smaller risk wins.
        if (std::abs(a.risk - b.risk) > risk_eps) return a.risk < b.risk;
        if (a.congestion != b.congestion) return a.congestion < b.congestion;
        break;
    }
    return a.id < b.id;
  });
  scored.resize(m);
}

}  // namespace acp::core
