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
/// is static, so no view is involved.
double risk_function(const HopContext& ctx, stream::ComponentId candidate);

/// Eq. 10 — congestion: Σ_k r_k/(rr_k + r_k) + b/(rb + b) for the candidate
/// placement, on `view`'s (possibly coarse) availability. Lower is better.
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

/// Filters `candidates` by the paper's per-hop qualification (rate
/// compatibility + Eqs. 6–8) against `view`. When `stats` is non-null,
/// every dropped candidate is attributed to the first check it failed
/// (checks run in the order listed in HopFilterStats).
std::vector<stream::ComponentId> filter_qualified(const HopContext& ctx,
                                                  const stream::StateView& view,
                                                  const std::vector<stream::ComponentId>& candidates,
                                                  HopFilterStats* stats = nullptr);

/// Allocation-free variant: appends qualified candidates to `out` (any
/// push_back container, e.g. util::ArenaVector) in input order — identical
/// output to filter_qualified. The probing hot path feeds this from a
/// per-trial arena so a hop costs zero allocator calls.
template <typename OutVec>
void filter_qualified_into(const HopContext& ctx, const stream::StateView& view,
                           const std::vector<stream::ComponentId>& candidates, OutVec& out,
                           HopFilterStats* stats = nullptr);

/// A candidate with its (D, W) scores — select_best's sorting scratch,
/// public so arena callers can supply the scratch container themselves.
struct ScoredCandidate {
  stream::ComponentId id;
  double risk;
  double congestion;
};

/// Ranking rule for guided per-hop selection. The paper uses
/// kRiskThenCongestion; the others exist for the ranking ablation
/// (bench/ablation_selection).
enum class RankingPolicy {
  kRiskThenCongestion,  ///< D(c) first, W(c) within risk_eps (paper Sec. 3.5)
  kRiskOnly,            ///< D(c) only
  kCongestionOnly,      ///< W(c) only
};

/// Keeps the best `m` of `qualified` by (D, then W within `risk_eps`).
/// Deterministic: ties beyond W break by component id.
std::vector<stream::ComponentId> select_best(const HopContext& ctx, const stream::StateView& view,
                                             std::vector<stream::ComponentId> qualified,
                                             std::size_t m, double risk_eps,
                                             RankingPolicy policy = RankingPolicy::kRiskThenCongestion);

/// In-place variant: truncates `qualified` (any random-access container) to
/// the best m using caller-supplied `scored` scratch — same ranking, same
/// ties, same result order as select_best, no allocation when the scratch
/// comes from an arena. Leaves `qualified` untouched when it already fits.
template <typename Vec, typename ScoredVec>
void select_best_into(const HopContext& ctx, const stream::StateView& view, Vec& qualified,
                      std::size_t m, double risk_eps, RankingPolicy policy, ScoredVec& scored);

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
// candidate_selection.cpp and the arena-backed hot path in probing.cpp).

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
    if (!required.fits_within(view.node_available(cand.node, ctx.now))) {
      ++local.node_resources;
      continue;
    }

    // Eq. 8: the virtual link to the candidate must carry the edge's
    // bandwidth (co-location trivially passes).
    if (ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0) {
      const double ba =
          view.virtual_link_available_kbps(ctx.sys->mesh(), ctx.current_node, cand.node, ctx.now);
      if (ctx.edge_bw_kbps > ba) {
        ++local.link_bandwidth;
        continue;
      }
    }

    out.push_back(c);
  }
  if (stats != nullptr) *stats = local;
}

template <typename Vec, typename ScoredVec>
void select_best_into(const HopContext& ctx, const stream::StateView& view, Vec& qualified,
                      std::size_t m, double risk_eps, RankingPolicy policy, ScoredVec& scored) {
  ACP_REQUIRE(risk_eps >= 0.0);
  if (qualified.size() <= m) return;

  scored.clear();
  scored.reserve(qualified.size());
  for (stream::ComponentId c : qualified) {
    scored.push_back(
        ScoredCandidate{c, risk_function(ctx, c), congestion_function(ctx, view, c)});
  }
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

  qualified.resize(m);
  for (std::size_t i = 0; i < m; ++i) qualified[i] = scored[i].id;
}

}  // namespace acp::core
