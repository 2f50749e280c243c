#include "core/candidate_selection.h"

#include <algorithm>
#include <cmath>

namespace acp::core {

double risk_function(const HopContext& ctx, stream::ComponentId candidate) {
  const stream::Component& cand = ctx.sys->component(candidate);
  stream::QoSVector total = ctx.accumulated;
  total += cand.qos;
  if (ctx.has_upstream) total += ctx.sys->virtual_link_qos(ctx.current_node, cand.node);
  return total.max_ratio(ctx.req->qos_req);
}

double congestion_function(const HopContext& ctx, const stream::StateView& view,
                           stream::ComponentId candidate) {
  const stream::Component& cand = ctx.sys->component(candidate);
  const stream::ResourceVector& required = ctx.req->graph.node(ctx.next_fn).required;
  const stream::ResourceVector avail = view.node_available(cand.node, ctx.now);
  double w = stream::congestion_terms(required, avail - required);
  if (ctx.has_upstream && ctx.current_node != cand.node && ctx.edge_bw_kbps > 0.0) {
    const double ba =
        view.virtual_link_available_kbps(ctx.sys->mesh(), ctx.current_node, cand.node, ctx.now);
    w += stream::congestion_term(ctx.edge_bw_kbps, ba - ctx.edge_bw_kbps);
  }
  return w;
}

std::vector<stream::ComponentId> filter_qualified(
    const HopContext& ctx, const stream::StateView& view,
    const std::vector<stream::ComponentId>& candidates, HopFilterStats* stats) {
  std::vector<ScoredCandidate> scored;
  scored.reserve(candidates.size());
  filter_qualified_into(ctx, view, candidates, scored, stats);
  std::vector<stream::ComponentId> out;
  out.reserve(scored.size());
  for (const ScoredCandidate& s : scored) out.push_back(s.id);
  return out;
}

std::vector<stream::ComponentId> select_best(const HopContext& ctx, const stream::StateView& view,
                                             std::vector<stream::ComponentId> qualified,
                                             std::size_t m, double risk_eps,
                                             RankingPolicy policy) {
  if (qualified.size() <= m) return qualified;
  std::vector<ScoredCandidate> scored;
  scored.reserve(qualified.size());
  for (stream::ComponentId c : qualified) {
    scored.push_back(
        ScoredCandidate{c, risk_function(ctx, c), congestion_function(ctx, view, c)});
  }
  select_best_into(scored, m, risk_eps, policy);
  qualified.resize(scored.size());
  for (std::size_t i = 0; i < scored.size(); ++i) qualified[i] = scored[i].id;
  return qualified;
}

std::vector<stream::ComponentId> select_random(std::vector<stream::ComponentId> qualified,
                                               std::size_t m, util::Rng& rng) {
  select_random_into(qualified, m, rng);
  return qualified;
}

std::size_t probe_count(std::size_t k, double alpha) {
  ACP_REQUIRE(alpha > 0.0 && alpha <= 1.0);
  if (k == 0) return 0;
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      std::ceil(alpha * static_cast<double>(k))));
}

}  // namespace acp::core
