#include "core/baseline_composers.h"

namespace acp::core {

namespace {

/// Emits the request-level span pair every composer shares, so a trace
/// contains a complete accepted→confirmed/failed chain regardless of the
/// algorithm under evaluation.
void observe_accepted(const BaselineContext& ctx, const workload::Request& req) {
  if (ctx.obs == nullptr) return;
  ctx.obs->metrics.counter(obs::metric::kRequestAccepted).add();
  ctx.obs->tracer.event("request_accepted").field("req", req.id).field("paths", std::uint64_t{0});
}

void observe_outcome(const BaselineContext& ctx, const workload::Request& req,
                     const CompositionOutcome& out) {
  if (ctx.obs == nullptr) return;
  const char* outcome = out.success() ? "confirmed" : "failed";
  ctx.obs->metrics
      .counter(out.success() ? obs::metric::kRequestConfirmed : obs::metric::kRequestFailed)
      .add();
  // Baselines decide synchronously — setup time is 0 in sim time, recorded
  // anyway so request accounting stays uniform across algorithms.
  ctx.obs->metrics
      .histogram(obs::metric::kRequestSetupTime, obs::duration_bounds_s(), {{"outcome", outcome}})
      .observe(0.0);
  if (out.success()) {
    ctx.obs->tracer.event("composition_confirmed")
        .field("req", req.id)
        .field("session", out.session)
        .field("phi", out.phi)
        .field("setup_s", 0.0);
  } else {
    ctx.obs->tracer.event("composition_failed")
        .field("req", req.id)
        .field("found_qualified", out.found_qualified)
        .field("setup_s", 0.0);
  }
}

/// Shared tail: qualify `graph` against ground truth, commit directly,
/// fill the outcome.
CompositionOutcome finalize_direct(const BaselineContext& ctx, const workload::Request& req,
                                   const std::optional<stream::ComponentGraph>& graph,
                                   const SearchStats& stats) {
  CompositionOutcome out;
  out.candidates_examined = stats.examined;
  out.candidates_qualified = stats.qualified;
  if (!graph) {
    observe_outcome(ctx, req, out);
    return out;
  }

  const double now = ctx.engine->now();
  stream::CompositionEvaluator eval(*ctx.sys);
  const auto phi = eval.evaluate(*graph, req.graph.enumerate_paths(), req.qos_req, req.policy,
                                 ctx.sys->true_state(), now);
  if (!phi) {
    observe_outcome(ctx, req, out);
    return out;
  }
  out.found_qualified = true;
  out.phi = *phi;

  const double end = req.arrival_time + req.duration_s;
  out.session = ctx.sessions->commit_direct(req.id, *graph, now, end);
  ctx.counters->add(sim::counter::kConfirmation, req.graph.node_count());
  observe_outcome(ctx, req, out);
  return out;
}

}  // namespace

void OptimalComposer::compose(const workload::Request& req,
                              std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(ctx_, req);
  // Overhead accounting: what brute-force exhaustive *probing* would cost,
  // regardless of the pruning used to keep wall-clock time sane.
  ctx_.counters->add(sim::counter::kProbe, exhaustive_probe_count(*ctx_.sys, req));

  SearchStats stats;
  const auto best = exhaustive_best(*ctx_.sys, req, ctx_.sys->true_state(), ctx_.engine->now(),
                                    &stats, combo_cap_);
  done(finalize_direct(ctx_, req, best, stats));
}

void RandomComposer::compose(const workload::Request& req,
                             std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(ctx_, req);
  SearchStats stats;
  const auto pick = random_assignment(*ctx_.sys, req, rng_);
  if (pick) stats.examined = 1;
  done(finalize_direct(ctx_, req, pick, stats));
}

void StaticComposer::compose(const workload::Request& req,
                             std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(ctx_, req);
  SearchStats stats;
  const auto pick = static_assignment(*ctx_.sys, req);
  if (pick) stats.examined = 1;
  done(finalize_direct(ctx_, req, pick, stats));
}

}  // namespace acp::core
