#include "core/baseline_composers.h"

namespace acp::core {

BaselineComposer::BaselineComposer(BaselineContext ctx)
    : ctx_(ctx), confirmations_(ctx.counters, obs::metric::kConfirmations) {
  if (ctx_.obs == nullptr) return;
  obs::MetricsRegistry* m = &ctx_.obs->metrics;
  accepted_ = obs::CounterHandle(m, obs::metric::kRequestAccepted);
  confirmed_ = obs::CounterHandle(m, obs::metric::kRequestConfirmed);
  failed_ = obs::CounterHandle(m, obs::metric::kRequestFailed);
  setup_confirmed_ = obs::HistogramHandle(m, obs::metric::kRequestSetupTime,
                                          obs::duration_bounds_s(), {{"outcome", "confirmed"}});
  setup_failed_ = obs::HistogramHandle(m, obs::metric::kRequestSetupTime,
                                       obs::duration_bounds_s(), {{"outcome", "failed"}});
}

/// Emits the request-level span pair every composer shares, so a trace
/// contains a complete accepted→confirmed/failed chain regardless of the
/// algorithm under evaluation.
void BaselineComposer::observe_accepted(const workload::Request& req) {
  if (ctx_.obs == nullptr) return;
  accepted_.add();
  ctx_.obs->tracer.event("request_accepted").field("req", req.id).field("paths", std::uint64_t{0});
}

void BaselineComposer::observe_outcome(const workload::Request& req,
                                       const CompositionOutcome& out) {
  if (ctx_.obs == nullptr) return;
  (out.success() ? confirmed_ : failed_).add();
  // Baselines decide synchronously — setup time is 0 in sim time, recorded
  // anyway so request accounting stays uniform across algorithms.
  (out.success() ? setup_confirmed_ : setup_failed_).observe(0.0);
  if (out.success()) {
    ctx_.obs->tracer.event("composition_confirmed")
        .field("req", req.id)
        .field("session", out.session)
        .field("phi", out.phi)
        .field("setup_s", 0.0);
  } else {
    ctx_.obs->tracer.event("composition_failed")
        .field("req", req.id)
        .field("found_qualified", out.found_qualified)
        .field("setup_s", 0.0);
  }
}

CompositionOutcome BaselineComposer::finalize_direct(
    const workload::Request& req, const std::optional<stream::ComponentGraph>& graph,
    const SearchStats& stats) {
  CompositionOutcome out;
  out.candidates_examined = stats.examined;
  out.candidates_qualified = stats.qualified;
  if (!graph) {
    observe_outcome(req, out);
    return out;
  }

  const double now = ctx_.engine->now();
  stream::CompositionEvaluator eval(*ctx_.sys);
  const auto phi = eval.evaluate(*graph, req.graph.enumerate_paths(), req.qos_req, req.policy,
                                 ctx_.sys->true_state(), now);
  if (!phi) {
    observe_outcome(req, out);
    return out;
  }
  out.found_qualified = true;
  out.phi = *phi;

  const double end = req.arrival_time + req.duration_s;
  out.session = ctx_.sessions->commit_direct(req.id, *graph, now, end);
  confirmations_.add(req.graph.node_count());
  observe_outcome(req, out);
  return out;
}

OptimalComposer::OptimalComposer(BaselineContext ctx, std::size_t combo_cap)
    : BaselineComposer(ctx),
      combo_cap_(combo_cap),
      probe_messages_(ctx.counters, obs::metric::kProbeMessages) {}

void OptimalComposer::compose(const workload::Request& req,
                              std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(req);
  // Overhead accounting: what brute-force exhaustive *probing* would cost,
  // regardless of the pruning used to keep wall-clock time sane.
  probe_messages_.add(exhaustive_probe_count(*ctx_.sys, req));

  SearchStats stats;
  const auto best = exhaustive_best(*ctx_.sys, req, ctx_.sys->true_state(), ctx_.engine->now(),
                                    &stats, combo_cap_);
  done(finalize_direct(req, best, stats));
}

void RandomComposer::compose(const workload::Request& req,
                             std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(req);
  SearchStats stats;
  const auto pick = random_assignment(*ctx_.sys, req, rng_);
  if (pick) stats.examined = 1;
  done(finalize_direct(req, pick, stats));
}

void StaticComposer::compose(const workload::Request& req,
                             std::function<void(const CompositionOutcome&)> done) {
  observe_accepted(req);
  SearchStats stats;
  const auto pick = static_assignment(*ctx_.sys, req);
  if (pick) stats.examined = 1;
  done(finalize_direct(req, pick, stats));
}

}  // namespace acp::core
