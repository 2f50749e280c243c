// Non-probing baseline composers (paper Sec. 4.1):
//
//   * Optimal — brute-force exhaustive search over all candidate
//     compositions, best-φ qualified pick. Its overhead is accounted as the
//     probes exhaustive probing would need (exponential); the paper uses it
//     as the quality upper bound.
//   * Random  — uniformly random candidate per function; succeeds only if
//     the resulting composition happens to be qualified.
//   * Static  — fixed candidate per function (the same component every
//     time); saturates quickly under load.
//
// All three evaluate against ground-truth state and commit directly (the
// paper grants the baselines free state access; their deficiency is the
// decision rule, not information starvation).
#pragma once

#include "core/composer.h"
#include "core/search.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "stream/session.h"
#include "util/rng.h"

namespace acp::core {

struct BaselineContext {
  stream::StreamSystem* sys = nullptr;
  stream::SessionTable* sessions = nullptr;
  sim::Engine* engine = nullptr;
  /// Where probe and confirmation messages count (acp.probe.messages,
  /// acp.probe.confirmations).
  obs::MetricsRegistry* counters = nullptr;
  /// Optional observability sink (request-level spans/metrics only — the
  /// baselines have no probe lifecycle).
  obs::Observability* obs = nullptr;
};

/// What the three baselines share: the context, the request-level series
/// (resolved once into handles), and the direct-commit tail.
class BaselineComposer : public Composer {
 protected:
  explicit BaselineComposer(BaselineContext ctx);

  /// The request_accepted span and counter.
  void observe_accepted(const workload::Request& req);

  /// Qualifies `graph` against ground truth, commits directly, and fills
  /// the outcome.
  CompositionOutcome finalize_direct(const workload::Request& req,
                                     const std::optional<stream::ComponentGraph>& graph,
                                     const SearchStats& stats);

  BaselineContext ctx_;

 private:
  void observe_outcome(const workload::Request& req, const CompositionOutcome& out);

  obs::CounterHandle confirmations_;
  obs::CounterHandle accepted_;
  obs::CounterHandle confirmed_;
  obs::CounterHandle failed_;
  obs::HistogramHandle setup_confirmed_;
  obs::HistogramHandle setup_failed_;
};

class OptimalComposer final : public BaselineComposer {
 public:
  explicit OptimalComposer(BaselineContext ctx, std::size_t combo_cap = 200'000);

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Optimal"; }

 private:
  std::size_t combo_cap_;
  obs::CounterHandle probe_messages_;
};

class RandomComposer final : public BaselineComposer {
 public:
  RandomComposer(BaselineContext ctx, util::Rng rng) : BaselineComposer(ctx), rng_(rng) {}

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Random"; }

 private:
  util::Rng rng_;
};

class StaticComposer final : public BaselineComposer {
 public:
  explicit StaticComposer(BaselineContext ctx) : BaselineComposer(ctx) {}

  void compose(const workload::Request& req,
               std::function<void(const CompositionOutcome&)> done) override;
  std::string name() const override { return "Static"; }
};

}  // namespace acp::core
