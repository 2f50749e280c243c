#include "core/probing.h"

#include <algorithm>
#include <optional>

namespace acp::core {

using stream::ComponentId;
using stream::FnNodeIndex;
using stream::NodeId;

namespace {
/// Sharded-mode probe ids are (request id × stride + per-request ordinal):
/// unique across requests, identical for every shard count. The stride
/// dominates max_probes_per_request (≤ 2048) plus retries by orders of
/// magnitude.
constexpr std::uint64_t kProbeIdStride = std::uint64_t{1} << 20;
}  // namespace

/// One in-flight probe: a partial assignment along one source→sink path.
struct ProbingProtocol::Probe {
  std::size_t path_index = 0;
  /// Components chosen for path positions [0, components.size()). Inline
  /// storage covers every template in the catalog (max 5 functions), so
  /// copying a probe for a child spawn never allocates.
  util::SmallVec<ComponentId, 8> components;
  /// QoS accumulated along the prefix (precise values, collected hop by hop).
  stream::QoSVector accumulated;
  /// Node the probe currently sits on (deputy before the first hop).
  NodeId at = 0;
  /// Trace identity: unique per probe; parent 0 for a path's root probe.
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// Per-request probing state, shared by all of the request's probe events.
struct ProbingProtocol::Coordinator {
  const workload::Request* req = nullptr;
  double alpha = 0.3;
  PerHopPolicy hop_policy = PerHopPolicy::kGuided;
  SelectionPolicy selection_policy = SelectionPolicy::kBestPhi;
  std::function<void(const CompositionOutcome&)> done;

  NodeId deputy = 0;
  double start_time = 0.0;  ///< when the deputy accepted the request
  std::vector<std::vector<FnNodeIndex>> paths;
  /// Completed per-path assignments returned by probes.
  std::vector<std::vector<PathAssignment>> collected;
  std::size_t outstanding = 0;    ///< live probes
  std::vector<std::size_t> spawned_per_path;  ///< per-path budget accounting
  std::size_t path_budget = 0;
  sim::EventId timeout_event = 0;
  bool finalized = false;

  // ---- Sharded mode (ProbingProtocol::set_shard_host) ---------------------
  std::uint32_t stream = 0;  ///< private event stream (req.id + 1); 0 = serial
  util::Rng rng{0};          ///< request-derived: selection + fault draws
  std::uint64_t next_probe_id = 0;
  /// Admissions this request's probes made against window-frozen pool
  /// state, pending application at the barrier. A claim is recorded once
  /// per (pool, tag) — mirroring the pools' one-reservation-per-(request,
  /// tag) dedupe — and never expires within the cascade (TTL 60 s vs a
  /// ≤ 10 s probe deadline), so "frozen available minus other-tag claims"
  /// reproduces the serial admission arithmetic exactly.
  struct NodeClaim {
    NodeId node;
    std::uint32_t tag;
    stream::ResourceVector amount;
  };
  struct LinkClaim {
    net::OverlayLinkIndex link;
    std::uint32_t tag;
    double kbps;
  };
  util::SmallVec<NodeClaim, 16> node_claims;
  util::SmallVec<LinkClaim, 32> link_claims;
};

ProbingProtocol::ProbingProtocol(stream::StreamSystem& sys, stream::SessionTable& sessions,
                                 sim::Engine& engine, obs::MetricsRegistry& counters,
                                 discovery::Registry& registry,
                                 const stream::StateView& global_view, util::Rng rng,
                                 ProbingConfig config, obs::Observability* obs)
    : sys_(&sys),
      sessions_(&sessions),
      engine_(&engine),
      registry_(&registry),
      global_view_(&global_view),
      rng_(rng),
      config_(config),
      obs_(obs),
      probe_messages_(&counters, obs::metric::kProbeMessages),
      retry_messages_(&counters, obs::metric::kProbeRetryMessages),
      confirmations_(&counters, obs::metric::kConfirmations),
      evaluator_(sys) {
  ACP_REQUIRE(config_.probe_timeout_s > 0.0);
  ACP_REQUIRE(config_.transient_ttl_s > 0.0);
  ACP_REQUIRE(config_.max_probes_per_request >= 1);
  if (obs_ == nullptr) return;
  prof_process_ = obs_->profiler.scope(obs::prof_scope::kProbingProcess);
  prof_rank_ = obs_->profiler.scope(obs::prof_scope::kProbingRank);
  prof_finalize_ = obs_->profiler.scope(obs::prof_scope::kProbingFinalize);
  attr_ = &obs_->attribution;

  obs::MetricsRegistry* m = &obs_->metrics;
  namespace metric = obs::metric;
  accepted_ = obs::CounterHandle(m, metric::kRequestAccepted);
  confirmed_ = obs::CounterHandle(m, metric::kRequestConfirmed);
  failed_ = obs::CounterHandle(m, metric::kRequestFailed);
  spawned_ = obs::CounterHandle(m, metric::kProbeSpawned);
  returned_ = obs::CounterHandle(m, metric::kProbeReturned);
  retries_ = obs::CounterHandle(m, metric::kProbeRetries);
  evaluated_ = obs::CounterHandle(m, metric::kCandidatesEvaluated);
  hop_depth_ = obs::HistogramHandle(m, metric::kProbeHopDepth,
                                    {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0});
  setup_confirmed_ = obs::HistogramHandle(m, metric::kRequestSetupTime, obs::duration_bounds_s(),
                                          {{"outcome", "confirmed"}});
  setup_failed_ = obs::HistogramHandle(m, metric::kRequestSetupTime, obs::duration_bounds_s(),
                                       {{"outcome", "failed"}});

  const auto rejected = [m](const char* why) {
    return obs::CounterHandle(m, metric::kCandidatesRejected, {{"reason", why}});
  };
  rejected_policy_ = rejected(obs::candidate_reason::kPolicy);
  rejected_rate_ = rejected(obs::candidate_reason::kRateIncompatible);
  rejected_qos_ = rejected(obs::candidate_reason::kQoSBound);
  rejected_node_ = rejected(obs::candidate_reason::kNodeResources);
  rejected_link_ = rejected(obs::candidate_reason::kLinkBandwidth);
  rejected_rank_ = rejected(obs::candidate_reason::kRankCutoff);
  rejected_budget_ = rejected(obs::candidate_reason::kBudget);

  const auto death = [m](const char* why) {
    return Death{why, obs::CounterHandle(m, metric::kProbeDeaths, {{"reason", why}})};
  };
  died_qos_ = death(obs::reason::kQoSViolation);
  died_node_ = death(obs::reason::kNodeReservation);
  died_link_ = death(obs::reason::kLinkReservation);
  died_moved_ = death(obs::reason::kComponentMoved);
  died_timeout_ = death(obs::reason::kTimeout);
  died_childless_ = death(obs::reason::kNoChildren);
  died_lost_ = death(obs::reason::kMessageLost);
}

stream::NodeId ProbingProtocol::deputy_for(net::NodeIndex client_ip) const {
  if (faults_ != nullptr) {
    return sys_->mesh().closest_member_where(
        client_ip, [this](stream::NodeId o) { return faults_->node_up(o); });
  }
  return sys_->mesh().closest_member(client_ip);
}

void ProbingProtocol::set_fault_injector(fault::FaultInjector* faults) {
  faults_ = faults;
  if (faults_ != nullptr) {
    faults_->on_node_change([this](stream::NodeId n, bool up) { on_node_change(n, up); });
  }
}

void ProbingProtocol::set_shard_host(sim::ShardHost* host) {
  shard_ = host;
  // Drawn only when sharding attaches: the serial path's rng_ sequence is
  // untouched, and every instance (constructed with the same rng) derives
  // the same base.
  if (shard_ != nullptr) seed_base_ = rng_.next();
}

sim::EventId ProbingProtocol::sched(const std::shared_ptr<Coordinator>& coord, double delay,
                                    std::function<void()> cb, const char* tag) {
  if (shard_ != nullptr) {
    return shard_->schedule_stream(coord->stream, shard_->now() + delay, std::move(cb), tag);
  }
  return engine_->schedule_after(delay, std::move(cb), tag);
}

std::uint64_t ProbingProtocol::new_probe_id(Coordinator& coord) {
  if (shard_ == nullptr) return ++next_probe_id_;
  ++coord.next_probe_id;
  ACP_ASSERT(coord.next_probe_id < kProbeIdStride);
  return static_cast<std::uint64_t>(coord.req->id) * kProbeIdStride + coord.next_probe_id;
}

bool ProbingProtocol::admit_node(Coordinator& coord, std::uint32_t tag, NodeId node,
                                 const stream::ResourceVector& amount, double now,
                                 double expires_at) {
  const stream::RequestId rid = coord.req->id;
  if (shard_ == nullptr) {
    return sys_->reserve_node_transient(rid, tag, node, amount, now, expires_at);
  }
  stream::StreamSystem* sys = sys_;
  const auto apply = [sys, rid, tag, node, amount, now, expires_at] {
    sys->force_reserve_node_transient(rid, tag, node, amount, now, expires_at);
  };
  for (const auto& rec : coord.node_claims) {
    if (rec.node == node && rec.tag == tag) {
      shard_->push_op(apply);  // duplicate (request, tag): refresh the expiry
      return true;
    }
  }
  stream::ResourceVector avail = sys_->node_pool(node).available_excluding(now, rid);
  for (const auto& rec : coord.node_claims) {
    if (rec.node == node && rec.tag != tag) avail -= rec.amount;
  }
  if (!stream::pool_fits(amount, avail)) return false;
  coord.node_claims.push_back({node, tag, amount});
  shard_->push_op(apply);
  return true;
}

bool ProbingProtocol::admit_link(Coordinator& coord, std::uint32_t tag, NodeId a, NodeId b,
                                 double kbps, double now, double expires_at) {
  const stream::RequestId rid = coord.req->id;
  if (shard_ == nullptr) {
    return sys_->reserve_virtual_link_transient(rid, tag, a, b, kbps, now, expires_at);
  }
  if (a == b) return true;
  // All-or-nothing across the virtual link's overlay links, like the serial
  // reserve: admit every link against the frozen view (minus this request's
  // own other-tag claims) before recording anything.
  bool ok = true;
  util::SmallVec<net::OverlayLinkIndex, 16> fresh;
  sys_->mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!ok) return;
    for (const auto& rec : coord.link_claims) {
      if (rec.link == l && rec.tag == tag) return;  // already claimed: refresh
    }
    double avail = sys_->link_pool(l).available_excluding(now, rid);
    for (const auto& rec : coord.link_claims) {
      if (rec.link == l && rec.tag != tag) avail -= rec.kbps;
    }
    if (!stream::pool_fits(kbps, avail)) {
      ok = false;
      return;
    }
    fresh.push_back(l);
  });
  if (!ok) return false;
  for (const net::OverlayLinkIndex l : fresh) coord.link_claims.push_back({l, tag, kbps});
  stream::StreamSystem* sys = sys_;
  shard_->push_op([sys, rid, tag, a, b, kbps, now, expires_at] {
    sys->force_reserve_virtual_link_transient(rid, tag, a, b, kbps, now, expires_at);
  });
  return true;
}

void ProbingProtocol::on_node_change(stream::NodeId node, bool up) {
  if (up || !config_.enable_reelection) return;
  bool any_live = false;
  for (auto& weak : active_) {
    const auto coord = weak.lock();
    if (coord == nullptr || coord->finalized) continue;
    any_live = true;
    if (coord->deputy != node) continue;
    // The deputy died mid-request: the overlay member now closest to the
    // client takes over coordination. Returning probes re-read coord->deputy
    // on every (re)transmission, so they find the successor.
    const stream::NodeId successor = deputy_for(coord->req->client_ip);
    coord->deputy = successor;
    ++deputy_reelections_;
    if (obs_ != nullptr) {
      obs_->metrics.counter(obs::metric::kDeputyReelections).add();
      obs_->tracer.event("deputy_reelected")
          .field("req", coord->req->id)
          .field("failed", static_cast<std::uint64_t>(node))
          .field("deputy", static_cast<std::uint64_t>(successor));
    }
  }
  if (!any_live) active_.clear();
}

void ProbingProtocol::send_probe(const std::shared_ptr<Coordinator>& coord, Probe probe,
                                 stream::NodeId from, bool returning, std::size_t attempt) {
  if (coord->finalized) return;
  // Returning probes chase the *current* deputy (re-election may move it).
  const stream::NodeId to = returning ? coord->deputy : probe.at;
  double delay_s =
      config_.hop_processing_s + sys_->mesh().virtual_link_qos(from, to).delay_ms / 1000.0;
  if (faults_ != nullptr) {
    // Sharded: stochastic loss/delay draws come from the request's private
    // stream (shard-count-invariant); the node/link-down checks read
    // injector state, frozen during shard phases.
    const fault::FaultInjector::MessageFate fate =
        shard_ != nullptr ? faults_->message_fate(from, to, coord->rng)
                          : faults_->message_fate(from, to);
    if (fate.lost) {
      if (attempt >= config_.max_retries) {
        probe_died(probe, coord->req->id, died_lost_);
        probe_ended(coord);
        return;
      }
      const double backoff = config_.retry_backoff_s * static_cast<double>(1ULL << attempt);
      ++retries_sent_;
      retry_messages_.add();
      probe_messages_.add();  // the retransmission is a message too
      if (obs_ != nullptr) {
        retries_.add();
        obs_->tracer.event("probe_retry")
            .field("req", coord->req->id)
            .field("probe", probe.id)
            .field("path", probe.path_index)
            .field("attempt", attempt + 1)
            .field("from", static_cast<std::uint64_t>(from))
            .field("to", static_cast<std::uint64_t>(to))
            .field("backoff_s", backoff);
      }
      sched(
          coord, backoff,
          [this, coord, probe, from, returning, attempt] {
            send_probe(coord, probe, from, returning, attempt + 1);
          },
          obs::attr_wait::kRetryBackoff);
      return;
    }
    delay_s += fate.extra_delay_s;
  }
  if (returning) {
    sched(
        coord, delay_s, [this, coord, probe] { probe_returned(coord, probe); },
        obs::attr_wait::kProbeTransit);
  } else {
    sched(
        coord, delay_s, [this, coord, probe] { process_probe(coord, probe); },
        obs::attr_wait::kProbeTransit);
  }
}

void ProbingProtocol::execute(const workload::Request& req, double alpha, PerHopPolicy hop_policy,
                              SelectionPolicy selection_policy,
                              std::function<void(const CompositionOutcome&)> done) {
  ACP_REQUIRE(alpha > 0.0 && alpha <= 1.0);
  auto coord = std::make_shared<Coordinator>();
  coord->req = &req;
  coord->alpha = alpha;
  coord->hop_policy = hop_policy;
  coord->selection_policy = selection_policy;
  coord->done = std::move(done);
  coord->deputy = deputy_for(req.client_ip);
  coord->start_time = sim_now();
  coord->paths = req.graph.enumerate_paths();
  coord->collected.resize(coord->paths.size());
  coord->spawned_per_path.assign(coord->paths.size(), 0);
  // Budget is split across source→sink paths so one branch's probe tree
  // cannot starve the other branch of a DAG.
  coord->path_budget = std::max<std::size_t>(1, config_.max_probes_per_request / coord->paths.size());

  if (shard_ != nullptr) {
    // One private event stream per request, pinned to the shard that owns
    // the deputy; RNG and probe ids derive from the request id alone, so
    // every draw and every trace field is shard-count-invariant.
    coord->stream = static_cast<std::uint32_t>(req.id) + 1;
    coord->rng = util::Rng(util::stream_seed(seed_base_, req.id));
    shard_->open_stream(coord->stream, coord->deputy);
  }

  if (faults_ != nullptr) {
    // Track for deputy re-election; prune dead entries while we're here.
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [](const std::weak_ptr<Coordinator>& w) { return w.expired(); }),
                  active_.end());
    active_.push_back(coord);
  }

  if (obs_ != nullptr) {
    accepted_.add();
    obs_->tracer.event("request_accepted")
        .field("req", req.id)
        .field("deputy", static_cast<std::uint64_t>(coord->deputy))
        .field("paths", coord->paths.size())
        .field("alpha", alpha);
  }

  // Deadline: finalize with whatever has returned.
  coord->timeout_event = sched(
      coord, config_.probe_timeout_s,
      [this, coord] {
        coord->timeout_event = 0;
        finalize(coord);
      },
      obs::attr_wait::kProbeTimeout);

  // One initial probe per source→sink path, processed at the deputy (the
  // per-hop step "applies to the deputy node too").
  for (std::size_t p = 0; p < coord->paths.size(); ++p) {
    Probe probe;
    probe.path_index = p;
    probe.at = coord->deputy;
    probe.id = new_probe_id(*coord);
    ++coord->outstanding;
    ++live_probes_;
    ++coord->spawned_per_path[p];
    if (obs_ != nullptr) {
      spawned_.add();
      obs_->tracer.event("probe_spawned")
          .field("req", req.id)
          .field("probe", probe.id)
          .field("parent", probe.parent)
          .field("path", p)
          .field("hop", std::uint64_t{0})
          .field("node", static_cast<std::uint64_t>(coord->deputy));
    }
    sched(
        coord, config_.hop_processing_s, [this, coord, probe] { process_probe(coord, probe); },
        obs::attr_wait::kProbeTransit);
  }
}

void ProbingProtocol::process_probe(const std::shared_ptr<Coordinator>& coord, Probe probe) {
  if (coord->finalized) return;  // late arrival after deadline: ignore
  const obs::ProfScope prof(prof_process_, attr_, obs::attr_phase::kProbe,
                            static_cast<std::int64_t>(probe.at));
  const workload::Request& req = *coord->req;
  const auto& path = coord->paths[probe.path_index];
  const double now = sim_now();
  const std::size_t level = probe.components.size();

  if (attr_ != nullptr && attr_->enabled()) {
    // The hop's modeled processing time, charged to the visited node and
    // the function of the component hosted there (-1 at the deputy's
    // level-0 hop — no component chosen yet).
    const std::int64_t fn_id =
        level > 0 ? static_cast<std::int64_t>(sys_->component(probe.components.back()).function)
                  : -1;
    attr_->record(obs::attr_phase::kProbe, static_cast<std::int64_t>(probe.at), fn_id,
                  config_.hop_processing_s);
  }

  // --- Steps 1 & 2 apply when the probe just arrived at a chosen component:
  // conformance re-check against this node's precise state, then transient
  // resource allocation.
  if (level > 0) {
    const FnNodeIndex fn = path[level - 1];
    const ComponentId chosen = probe.components.back();
    // The component may have been migrated to another node while the probe
    // was in flight (dynamic placement extension); the probe finds it gone
    // and dies — the deputy simply sees one fewer candidate.
    if (sys_->component(chosen).node != probe.at) {
      probe_died(probe, req.id, died_moved_, static_cast<std::int64_t>(chosen));
      probe_ended(coord);
      return;
    }
    // QoS conformance (accumulated includes this component already).
    if (!probe.accumulated.satisfies(req.qos_req)) {
      probe_died(probe, req.id, died_qos_);
      probe_ended(coord);
      return;
    }
    // Resource conformance + transient allocation for the component.
    const double expires = now + config_.transient_ttl_s;
    if (!admit_node(*coord, stream::node_tag(fn), probe.at, req.graph.node(fn).required, now,
                    expires)) {
      probe_died(probe, req.id, died_node_);
      probe_ended(coord);
      return;
    }
    // Bandwidth of the virtual link just traversed (none before level 1).
    if (level >= 2) {
      const FnNodeIndex prev_fn = path[level - 2];
      const ComponentId prev = probe.components[level - 2];
      const auto e = req.graph.find_edge(prev_fn, fn);
      const double bw = req.graph.edge(e).required_bandwidth_kbps;
      if (!admit_link(*coord, stream::link_tag(req.graph, e), sys_->component(prev).node,
                      probe.at, bw, now, expires)) {
        probe_died(probe, req.id, died_link_);
        probe_ended(coord);
        return;
      }
    }
  }

  // --- Path complete: return to the deputy.
  if (level == path.size()) {
    probe_messages_.add();  // return message
    send_probe(coord, probe, probe.at, /*returning=*/true, /*attempt=*/0);
    return;
  }

  // --- Steps 3–6: derive next-hop function, discover candidates, select,
  // spawn children.
  const FnNodeIndex next_fn = path[level];
  const auto& candidates = registry_->lookup(req.graph.node(next_fn).function);

  HopContext ctx;
  ctx.sys = sys_;
  ctx.req = &req;
  ctx.accumulated = probe.accumulated;
  ctx.now = now;
  ctx.next_fn = next_fn;
  if (level > 0) {
    ctx.has_upstream = true;
    ctx.current_node = probe.at;
    ctx.current_function = sys_->component(probe.components.back()).function;
    ctx.edge_bw_kbps =
        req.graph.edge(req.graph.find_edge(path[level - 1], next_fn)).required_bandwidth_kbps;
  }

  const std::size_t m = probe_count(candidates.size(), coord->alpha);
  // All per-hop scratch comes from the per-trial arena: reset reclaims the
  // previous hop's lists wholesale, so the steady-state hop is allocation
  // free. Nothing below escapes this call (children copy what they keep).
  scratch_.reset();
  util::ArenaVector<ComponentId> selected(scratch_);
  HopFilterStats filter_stats;
  std::size_t rank_cutoff = 0;
  {
    const obs::ProfScope rank_prof(prof_rank_, attr_, obs::attr_phase::kRank,
                                   static_cast<std::int64_t>(probe.at));
    if (coord->hop_policy == PerHopPolicy::kGuided) {
      // Filter + rank on the coarse global state (possibly stale — that is
      // the point: precise state comes from the probes themselves).
      filter_qualified_into(ctx, *global_view_, candidates, selected, &filter_stats);
      const std::size_t n_qualified = selected.size();
      util::ArenaVector<ScoredCandidate> scored(scratch_);
      select_best_into(ctx, *global_view_, selected, m, config_.risk_eps, config_.ranking,
                       scored);
      rank_cutoff = n_qualified - selected.size();
    } else {
      // RP: random selection among discovered, rate-compatible candidates.
      for (ComponentId c : candidates) {
        if (!ctx.has_upstream ||
            sys_->catalog().compatible(ctx.current_function, sys_->component(c).function)) {
          selected.push_back(c);
        }
      }
      filter_stats.rate_incompatible = candidates.size() - selected.size();
      const std::size_t n_compatible = selected.size();
      select_random_into(selected, m, shard_ != nullptr ? coord->rng : rng_);
      rank_cutoff = n_compatible - selected.size();
    }
  }
  if (attr_ != nullptr) {
    // Candidate-evaluation load at the node for the function being placed;
    // rank's modeled sim cost is folded into the hop's processing delay.
    attr_->record(obs::attr_phase::kRank, static_cast<std::int64_t>(probe.at),
                  static_cast<std::int64_t>(req.graph.node(next_fn).function), 0.0,
                  static_cast<std::uint64_t>(candidates.size()));
  }

  // Spawn suppression beyond the per-request budget keeps the best-ranked
  // prefix (`selected` is already ranked for kGuided).
  std::size_t spawned = 0;
  for (ComponentId c : selected) {
    if (coord->spawned_per_path[probe.path_index] >= coord->path_budget) break;
    const stream::Component& cand = sys_->component(c);
    Probe child = probe;
    child.components.push_back(c);
    child.accumulated += cand.qos;
    if (ctx.has_upstream) child.accumulated += sys_->virtual_link_qos(probe.at, cand.node);
    child.at = cand.node;
    child.id = new_probe_id(*coord);
    child.parent = probe.id;

    ++coord->outstanding;
    ++live_probes_;
    ++coord->spawned_per_path[probe.path_index];
    ++spawned;
    probe_messages_.add();  // probe transmission
    if (obs_ != nullptr) {
      spawned_.add();
      obs_->tracer.event("probe_spawned")
          .field("req", req.id)
          .field("probe", child.id)
          .field("parent", probe.id)
          .field("path", probe.path_index)
          .field("hop", child.components.size())
          .field("node", static_cast<std::uint64_t>(cand.node))
          .field("component", static_cast<std::uint64_t>(c));
    }
    send_probe(coord, child, probe.at, /*returning=*/false, /*attempt=*/0);
  }

  if (obs_ != nullptr) {
    // Per-hop candidate accounting. Invariant (asserted by tests):
    // evaluated == spawned + Σ reject reasons.
    const std::size_t budget_cut = selected.size() - spawned;
    evaluated_.add(candidates.size());
    const auto reject = [](obs::CounterHandle& series, std::size_t n) {
      if (n > 0) series.add(n);
    };
    reject(rejected_policy_, filter_stats.policy);
    reject(rejected_rate_, filter_stats.rate_incompatible);
    reject(rejected_qos_, filter_stats.qos_bound);
    reject(rejected_node_, filter_stats.node_resources);
    reject(rejected_link_, filter_stats.link_bandwidth);
    reject(rejected_rank_, rank_cutoff);
    reject(rejected_budget_, budget_cut);
    obs_->tracer.event("probe_hop")
        .field("req", req.id)
        .field("probe", probe.id)
        .field("path", probe.path_index)
        .field("hop", level)
        .field("node", static_cast<std::uint64_t>(probe.at))
        .field("candidates", candidates.size())
        .field("selected", selected.size())
        .field("spawned", spawned)
        .field("rejected_filter", filter_stats.total())
        .field("rejected_rank", rank_cutoff)
        .field("rejected_budget", budget_cut);
    if (spawned == 0) probe_died(probe, req.id, died_childless_);
  }

  // The parent probe forked (or died childless).
  probe_ended(coord);
}

void ProbingProtocol::probe_died(const Probe& probe, stream::RequestId req, Death& death,
                                 std::int64_t component) {
  if (obs_ == nullptr) return;
  death.count.add();
  obs::TraceEvent ev = obs_->tracer.event("probe_rejected");
  ev.field("req", req)
      .field("probe", probe.id)
      .field("path", probe.path_index)
      .field("hop", probe.components.size())
      .field("node", static_cast<std::uint64_t>(probe.at))
      .field("reason", death.reason);
  // Causal link for span trees: which component's disappearance killed the
  // probe (joins to the preceding component_migrated event).
  if (component >= 0) ev.field("component", component);
}

void ProbingProtocol::probe_returned(const std::shared_ptr<Coordinator>& coord,
                                     const Probe& probe) {
  if (coord->finalized) return;
  if (obs_ != nullptr) {
    returned_.add();
    hop_depth_.observe(static_cast<double>(probe.components.size()));
    obs_->tracer.event("probe_returned")
        .field("req", coord->req->id)
        .field("probe", probe.id)
        .field("path", probe.path_index)
        .field("hops", probe.components.size());
  }
  PathAssignment pa;
  pa.components.assign(probe.components.begin(), probe.components.end());
  pa.accumulated = probe.accumulated;
  coord->collected[probe.path_index].push_back(std::move(pa));
  probe_ended(coord);
}

void ProbingProtocol::probe_ended(const std::shared_ptr<Coordinator>& coord) {
  if (coord->finalized) return;
  ACP_ASSERT(coord->outstanding > 0);
  ACP_ASSERT(live_probes_ > 0);
  --live_probes_;
  if (--coord->outstanding == 0) finalize(coord);
}

void ProbingProtocol::finalize(const std::shared_ptr<Coordinator>& coord) {
  if (coord->finalized) return;
  coord->finalized = true;
  // Probes still in flight at the deadline die with the coordinator; late
  // arrivals bail out before any accounting, so settle theirs here.
  ACP_ASSERT(live_probes_ >= coord->outstanding);
  live_probes_ -= coord->outstanding;
  if (coord->timeout_event != 0) {
    if (shard_ != nullptr) {
      shard_->cancel_stream(coord->stream, coord->timeout_event);
    } else {
      engine_->cancel(coord->timeout_event);
    }
  }

  const workload::Request& req = *coord->req;
  const double now = sim_now();

  // Reached via the deadline with probes still in flight: each outstanding
  // probe is accounted a timeout death (late arrivals are ignored above).
  if (obs_ != nullptr && coord->outstanding > 0) {
    died_timeout_.count.add(coord->outstanding);
    obs_->tracer.event("probe_timeout")
        .field("req", req.id)
        .field("outstanding", coord->outstanding)
        .field("deadline_s", config_.probe_timeout_s);
  }

  CompositionOutcome out;
  // Deputy-side finalize cost: merge, qualification, winner selection,
  // commit. Released before `done` so the requester's callback is not
  // charged to it.
  std::optional<obs::ProfScope> prof;
  if (prof_finalize_.wall != nullptr) {
    prof.emplace(prof_finalize_, attr_, obs::attr_phase::kFinalize,
                 static_cast<std::int64_t>(coord->deputy));
  }

  // Merge per-path assignments into complete component graphs (DAG case:
  // combinations must agree on shared split/merge nodes).
  bool cap_hit = false;
  auto graphs =
      merge_path_assignments(req.graph, coord->paths, coord->collected, config_.merge_cap,
                             &cap_hit);
  out.candidates_examined = graphs.size();

  // Qualify against precise state and rank by the selection policy. The
  // view is scoped to the request: its own transient reservations (placed
  // by its probes exactly so these resources are held for it) read as
  // available. Sharded, this state is window-frozen, so the ranking is the
  // preference order the barrier's commit re-checks against live state.
  const stream::StreamSystem::RequestScopedView view(*sys_, req.id);
  auto ranked = score_qualified(evaluator_, req, coord->paths, graphs, view, now);
  out.candidates_qualified = ranked.size();
  if (coord->selection_policy == SelectionPolicy::kBestPhi) {
    std::sort(ranked.begin(), ranked.end());
  } else if (!ranked.empty()) {
    // Random-qualified: one draw picks the preferred winner; the rest keep
    // index order as fallbacks.
    util::Rng& rng = shard_ != nullptr ? coord->rng : rng_;
    const auto pick = static_cast<std::ptrdiff_t>(rng.below(ranked.size()));
    std::rotate(ranked.begin(), ranked.begin() + pick, ranked.begin() + pick + 1);
  }

  if (shard_ != nullptr) {
    shard_->push_op([this, coord, graphs = std::move(graphs), ranked = std::move(ranked), out,
                     cap_hit] { coord->done(commit(*coord, graphs, ranked, out, cap_hit)); });
    return;
  }
  out = commit(*coord, graphs, ranked, out, cap_hit);
  prof.reset();
  coord->done(out);
}

CompositionOutcome ProbingProtocol::commit(
    const Coordinator& coord, const std::vector<stream::ComponentGraph>& graphs,
    const std::vector<std::pair<double, std::size_t>>& ranked, CompositionOutcome out,
    bool cap_hit) {
  const workload::Request& req = *coord.req;
  const double now = engine_->now();
  const stream::StreamSystem::RequestScopedView view(*sys_, req.id);
  for (const auto& candidate : ranked) {
    const stream::ComponentGraph& g = graphs[candidate.second];
    const auto phi = evaluator_.evaluate(g, coord.paths, req.qos_req, req.policy, view, now);
    if (!phi) continue;
    out.found_qualified = true;
    out.phi = *phi;
    out.session = sessions_->commit_probed(req.id, g, now, req.arrival_time + req.duration_s);
    // Confirmation messages travel the composition (one per component).
    confirmations_.add(req.graph.node_count());
    break;
  }
  if (!out.found_qualified) sys_->cancel_request(req.id);

  if (obs_ != nullptr) {
    const double setup_s = now - coord.start_time;
    // The request's end-to-end setup latency, attributed to its deputy —
    // "which coordinators' requests waited longest, and where".
    attr_->record(obs::attr_phase::kFinalize, static_cast<std::int64_t>(coord.deputy), -1,
                  setup_s);
    (out.success() ? confirmed_ : failed_).add();
    (out.success() ? setup_confirmed_ : setup_failed_).observe(setup_s);
    if (out.success()) {
      obs_->tracer.event("composition_confirmed")
          .field("req", req.id)
          .field("session", out.session)
          .field("phi", out.phi)
          .field("merged", out.candidates_examined)
          .field("qualified", out.candidates_qualified)
          .field("cap_hit", cap_hit)
          .field("setup_s", setup_s);
      // Losing candidates' transient reservations were dropped by the
      // commit; the winner's were confirmed into the session.
      obs_->tracer.event("transients_cancelled").field("req", req.id).field("scope", "losers");
    } else {
      obs_->tracer.event("composition_failed")
          .field("req", req.id)
          .field("merged", out.candidates_examined)
          .field("qualified", out.candidates_qualified)
          .field("found_qualified", out.found_qualified)
          .field("setup_s", setup_s);
      obs_->tracer.event("transients_cancelled").field("req", req.id).field("scope", "all");
    }
  }
  return out;
}

}  // namespace acp::core
