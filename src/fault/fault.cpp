#include "fault/fault.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "obs/trace.h"

namespace acp::fault {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kNodeRestart: return "node_restart";
    case FaultKind::kLinkFail: return "link_fail";
    case FaultKind::kLinkRestore: return "link_restore";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kStateFreeze: return "state_freeze";
    case FaultKind::kStateTear: return "state_tear";
    case FaultKind::kTransientLeak: return "transient_leak";
  }
  return "?";
}

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "node_crash") return FaultKind::kNodeCrash;
  if (name == "node_restart") return FaultKind::kNodeRestart;
  if (name == "link_fail") return FaultKind::kLinkFail;
  if (name == "link_restore") return FaultKind::kLinkRestore;
  if (name == "link_degrade") return FaultKind::kLinkDegrade;
  if (name == "state_freeze") return FaultKind::kStateFreeze;
  if (name == "state_tear") return FaultKind::kStateTear;
  if (name == "transient_leak") return FaultKind::kTransientLeak;
  throw PreconditionError("unknown fault kind: " + name);
}

FaultPlan FaultPlan::parse_jsonl(std::istream& in) {
  FaultPlan plan;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    obs::ParsedTraceEvent ev;
    try {
      ev = obs::parse_trace_line(line);
    } catch (const PreconditionError& e) {
      throw PreconditionError("fault plan line " + std::to_string(lineno) + ": " + e.what());
    }
    const std::string& kind = ev.str("kind");
    if (kind.empty()) {
      throw PreconditionError("fault plan line " + std::to_string(lineno) + ": missing \"kind\"");
    }
    if (kind == "rates") {
      // Stochastic-process knobs; absent fields keep their defaults.
      const auto set = [&ev](const char* key, double& field) {
        if (ev.has(key)) field = ev.num(key);
      };
      set("node_crash_rate_per_min", plan.node_crash_rate_per_min);
      set("node_downtime_s", plan.node_downtime_s);
      set("link_fail_rate_per_min", plan.link_fail_rate_per_min);
      set("link_downtime_s", plan.link_downtime_s);
      set("probe_loss_prob", plan.probe_loss_prob);
      set("probe_delay_prob", plan.probe_delay_prob);
      set("probe_delay_mean_s", plan.probe_delay_mean_s);
      set("start", plan.start_s);
      set("stop", plan.stop_s);
      continue;
    }
    FaultEvent fe;
    fe.kind = fault_kind_from_name(kind);
    fe.at_s = ev.num("at");
    fe.target = ev.has("target") ? static_cast<std::int64_t>(ev.num("target")) : kRandomTarget;
    fe.magnitude = ev.num("magnitude");
    fe.duration_s = ev.num("duration");
    fe.count = ev.has("count") ? static_cast<std::size_t>(ev.num("count")) : 1;
    plan.events.push_back(fe);
  }
  return plan;
}

FaultPlan FaultPlan::load_jsonl_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw PreconditionError("cannot open fault plan: " + path);
  return parse_jsonl(in);
}

FaultInjector::FaultInjector(stream::StreamSystem& sys, sim::Engine& engine, util::Rng rng,
                             FaultPlan plan, RecoveryConfig recovery,
                             obs::MetricsRegistry* counters, obs::Observability* obs)
    : sys_(&sys),
      engine_(&engine),
      rng_(rng),
      plan_(std::move(plan)),
      recovery_(recovery),
      fault_events_(counters, obs::metric::kFaultEvents),
      reclaims_(counters, obs::metric::kTransientReclaims),
      obs_(obs),
      node_down_(sys.node_count(), false),
      link_down_(sys.mesh().link_count(), false),
      // Leaked allocations use a request-id space no workload generator
      // reaches, so they can never be confirmed or cancelled by a real
      // request's lifecycle — only reclamation gets them back.
      next_leak_request_(stream::RequestId{1} << 62) {
  msg_rng_ = rng_.split(1);
  ACP_REQUIRE(plan_.probe_loss_prob >= 0.0 && plan_.probe_loss_prob <= 1.0);
  ACP_REQUIRE(plan_.probe_delay_prob >= 0.0 && plan_.probe_delay_prob <= 1.0);
  ACP_REQUIRE(recovery_.reclaim_delay_s >= 0.0);
}

void FaultInjector::start() {
  ACP_REQUIRE_MSG(!started_, "start() may only be called once");
  started_ = true;
  for (const FaultEvent& ev : plan_.events) {
    const double at = std::max(ev.at_s, engine_->now());
    engine_->schedule_at(at, [this, ev] { fire(ev); });
  }
  if (plan_.node_crash_rate_per_min > 0.0) schedule_random_crash();
  if (plan_.link_fail_rate_per_min > 0.0) schedule_random_link_fail();
  if (recovery_.sweep_interval_s > 0.0) schedule_sweep();
}

void FaultInjector::count_fault(FaultKind kind) {
  ++faults_injected_;
  fault_events_.add();
  if (obs_ != nullptr) {
    obs_->metrics.counter(obs::metric::kFaultInjected, {{"kind", fault_kind_name(kind)}}).add();
  }
}

void FaultInjector::fire(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultKind::kNodeCrash: {
      stream::NodeId n;
      if (ev.target >= 0) {
        n = static_cast<stream::NodeId>(ev.target);
      } else if (!pick_live_node(n)) {
        return;
      }
      crash_node(n, ev.duration_s);
      return;
    }
    case FaultKind::kNodeRestart:
      if (ev.target >= 0) restart_node(static_cast<stream::NodeId>(ev.target));
      return;
    case FaultKind::kLinkFail: {
      net::OverlayLinkIndex l;
      if (ev.target >= 0) {
        l = static_cast<net::OverlayLinkIndex>(ev.target);
      } else if (!pick_live_link(l)) {
        return;
      }
      fail_link(l, ev.duration_s);
      return;
    }
    case FaultKind::kLinkRestore:
      if (ev.target >= 0) restore_link(static_cast<net::OverlayLinkIndex>(ev.target));
      return;
    case FaultKind::kLinkDegrade: {
      net::OverlayLinkIndex l;
      if (ev.target >= 0) {
        l = static_cast<net::OverlayLinkIndex>(ev.target);
      } else if (!pick_live_link(l)) {
        return;
      }
      degrade_link(l, ev.magnitude > 0.0 ? ev.magnitude : 0.5, ev.duration_s);
      return;
    }
    case FaultKind::kStateFreeze:
      freeze_state(ev.duration_s > 0.0 ? ev.duration_s : 120.0);
      return;
    case FaultKind::kStateTear:
      tear_state();
      return;
    case FaultKind::kTransientLeak:
      leak_transients(std::max<std::size_t>(ev.count, 1),
                      ev.magnitude > 0.0 ? ev.magnitude : 4.0,
                      ev.duration_s > 0.0 ? ev.duration_s : 3600.0);
      return;
  }
}

bool FaultInjector::pick_live_node(stream::NodeId& out) {
  const std::size_t live = node_down_.size() - nodes_down_;
  if (live <= 2) return false;  // never take down the last survivors
  std::size_t k = static_cast<std::size_t>(rng_.below(live));
  for (stream::NodeId n = 0; n < node_down_.size(); ++n) {
    if (node_down_[n]) continue;
    if (k-- == 0) {
      out = n;
      return true;
    }
  }
  return false;
}

bool FaultInjector::pick_live_link(net::OverlayLinkIndex& out) {
  const std::size_t live = link_down_.size() - links_down_;
  if (live <= 1) return false;
  std::size_t k = static_cast<std::size_t>(rng_.below(live));
  for (net::OverlayLinkIndex l = 0; l < link_down_.size(); ++l) {
    if (link_down_[l]) continue;
    if (k-- == 0) {
      out = l;
      return true;
    }
  }
  return false;
}

void FaultInjector::schedule_random_crash() {
  const double rate_per_s = plan_.node_crash_rate_per_min / 60.0;
  const double gap = rng_.exponential(rate_per_s);
  const double at = std::max(engine_->now() + gap, plan_.start_s);
  if (at >= plan_.stop_s) return;
  engine_->schedule_at(at, [this] {
    stream::NodeId n;
    if (pick_live_node(n)) crash_node(n, plan_.node_downtime_s);
    schedule_random_crash();
  });
}

void FaultInjector::schedule_random_link_fail() {
  const double rate_per_s = plan_.link_fail_rate_per_min / 60.0;
  const double gap = rng_.exponential(rate_per_s);
  const double at = std::max(engine_->now() + gap, plan_.start_s);
  if (at >= plan_.stop_s) return;
  engine_->schedule_at(at, [this] {
    net::OverlayLinkIndex l;
    if (pick_live_link(l)) fail_link(l, plan_.link_downtime_s);
    schedule_random_link_fail();
  });
}

void FaultInjector::schedule_sweep() {
  engine_->schedule_after(recovery_.sweep_interval_s, [this] {
    run_reclamation_sweep();
    schedule_sweep();
  });
}

void FaultInjector::notify_node(stream::NodeId n, bool up) {
  for (const NodeHook& hook : node_hooks_) hook(n, up);
}

void FaultInjector::crash_node(stream::NodeId n, double downtime_s) {
  ACP_REQUIRE(n < node_down_.size());
  if (node_down_[n]) return;
  node_down_[n] = true;
  ++nodes_down_;
  count_fault(FaultKind::kNodeCrash);
  if (obs_ != nullptr) {
    obs_->metrics.gauge(obs::metric::kFaultNodesDown).set(static_cast<double>(nodes_down_));
    obs_->tracer.event("fault_injected")
        .field("kind", "node_crash")
        .field("node", static_cast<std::uint64_t>(n))
        .field("downtime_s", downtime_s);
  }
  notify_node(n, false);
  // The crashed node's transient allocations are unreachable; the paper's
  // transient-allocation timeout reclaims them after a grace period.
  engine_->schedule_after(recovery_.reclaim_delay_s, [this, n] {
    const std::size_t reclaimed = sys_->reclaim_node_transients(n, engine_->now());
    if (reclaimed == 0) return;
    transients_reclaimed_ += reclaimed;
    reclaims_.add(reclaimed);
    if (obs_ != nullptr) {
      obs_->metrics.counter(obs::metric::kTransientsReclaimed, {{"scope", "crash"}})
          .add(reclaimed);
      obs_->tracer.event("transients_reclaimed")
          .field("node", static_cast<std::uint64_t>(n))
          .field("count", reclaimed)
          .field("scope", "crash");
    }
  });
  if (downtime_s > 0.0) {
    engine_->schedule_after(downtime_s, [this, n] { restart_node(n); });
  }
}

void FaultInjector::restart_node(stream::NodeId n) {
  ACP_REQUIRE(n < node_down_.size());
  if (!node_down_[n]) return;
  node_down_[n] = false;
  --nodes_down_;
  if (obs_ != nullptr) {
    obs_->metrics.gauge(obs::metric::kFaultNodesDown).set(static_cast<double>(nodes_down_));
    obs_->tracer.event("fault_recovered")
        .field("kind", "node_restart")
        .field("node", static_cast<std::uint64_t>(n));
  }
  notify_node(n, true);
}

void FaultInjector::fail_link(net::OverlayLinkIndex l, double downtime_s) {
  ACP_REQUIRE(l < link_down_.size());
  if (link_down_[l]) return;
  link_down_[l] = true;
  ++links_down_;
  count_fault(FaultKind::kLinkFail);
  if (obs_ != nullptr) {
    obs_->metrics.gauge(obs::metric::kFaultLinksDown).set(static_cast<double>(links_down_));
    obs_->tracer.event("fault_injected")
        .field("kind", "link_fail")
        .field("link", static_cast<std::uint64_t>(l))
        .field("downtime_s", downtime_s);
  }
  if (downtime_s > 0.0) {
    engine_->schedule_after(downtime_s, [this, l] { restore_link(l); });
  }
}

void FaultInjector::restore_link(net::OverlayLinkIndex l) {
  ACP_REQUIRE(l < link_down_.size());
  if (!link_down_[l]) return;
  link_down_[l] = false;
  --links_down_;
  if (obs_ != nullptr) {
    obs_->metrics.gauge(obs::metric::kFaultLinksDown).set(static_cast<double>(links_down_));
    obs_->tracer.event("fault_recovered")
        .field("kind", "link_restore")
        .field("link", static_cast<std::uint64_t>(l));
  }
}

void FaultInjector::degrade_link(net::OverlayLinkIndex l, double factor, double duration_s) {
  ACP_REQUIRE(factor > 0.0 && factor <= 1.0);
  count_fault(FaultKind::kLinkDegrade);
  sys_->link_pool(l).set_capacity_factor(factor);
  if (obs_ != nullptr) {
    obs_->tracer.event("fault_injected")
        .field("kind", "link_degrade")
        .field("link", static_cast<std::uint64_t>(l))
        .field("factor", factor);
  }
  if (duration_s > 0.0) {
    engine_->schedule_after(duration_s, [this, l] {
      sys_->link_pool(l).set_capacity_factor(1.0);
      if (obs_ != nullptr) {
        obs_->tracer.event("fault_recovered")
            .field("kind", "link_degrade")
            .field("link", static_cast<std::uint64_t>(l));
      }
    });
  }
}

void FaultInjector::freeze_state(double duration_s) {
  ACP_REQUIRE(duration_s > 0.0);
  count_fault(FaultKind::kStateFreeze);
  ++freeze_depth_;
  if (obs_ != nullptr) {
    obs_->tracer.event("fault_injected")
        .field("kind", "state_freeze")
        .field("duration_s", duration_s);
  }
  engine_->schedule_after(duration_s, [this] {
    --freeze_depth_;
    if (freeze_depth_ == 0 && obs_ != nullptr) {
      obs_->tracer.event("fault_recovered").field("kind", "state_thaw");
    }
  });
}

void FaultInjector::tear_state() {
  count_fault(FaultKind::kStateTear);
  ++pending_tears_;
  if (obs_ != nullptr) obs_->tracer.event("fault_injected").field("kind", "state_tear");
}

bool FaultInjector::consume_state_tear() {
  if (pending_tears_ == 0) return false;
  --pending_tears_;
  return true;
}

void FaultInjector::leak_transients(std::size_t count, double cpu, double ttl_s) {
  count_fault(FaultKind::kTransientLeak);
  const double now = engine_->now();
  std::size_t placed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    stream::NodeId n;
    if (!pick_live_node(n)) break;
    const stream::RequestId leak_req = next_leak_request_++;
    if (sys_->reserve_node_transient(leak_req, /*tag=*/0, n,
                                     stream::ResourceVector(cpu, cpu * 4.0), now,
                                     now + ttl_s)) {
      ++placed;
    }
  }
  if (obs_ != nullptr) {
    obs_->tracer.event("fault_injected")
        .field("kind", "transient_leak")
        .field("count", placed)
        .field("cpu", cpu)
        .field("ttl_s", ttl_s);
  }
}

std::size_t FaultInjector::run_reclamation_sweep() {
  const double now = engine_->now();
  const std::size_t reclaimed =
      sys_->reclaim_transients_older_than(recovery_.max_transient_age_s, now);
  // Expired records cost only memory, but a sweep is the natural place to
  // drop them too.
  sys_->prune_expired(now);
  if (reclaimed > 0) {
    transients_reclaimed_ += reclaimed;
    reclaims_.add(reclaimed);
    if (obs_ != nullptr) {
      obs_->metrics.counter(obs::metric::kTransientsReclaimed, {{"scope", "sweep"}})
          .add(reclaimed);
      obs_->tracer.event("transients_reclaimed").field("count", reclaimed).field("scope", "sweep");
    }
  }
  return reclaimed;
}

FaultInjector::MessageFate FaultInjector::message_fate(stream::NodeId from, stream::NodeId to) {
  return message_fate(from, to, msg_rng_);
}

FaultInjector::MessageFate FaultInjector::message_fate(stream::NodeId from, stream::NodeId to,
                                                       util::Rng& rng) {
  MessageFate fate;
  if (node_down_[from] || node_down_[to]) {
    fate.lost = true;
    return fate;
  }
  if (links_down_ > 0 && from != to) {
    sys_->mesh().for_each_virtual_link(from, to, [&](net::OverlayLinkIndex l) {
      if (link_down_[l]) fate.lost = true;
    });
    if (fate.lost) return fate;
  }
  if (!stochastic_active()) return fate;
  if (plan_.probe_loss_prob > 0.0 && rng.bernoulli(plan_.probe_loss_prob)) {
    fate.lost = true;
    return fate;
  }
  if (plan_.probe_delay_prob > 0.0 && rng.bernoulli(plan_.probe_delay_prob)) {
    fate.extra_delay_s = rng.exponential(1.0 / plan_.probe_delay_mean_s);
  }
  return fate;
}

}  // namespace acp::fault
