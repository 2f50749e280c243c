#include "perfbench.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "core/search.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace acp::perfbench {

namespace {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The worlds are part of each workload's definition: the figure benches'
// default seed builds them. The workload seed drives the request stream.
constexpr std::uint64_t kWorldSeed = 42;

// fig7_xl --quick's world: a 64×80 torus with 1 ms hops and 1000 functions.
exp::SystemConfig xl_system(bool tiny) {
  exp::SystemConfig cfg;
  cfg.seed = kWorldSeed;
  cfg.torus_rows = tiny ? 8 : 64;
  cfg.torus_cols = tiny ? 10 : 80;
  cfg.torus_link_delay_ms = 1.0;
  cfg.function_count = tiny ? 20 : 1000;
  return cfg;
}

// A timed run cycles through this many request streams of its workload.
// fig8's cost per request moves ≈ 15% (quartiles) from seed to seed, the
// torus trial's ≈ 5% (README.md, "What earlier benchmark definitions got
// wrong").
constexpr std::size_t kXlStreams = 4;
constexpr std::size_t kFig8Streams = 8;
// Far past any seed a caller types, so two seeds share no stream.
constexpr std::uint64_t kStreamSeedStride = 1000003;

// fig7_xl --quick's ACP trial at 240 req/min, with that bench's run seed.
exp::ExperimentConfig xl_trial(std::uint64_t seed, bool tiny) {
  exp::ExperimentConfig cfg;
  cfg.algorithm = exp::Algorithm::kAcp;
  cfg.alpha = 0.3;
  cfg.duration_minutes = tiny ? 2.0 : 10.0;
  cfg.schedule = {{0.0, tiny ? 60.0 : 240.0}};
  cfg.run_seed = seed + 7100;
  return cfg;
}

// Fig 8's paper world: 3200-node Inet graph, 400-node overlay, 80
// functions (tiny: 300 / 40 / 20).
exp::SystemConfig fig8_system(bool tiny) {
  exp::SystemConfig cfg;
  cfg.seed = kWorldSeed;
  cfg.topology.node_count = tiny ? 300 : 3200;
  cfg.overlay.member_count = tiny ? 40 : 400;
  if (tiny) cfg.function_count = 20;
  return cfg;
}

// Fig 8(a)'s trial: fig8's demand scaling, its 40→80→60 req/min steps at ⅓
// and ⅔ of the run, fixed α = 0.3 and fig8's run seed, on fig8 --quick's
// 60-minute compression of the paper's 150 minutes, so a 25 s run holds
// six or more trials. Fig 8(b)'s adaptive arm is left out: its message
// overhead and run time follow the tuner's α path, which changes
// chaotically with the seed (README.md, "Why fig8_observed runs fixed α").
exp::ExperimentConfig fig8_trial(std::uint64_t seed, bool tiny) {
  const double duration = tiny ? 6.0 : 60.0;
  const double scale = duration / 150.0;
  exp::ExperimentConfig cfg;
  cfg.algorithm = exp::Algorithm::kAcp;
  cfg.alpha = 0.3;
  cfg.workload.min_cpu = 1.5;
  cfg.workload.max_cpu = 5.0;
  cfg.workload.min_memory_mb = 8.0;
  cfg.workload.max_memory_mb = 25.0;
  cfg.duration_minutes = duration;
  cfg.schedule = {{0.0, 40.0}, {50.0 * scale, 80.0}, {100.0 * scale, 60.0}};
  cfg.sample_period_minutes = 5.0 * scale;
  cfg.run_seed = seed + 900;
  return cfg;
}

TrialOutcome summarize(const exp::ExperimentResult& res, const exp::ExperimentConfig& cfg,
                       double wall_s, double cpu_s) {
  TrialOutcome t;
  t.requests = res.requests;
  t.successes = res.successes;
  t.sessions_completed = res.sessions_completed;
  t.sessions_lost = res.sessions_lost;
  t.success_pct = 100.0 * res.success_rate;
  t.mean_phi = res.mean_phi;
  t.overhead_per_minute = res.overhead_per_minute;
  const double window_min = cfg.duration_minutes - cfg.warmup_minutes;
  t.msgs_per_request =
      res.requests == 0 ? 0.0
                        : res.overhead_per_minute * window_min / static_cast<double>(res.requests);
  t.wall_s = wall_s;
  t.cpu_s = cpu_s;
  return t;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"xl_serial", "xl_sharded", "fig8_observed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "xl_serial" || name == "xl_sharded") {
    w.system = xl_system(tiny);
    w.experiment = xl_trial(seed, tiny);
    if (name == "xl_sharded") w.experiment.shards = 4;
  } else if (name == "fig8_observed") {
    w.system = fig8_system(tiny);
    w.experiment = fig8_trial(seed, tiny);
    w.observed = true;
  } else {
    throw PreconditionError("unknown workload: " + name);
  }
  const std::size_t streams = w.observed ? kFig8Streams : kXlStreams;
  for (std::size_t j = 0; j < streams; ++j) {
    w.stream_run_seeds.push_back(w.experiment.run_seed + j * kStreamSeedStride);
  }
  return w;
}

TrialOutcome run_trial(const exp::Fabric& fabric, const exp::SystemConfig& system,
                       const exp::ExperimentConfig& cfg) {
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const exp::ExperimentResult res = exp::run_experiment(fabric, system, cfg);
  const double wall = seconds_since(t0);
  return summarize(res, cfg, wall, process_cpu_s() - cpu0);
}

std::vector<std::string> check_trial(const TrialOutcome& t) {
  std::vector<std::string> problems;
  if (t.requests == 0) problems.emplace_back("no measured requests");
  if (t.successes > t.requests) problems.emplace_back("successes exceed requests");
  if (t.sessions_completed + t.sessions_lost > t.successes) {
    problems.emplace_back("completed + lost sessions exceed successes");
  }
  if (!std::isfinite(t.mean_phi)) problems.emplace_back("mean phi is not finite");
  if (!std::isfinite(t.msgs_per_request) || t.msgs_per_request < 0.0) {
    problems.emplace_back("messages per request is not a finite count");
  }
  return problems;
}

bool same_outputs(const TrialOutcome& a, const TrialOutcome& b) {
  return a.requests == b.requests && a.successes == b.successes &&
         a.sessions_completed == b.sessions_completed && a.sessions_lost == b.sessions_lost &&
         a.success_pct == b.success_pct && a.mean_phi == b.mean_phi &&
         a.msgs_per_request == b.msgs_per_request;
}

TrialOutcome combine(const std::vector<TrialOutcome>& streams) {
  TrialOutcome all;
  double phi_sum = 0.0;
  double msgs = 0.0;
  for (const TrialOutcome& t : streams) {
    all.requests += t.requests;
    all.successes += t.successes;
    all.sessions_completed += t.sessions_completed;
    all.sessions_lost += t.sessions_lost;
    phi_sum += t.mean_phi * static_cast<double>(t.successes);
    msgs += t.msgs_per_request * static_cast<double>(t.requests);
    all.overhead_per_minute += t.overhead_per_minute / static_cast<double>(streams.size());
    all.wall_s += t.wall_s;
    all.cpu_s += t.cpu_s;
  }
  const auto requests = static_cast<double>(all.requests);
  all.success_pct = all.requests == 0 ? 0.0 : 100.0 * static_cast<double>(all.successes) / requests;
  all.mean_phi = all.successes == 0 ? 0.0 : phi_sum / static_cast<double>(all.successes);
  all.msgs_per_request = all.requests == 0 ? 0.0 : msgs / requests;
  return all;
}

exp::Fabric time_setups(const exp::SystemConfig& cfg, std::size_t min_builds, double min_seconds,
                        std::size_t max_builds, SetupTiming& into) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t builds = 1;; ++builds) {
    auto t0 = std::chrono::steady_clock::now();
    exp::Fabric fabric = exp::build_fabric(cfg);
    const double f = seconds_since(t0);
    double d = 0.0;
    {
      t0 = std::chrono::steady_clock::now();
      const exp::Deployment dep = exp::build_deployment(fabric, cfg);
      d = seconds_since(t0);
    }
    into.fabric_s.add(f);
    into.deployment_s.add(d);
    into.total_s.add(f + d);
    if (builds >= max_builds || (builds >= min_builds && seconds_since(start) >= min_seconds)) {
      return fabric;
    }
  }
}

DirectProbes run_direct_probes(const exp::Fabric& fabric, const Workload& w,
                               std::size_t sample_requests) {
  const exp::ExperimentConfig& cfg = w.experiment;
  exp::Deployment dep = exp::build_deployment(fabric, w.system);
  stream::StreamSystem& sys = *dep.sys;

  // The trial's own arrival stream, derived as exp::run_experiment does.
  util::Rng run_rng(cfg.run_seed ^ (w.system.seed * 0x9e3779b97f4a7c15ULL));
  workload::RequestGenerator gen(sys.catalog(), dep.templates, cfg.workload, cfg.schedule,
                                 fabric.ip.node_count(), run_rng.split(1));

  // One composed request's node and link footprint.
  struct Footprint {
    std::vector<std::pair<stream::NodeId, stream::ResourceVector>> nodes;
    struct Link {
      stream::NodeId a = 0;
      stream::NodeId b = 0;
      double kbps = 0.0;
    };
    std::vector<Link> links;
  };
  std::vector<Footprint> footprints;
  util::Percentiles search_ms;
  double now = 0.0;
  for (std::size_t i = 0; i < sample_requests; ++i) {
    now += gen.next_interarrival(now);
    const workload::Request req = gen.make_request(now);
    const auto t0 = std::chrono::steady_clock::now();
    const std::optional<stream::ComponentGraph> best =
        core::guided_search(sys, req, 0.3, sys.true_state(), sys.true_state(), now);
    search_ms.add(seconds_since(t0) * 1e3);
    if (!best) continue;
    const stream::FunctionGraph& fg = req.graph;
    auto host = [&](stream::FnNodeIndex fn) { return sys.component(best->component_at(fn)).node; };
    Footprint& f = footprints.emplace_back();
    for (stream::FnNodeIndex fn = 0; fn < fg.node_count(); ++fn) {
      f.nodes.emplace_back(host(fn), fg.node(fn).required);
    }
    for (stream::FnEdgeIndex e = 0; e < fg.edge_count(); ++e) {
      const stream::FnEdge& edge = fg.edge(e);
      f.links.push_back({host(edge.from), host(edge.to), edge.required_bandwidth_kbps});
    }
  }

  DirectProbes p;
  p.searched = sample_requests;
  p.composed = footprints.size();
  if (sample_requests > 0) p.guided_search_ms = search_ms.median();
  if (footprints.empty()) return p;

  // Each call is timed on a world holding exactly one request's footprint,
  // cycling through the composed sample.
  constexpr std::size_t kCalls = 256;
  util::Percentiles cancel_us;
  util::Percentiles release_us;
  const double expires = now + 3600.0;
  for (std::size_t k = 0; k < kCalls; ++k) {
    const Footprint& f = footprints[k % footprints.size()];
    const stream::RequestId request = k + 1;
    const stream::SessionId session = k + 1;
    std::uint32_t tag = 0;
    for (const auto& [node, demand] : f.nodes) {
      sys.reserve_node_transient(request, tag++, node, demand, now, expires);
    }
    for (const Footprint::Link& l : f.links) {
      sys.reserve_virtual_link_transient(request, tag++, l.a, l.b, l.kbps, now, expires);
    }
    auto t0 = std::chrono::steady_clock::now();
    sys.cancel_request(request);
    cancel_us.add(seconds_since(t0) * 1e6);

    for (const auto& [node, demand] : f.nodes) sys.commit_node_direct(session, node, demand, now);
    for (const Footprint::Link& l : f.links) {
      sys.commit_virtual_link_direct(session, l.a, l.b, l.kbps, now);
    }
    t0 = std::chrono::steady_clock::now();
    sys.release_session(session);
    release_us.add(seconds_since(t0) * 1e6);
  }
  p.cancel_request_us = cancel_us.median();
  p.release_session_us = release_us.median();
  return p;
}

Tally tally(const std::vector<TrialOutcome>& trials, const std::vector<std::string>& problems) {
  Tally t;
  std::uint64_t requests = 0;
  for (const TrialOutcome& o : trials) requests += o.requests;
  t.attempted = std::max<std::uint64_t>(requests, 1);
  t.correct = problems.empty() && !trials.empty();
  t.failed = t.correct ? 0 : t.attempted;
  return t;
}

std::string result_json(const Tally& t, const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += t.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[40];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  out += "}}";
  return out;
}

std::size_t SpanLog::begin(std::string name, std::size_t parent) {
  spans_.push_back(Span{std::move(name), parent, now_s(), 0.0});
  return spans_.size() - 1;
}

double SpanLog::end(std::size_t id) {
  Span& s = spans_.at(id);
  s.end_s = now_s();
  return s.end_s - s.start_s;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\": " << i << ", \"parent\": ";
    if (s.parent == kRoot) {
      os << "null";
    } else {
      os << s.parent;
    }
    std::snprintf(buf, sizeof(buf), "%.9f", s.start_s);
    os << ", \"name\": \"" << s.name << "\", \"start_s\": " << buf;
    std::snprintf(buf, sizeof(buf), "%.9f", s.end_s);
    os << ", \"end_s\": " << buf << "}\n";
  }
}

double SpanLog::now_s() const { return seconds_since(origin_); }

}  // namespace acp::perfbench
