// Micro-benchmarks (google-benchmark) for the building blocks the ACP
// protocol exercises on its hot paths. Not a paper figure — an engineering
// ablation quantifying the cost of each mechanism (DESIGN.md Sec. 5).
//
// Custom main instead of BENCHMARK_MAIN(): --benchmark_* flags go to
// google-benchmark while the repo-wide bench flags (--quick, --bench-out,
// --seed) are handled here, and each benchmark's timing is captured into
// BENCH_micro.json so micro costs ride the same perf trajectory as the
// figure benches.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/candidate_selection.h"
#include "core/search.h"
#include "core/whatif.h"
#include "exp/system_builder.h"
#include "net/routing.h"
#include "net/topology.h"
#include "state/global_state.h"
#include "workload/generator.h"

namespace {

using namespace acp;

// Shared fixture worlds, each built once: the paper-scale 200-node Inet
// world, and fig7_xl --quick's 64×80 torus with 1000 functions, whose
// virtual links run ~34 overlay links instead of 2–4.
struct World {
  exp::SystemConfig cfg;
  exp::Fabric fabric;
  exp::Deployment dep;
  workload::Request request;

  explicit World(bool torus) {
    cfg.seed = 42;
    if (torus) {
      cfg.torus_rows = 64;
      cfg.torus_cols = 80;
      cfg.torus_link_delay_ms = 1.0;
      cfg.function_count = 1000;
    } else {
      cfg.topology.node_count = 1200;
      cfg.overlay.member_count = 200;
    }
    fabric = exp::build_fabric(cfg);
    dep = exp::build_deployment(fabric, cfg);
    util::Rng rng(7);
    gen_ = std::make_unique<workload::RequestGenerator>(
        dep.sys->catalog(), dep.templates, workload::WorkloadConfig{},
        std::vector<workload::RateStep>{{0.0, 60.0}}, fabric.ip.node_count(), rng);
    request = gen_->make_request(0.0);
  }

  static World& instance(bool torus = false) {
    if (torus) {
      static World w(true);
      return w;
    }
    static World w(false);
    return w;
  }

  /// A feasible composition to time: the guided (α = 0.3) composition of
  /// the first generated request that has one.
  const stream::ComponentGraph& composed() {
    const auto& sys = *dep.sys;
    while (!composed_) {
      composed_request_ = gen_->make_request(0.0);
      composed_ = core::guided_search(sys, *composed_request_, 0.3, sys.true_state(),
                                      sys.true_state(), 0.0);
    }
    return *composed_;
  }

 private:
  std::unique_ptr<workload::RequestGenerator> gen_;
  std::optional<workload::Request> composed_request_;  ///< composed_'s graph lives here
  std::optional<stream::ComponentGraph> composed_;
};

void BM_TopologyGenerate(benchmark::State& state) {
  net::TopologyConfig cfg;
  cfg.node_count = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(42);
    auto g = net::generate_power_law_topology(cfg, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
BENCHMARK(BM_TopologyGenerate)->Arg(800)->Arg(3200);

void BM_Dijkstra(benchmark::State& state) {
  util::Rng rng(42);
  net::TopologyConfig cfg;
  cfg.node_count = static_cast<std::size_t>(state.range(0));
  const auto g = net::generate_power_law_topology(cfg, rng);
  net::NodeIndex src = 0;
  for (auto _ : state) {
    auto tree = net::dijkstra(g, src);
    benchmark::DoNotOptimize(tree.distance.back());
    src = (src + 1) % g.node_count();
  }
}
BENCHMARK(BM_Dijkstra)->Arg(800)->Arg(3200);

void BM_VirtualLinkPath(benchmark::State& state) {
  auto& w = World::instance();
  const auto n = w.fabric.mesh->node_count();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& path = w.fabric.mesh->virtual_link_path(
        static_cast<net::OverlayNodeIndex>(i % n),
        static_cast<net::OverlayNodeIndex>((i * 7 + 3) % n));
    benchmark::DoNotOptimize(path.size());
    ++i;
  }
}
BENCHMARK(BM_VirtualLinkPath);

void BM_CandidateFilterAndRank(benchmark::State& state) {
  auto& w = World::instance();
  auto& sys = *w.dep.sys;
  core::HopContext ctx;
  ctx.sys = &sys;
  ctx.req = &w.request;
  ctx.next_fn = 0;
  const auto& candidates = sys.components_providing(w.request.graph.node(0).function);
  for (auto _ : state) {
    auto q = core::filter_qualified(ctx, sys.true_state(), candidates);
    auto best = core::select_best(ctx, sys.true_state(), std::move(q), 2, 0.05);
    benchmark::DoNotOptimize(best.size());
  }
}
BENCHMARK(BM_CandidateFilterAndRank);

// CompositionEvaluator::phi of one feasible composition: demand
// aggregation, the Eq. 4–5 checks and φ.
void BM_PhiEvaluation(benchmark::State& state) {
  auto& w = World::instance(state.range(0) != 0);
  auto& sys = *w.dep.sys;
  const stream::ComponentGraph& g = w.composed();
  stream::CompositionEvaluator eval(sys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.phi(g.function_graph(), g.assignment(), sys.true_state(), 0.0));
  }
}
BENCHMARK(BM_PhiEvaluation)->ArgName("torus")->Arg(0)->Arg(1);

// One virtual link's accumulated QoS, as a per-hop Eq. 6 check reads it.
void BM_VirtualLinkQoS(benchmark::State& state) {
  auto& w = World::instance(state.range(0) != 0);
  const auto& sys = *w.dep.sys;
  const auto n = sys.node_count();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.virtual_link_qos(static_cast<stream::NodeId>(i % n),
                                                  static_cast<stream::NodeId>((i * 7 + 3) % n)));
    ++i;
  }
}
BENCHMARK(BM_VirtualLinkQoS)->ArgName("torus")->Arg(0)->Arg(1);

void BM_ExhaustiveSearch(benchmark::State& state) {
  auto& w = World::instance();
  auto& sys = *w.dep.sys;
  for (auto _ : state) {
    auto best = core::exhaustive_best(sys, w.request, sys.true_state(), 0.0);
    benchmark::DoNotOptimize(best.has_value());
  }
}
BENCHMARK(BM_ExhaustiveSearch);

void BM_GuidedSearch(benchmark::State& state) {
  auto& w = World::instance();
  auto& sys = *w.dep.sys;
  const double alpha = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    auto best =
        core::guided_search(sys, w.request, alpha, sys.true_state(), sys.true_state(), 0.0);
    benchmark::DoNotOptimize(best.has_value());
  }
}
BENCHMARK(BM_GuidedSearch)->Arg(1)->Arg(3)->Arg(10);

void BM_GlobalStateSweep(benchmark::State& state) {
  auto& w = World::instance();
  sim::Engine engine;
  obs::MetricsRegistry counters;
  state::GlobalStateManager mgr(*w.dep.sys, engine, counters);
  mgr.start();
  for (auto _ : state) {
    mgr.run_check_sweep();
  }
}
BENCHMARK(BM_GlobalStateSweep);

void BM_WhatIfReplayStep(benchmark::State& state) {
  auto& w = World::instance();
  auto& sys = *w.dep.sys;
  for (auto _ : state) {
    core::WhatIfView snapshot(sys.true_state());
    auto found = core::guided_search(sys, w.request, 0.3, snapshot, snapshot, 0.0);
    if (found) snapshot.apply_composition(sys, *found);
    benchmark::DoNotOptimize(found.has_value());
  }
}
BENCHMARK(BM_WhatIfReplayStep);

// Bare pools on a rows×cols torus: no components, every node able to host
// a composed request's demand.
struct TorusPools {
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<stream::StreamSystem> sys;

  static TorusPools& instance(std::int64_t rows, std::int64_t cols) {
    static std::map<std::pair<std::int64_t, std::int64_t>, TorusPools> worlds;
    TorusPools& w = worlds[{rows, cols}];
    if (w.sys == nullptr) {
      const auto r = static_cast<std::size_t>(rows);
      const auto c = static_cast<std::size_t>(cols);
      w.mesh = std::make_unique<net::OverlayMesh>(net::OverlayMesh::torus(r, c, 1.0, 1.0e6));
      util::Rng rng(42);
      auto catalog = stream::FunctionCatalog::generate(8, rng);
      w.sys = std::make_unique<stream::StreamSystem>(*w.mesh, std::move(catalog));
      for (stream::NodeId n = 0; n < w.sys->node_count(); ++n) {
        w.sys->set_node_capacity(n, stream::ResourceVector(100.0, 1000.0));
      }
    }
    return w;
  }

  /// Hosts of the k-th composed request: a five-function chain at fixed
  /// offsets from a base node that walks the world, so the footprint (five
  /// node pools, four virtual links of 3–5 hops) is the same at every size.
  std::array<stream::NodeId, 5> hosts(std::uint64_t k) const {
    static constexpr std::array<std::uint32_t, 5> kRowOffset{0, 2, 3, 6, 8};
    static constexpr std::array<std::uint32_t, 5> kColOffset{0, 1, 4, 5, 8};
    const std::uint32_t rows = mesh->torus_rows();
    const std::uint32_t cols = mesh->torus_cols();
    const std::uint64_t base = (k * 7919) % (std::uint64_t{rows} * cols);
    std::array<stream::NodeId, 5> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::uint64_t r = (base / cols + kRowOffset[i]) % rows;
      const std::uint64_t c = (base % cols + kColOffset[i]) % cols;
      out[i] = static_cast<stream::NodeId>(r * cols + c);
    }
    return out;
  }
};

constexpr double kMicroDemandKbps = 100.0;

// StreamSystem::cancel_request of one composed request's transient holds —
// the direct probe perfbench times. Only the cancel is timed.
void BM_CancelRequest(benchmark::State& state) {
  TorusPools& w = TorusPools::instance(state.range(0), state.range(1));
  stream::StreamSystem& sys = *w.sys;
  const stream::ResourceVector demand(1.0, 4.0);
  stream::RequestId request = 0;
  for (auto _ : state) {
    ++request;
    const auto hosts = w.hosts(request);
    std::uint32_t tag = 0;
    for (const stream::NodeId n : hosts) {
      sys.reserve_node_transient(request, tag++, n, demand, 0.0, 60.0);
    }
    for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
      sys.reserve_virtual_link_transient(request, tag++, hosts[i], hosts[i + 1], kMicroDemandKbps,
                                         0.0, 60.0);
    }
    const auto t0 = std::chrono::steady_clock::now();
    sys.cancel_request(request);
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}
BENCHMARK(BM_CancelRequest)->Args({16, 20})->Args({64, 80})->Args({200, 256})->UseManualTime();

// StreamSystem::release_session of one composed request's direct commits.
// Only the release is timed.
void BM_ReleaseSession(benchmark::State& state) {
  TorusPools& w = TorusPools::instance(state.range(0), state.range(1));
  stream::StreamSystem& sys = *w.sys;
  const stream::ResourceVector demand(1.0, 4.0);
  stream::SessionId session = 0;
  for (auto _ : state) {
    ++session;
    const auto hosts = w.hosts(session);
    for (const stream::NodeId n : hosts) sys.commit_node_direct(session, n, demand, 0.0);
    for (std::size_t i = 0; i + 1 < hosts.size(); ++i) {
      sys.commit_virtual_link_direct(session, hosts[i], hosts[i + 1], kMicroDemandKbps, 0.0);
    }
    const auto t0 = std::chrono::steady_clock::now();
    sys.release_session(session);
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}
BENCHMARK(BM_ReleaseSession)->Args({16, 20})->Args({64, 80})->Args({200, 256})->UseManualTime();

// Console output as usual, plus per-benchmark timing kept for the report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      obs::ScopeStats s;
      s.scope = run.benchmark_name();
      s.count = static_cast<std::uint64_t>(run.iterations);
      s.total_s = run.real_accumulated_time;
      s.mean_s = run.iterations > 0
                     ? run.real_accumulated_time / static_cast<double>(run.iterations)
                     : 0.0;
      // google-benchmark reports one aggregate time per benchmark; the
      // quantile columns carry the mean so the schema stays uniform.
      s.p50_s = s.p90_s = s.p99_s = s.max_s = s.mean_s;
      scopes.push_back(std::move(s));
    }
  }

  std::vector<obs::ScopeStats> scopes;
};

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();

  // --benchmark_* flags belong to google-benchmark; everything else is ours.
  std::vector<char*> gb_args{argv[0]};
  std::vector<char*> our_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    (std::strncmp(argv[i], "--benchmark", 11) == 0 ? gb_args : our_args).push_back(argv[i]);
  }
  int our_argc = static_cast<int>(our_args.size());
  const auto opt = acp::benchx::parse_options(our_argc, our_args.data());

  std::string quick_min_time = "--benchmark_min_time=0.01";
  if (opt.quick) gb_args.push_back(quick_min_time.data());
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (opt.bench_enabled()) {
    acp::obs::BenchReport rep;
    rep.name = "micro";
    rep.git_sha = acp::obs::current_git_sha();
    rep.seed = opt.seed;
    rep.quick = opt.quick;
    rep.host = acp::util::host_name();
    rep.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    rep.peak_rss_bytes = acp::util::peak_rss_bytes();  // events_per_sec: no engine here
    rep.runs = static_cast<std::uint64_t>(reporter.scopes.size());
    rep.scopes = std::move(reporter.scopes);
    const std::string path = opt.bench_out.empty() ? "BENCH_micro.json" : opt.bench_out;
    rep.save(path);
    std::printf("(saved bench report to %s)\n", path.c_str());
  }
  return 0;
}
