#include "core/search.h"

#include <algorithm>
#include <map>

namespace acp::core {

namespace {

using stream::ComponentGraph;
using stream::ComponentId;
using stream::FnNodeIndex;
using stream::FunctionGraph;
using stream::QoSVector;
using stream::StreamSystem;

/// Walks one path expanding every qualified continuation (exhaustive) or
/// the best/random M (bounded); shared helper for both search flavors.
struct PathWalkConfig {
  // When set, keep only the best `probe_m(k)` continuations per partial.
  bool bounded = false;
  double alpha = 1.0;
  double risk_eps = 0.05;
  std::size_t beam_cap = 0;  ///< 0 = unlimited
};

std::vector<PathAssignment> walk_path(const StreamSystem& sys, const workload::Request& req,
                                      const std::vector<FnNodeIndex>& path,
                                      const stream::StateView& view, double now,
                                      const PathWalkConfig& cfg) {
  std::vector<PathAssignment> partials(1);  // one empty prefix
  const FunctionGraph& fg = req.graph;
  std::vector<ScoredCandidate> qualified;  // one prefix's pass, reused

  for (std::size_t level = 0; level < path.size(); ++level) {
    const FnNodeIndex fn = path[level];
    const auto& candidates = sys.components_providing(fg.node(fn).function);
    std::vector<PathAssignment> next;

    for (const PathAssignment& prefix : partials) {
      HopContext ctx;
      ctx.sys = &sys;
      ctx.req = &req;
      ctx.accumulated = prefix.accumulated;
      ctx.now = now;
      ctx.next_fn = fn;
      if (level > 0) {
        ctx.has_upstream = true;
        const ComponentId prev = prefix.components.back();
        ctx.current_node = sys.component(prev).node;
        ctx.current_function = sys.component(prev).function;
        ctx.edge_bw_kbps = fg.edge(fg.find_edge(path[level - 1], fn)).required_bandwidth_kbps;
      }

      qualified.clear();
      filter_qualified_into(ctx, view, candidates, qualified);
      if (cfg.bounded) {
        select_best_into(qualified, probe_count(candidates.size(), cfg.alpha), cfg.risk_eps);
      }

      for (const ScoredCandidate& q : qualified) {
        const ComponentId c = q.id;
        PathAssignment ext = prefix;
        ext.components.push_back(c);
        const stream::Component& comp = sys.component(c);
        ext.accumulated += comp.qos;
        if (ctx.has_upstream) ext.accumulated += sys.virtual_link_qos(ctx.current_node, comp.node);
        next.push_back(std::move(ext));
        if (cfg.beam_cap > 0 && next.size() >= cfg.beam_cap) break;
      }
      if (cfg.beam_cap > 0 && next.size() >= cfg.beam_cap) break;
    }
    partials = std::move(next);
    if (partials.empty()) break;  // dead end at this level
  }
  return partials;
}

}  // namespace

std::vector<ComponentGraph> merge_path_assignments(
    const FunctionGraph& fg, const std::vector<std::vector<FnNodeIndex>>& paths,
    const std::vector<std::vector<PathAssignment>>& per_path, std::size_t cap, bool* cap_hit) {
  ACP_REQUIRE(paths.size() == per_path.size());
  if (cap_hit) *cap_hit = false;
  std::vector<ComponentGraph> result;
  if (paths.empty()) return result;

  // Incremental cross-product over paths; a combination survives only if
  // paths agree on every shared function node.
  struct Partial {
    std::vector<ComponentId> assignment;  // per fn node; kNoComponent unset
  };
  std::vector<Partial> partials{Partial{std::vector<ComponentId>(fg.node_count(),
                                                                 stream::kNoComponent)}};
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::vector<Partial> next;
    for (const Partial& base : partials) {
      for (const PathAssignment& pa : per_path[p]) {
        if (pa.components.size() != paths[p].size()) continue;  // incomplete walk
        Partial merged = base;
        bool ok = true;
        for (std::size_t i = 0; i < paths[p].size(); ++i) {
          ComponentId& slot = merged.assignment[paths[p][i]];
          if (slot == stream::kNoComponent) {
            slot = pa.components[i];
          } else if (slot != pa.components[i]) {
            ok = false;  // disagreement on a shared node (split/merge)
            break;
          }
        }
        if (!ok) continue;
        next.push_back(std::move(merged));
        if (next.size() >= cap) {
          if (cap_hit) *cap_hit = true;
          break;
        }
      }
      if (next.size() >= cap) break;
    }
    partials = std::move(next);
    if (partials.empty()) return result;
  }

  result.reserve(partials.size());
  for (const Partial& p : partials) {
    ComponentGraph g(fg);
    bool complete = true;
    for (FnNodeIndex i = 0; i < fg.node_count(); ++i) {
      if (p.assignment[i] == stream::kNoComponent) {
        complete = false;
        break;
      }
      g.assign(i, p.assignment[i]);
    }
    if (complete) result.push_back(std::move(g));
  }
  return result;
}

std::vector<std::pair<double, std::size_t>> score_qualified(
    stream::CompositionEvaluator& eval, const workload::Request& req,
    const stream::FnPaths& paths, const std::vector<ComponentGraph>& graphs,
    const stream::StateView& view, double now) {
  std::vector<std::pair<double, std::size_t>> scored;
  const auto batch = eval.batch(view, now);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto phi = eval.evaluate(graphs[i], paths, req.qos_req, req.policy, view, now);
    if (phi) scored.emplace_back(*phi, i);
  }
  return scored;
}

namespace {

/// The shared min-φ selection over merged candidates: the head of the
/// (φ, index) ranking.
std::optional<ComponentGraph> min_phi(stream::CompositionEvaluator& eval,
                                      const workload::Request& req, const stream::FnPaths& paths,
                                      std::vector<ComponentGraph>& graphs,
                                      const stream::StateView& view, double now,
                                      SearchStats* stats) {
  const auto scored = score_qualified(eval, req, paths, graphs, view, now);
  if (stats) {
    stats->examined += graphs.size();
    stats->qualified += scored.size();
  }
  if (scored.empty()) return std::nullopt;
  return std::move(graphs[std::min_element(scored.begin(), scored.end())->second]);
}

/// Independent (no cross-component aggregation) congestion estimate of a
/// path assignment — a provable LOWER bound on the assignment's contribution
/// to φ, because co-location/link sharing only shrinks residuals and thus
/// only increases true terms. `skip` marks path positions to exclude (used
/// to avoid double-counting shared nodes across branch paths).
double independent_phi_bound(const StreamSystem& sys, const workload::Request& req,
                             const std::vector<FnNodeIndex>& path, const PathAssignment& pa,
                             const stream::StateView& view, double now,
                             const std::vector<bool>& skip) {
  double est = 0.0;
  const FunctionGraph& fg = req.graph;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (skip[i]) continue;
    const auto& required = fg.node(path[i]).required;
    const stream::ResourceVector avail =
        view.node_available(sys.component(pa.components[i]).node, now);
    est += stream::congestion_terms(required, avail - required);
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const stream::NodeId a = sys.component(pa.components[i]).node;
    const stream::NodeId b = sys.component(pa.components[i + 1]).node;
    if (a == b) continue;
    const double bw = fg.edge(fg.find_edge(path[i], path[i + 1])).required_bandwidth_kbps;
    const double avail = view.virtual_link_available_kbps(sys.mesh(), a, b, now);
    est += stream::congestion_term(bw, avail - bw);
  }
  return est;
}

}  // namespace

std::optional<ComponentGraph> exhaustive_best(const StreamSystem& sys,
                                              const workload::Request& req,
                                              const stream::StateView& view, double now,
                                              SearchStats* stats, std::size_t combo_cap) {
  const auto paths = req.graph.enumerate_paths();
  ACP_REQUIRE(!paths.empty());
  std::vector<std::vector<PathAssignment>> per_path;
  PathWalkConfig cfg;  // unbounded: every qualified continuation
  cfg.beam_cap = combo_cap;
  for (const auto& path : paths) {
    per_path.push_back(walk_path(sys, req, path, view, now, cfg));
    if (per_path.back().empty()) return std::nullopt;  // some path has no feasible assignment
  }

  stream::CompositionEvaluator eval(sys);
  // Generalized pairwise join for the paper's two-branch DAGs; >2 paths fall
  // back to full merge and the shared min-φ selection (the template
  // generator never produces them).
  if (paths.size() > 2) {
    auto graphs = merge_path_assignments(req.graph, paths, per_path, combo_cap, nullptr);
    return min_phi(eval, req, paths, graphs, view, now, stats);
  }

  // The walk already enforced Eq. 2, interfaces, policy and Eq. 3 per path,
  // so each full assignment needs only Eqs. 4–5 and φ, all in one batch.
  const auto batch = eval.batch(view, now);
  std::optional<std::vector<ComponentId>> best_assignment;
  double best_phi = std::numeric_limits<double>::infinity();
  std::size_t evals = 0;

  auto consider = [&](const std::vector<ComponentId>& assignment, double lower_bound) -> bool {
    // Returns false when the caller may stop (bound proves no improvement).
    if (lower_bound >= best_phi) return false;
    ++evals;
    if (stats) ++stats->examined;
    const auto phi = eval.phi(req.graph, assignment, view, now);
    if (phi) {
      if (stats) ++stats->qualified;
      if (*phi < best_phi) {
        best_phi = *phi;
        best_assignment = assignment;
      }
    }
    return true;
  };

  const std::vector<bool> no_skip_0(paths[0].size(), false);

  if (paths.size() == 1) {
    // Single path: evaluate in ascending lower-bound order; the bound makes
    // early termination exact.
    struct Entry {
      double bound;
      const PathAssignment* pa;
    };
    std::vector<Entry> entries;
    entries.reserve(per_path[0].size());
    for (const auto& pa : per_path[0]) {
      entries.push_back({independent_phi_bound(sys, req, paths[0], pa, view, now, no_skip_0),
                         &pa});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.bound < b.bound; });
    std::vector<ComponentId> assignment(req.graph.node_count());
    for (const auto& e : entries) {
      if (evals >= combo_cap) break;
      for (std::size_t i = 0; i < paths[0].size(); ++i) {
        assignment[paths[0][i]] = e.pa->components[i];
      }
      if (!consider(assignment, e.bound)) break;
    }
  } else {
    // Two paths (DAG): bucket path assignments by their values on shared
    // function nodes, then best-first join within compatible buckets.

    // Shared fn nodes between the two paths.
    std::vector<bool> shared1(paths[1].size(), false);
    std::vector<FnNodeIndex> shared_nodes;
    for (std::size_t j = 0; j < paths[1].size(); ++j) {
      for (FnNodeIndex n0 : paths[0]) {
        if (paths[1][j] == n0) {
          shared1[j] = true;
          shared_nodes.push_back(paths[1][j]);
          break;
        }
      }
    }

    struct Scored {
      double bound;
      const PathAssignment* pa;
    };
    // Bucket key: components at shared nodes, in shared_nodes order.
    using Key = std::vector<ComponentId>;
    auto key_of = [&](const std::vector<FnNodeIndex>& path, const PathAssignment& pa) {
      Key key;
      key.reserve(shared_nodes.size());
      for (FnNodeIndex sn : shared_nodes) {
        for (std::size_t i = 0; i < path.size(); ++i) {
          if (path[i] == sn) {
            key.push_back(pa.components[i]);
            break;
          }
        }
      }
      return key;
    };

    std::map<Key, std::pair<std::vector<Scored>, std::vector<Scored>>> buckets;
    for (const auto& pa : per_path[0]) {
      buckets[key_of(paths[0], pa)].first.push_back(
          {independent_phi_bound(sys, req, paths[0], pa, view, now, no_skip_0), &pa});
    }
    for (const auto& pa : per_path[1]) {
      // Skip shared nodes in path 1's bound: path 0 already counts them.
      const auto key = key_of(paths[1], pa);
      const auto it = buckets.find(key);
      if (it == buckets.end()) continue;  // no compatible partner
      it->second.second.push_back(
          {independent_phi_bound(sys, req, paths[1], pa, view, now, shared1), &pa});
    }

    std::vector<ComponentId> assignment(req.graph.node_count());
    bool stop_all = false;
    for (auto& [key, pair] : buckets) {
      (void)key;
      auto& [as, bs] = pair;
      if (as.empty() || bs.empty()) continue;
      auto by_bound = [](const Scored& x, const Scored& y) { return x.bound < y.bound; };
      std::sort(as.begin(), as.end(), by_bound);
      std::sort(bs.begin(), bs.end(), by_bound);
      // Row-sweep with bound cutoffs: rows and columns are sorted, so once
      // a row's first column fails the bound the remaining rows fail too.
      for (const auto& a : as) {
        if (a.bound + bs[0].bound >= best_phi) break;
        for (const auto& b : bs) {
          if (evals >= combo_cap) {
            stop_all = true;
            break;
          }
          const double bound = a.bound + b.bound;
          if (bound >= best_phi) break;
          for (std::size_t i = 0; i < paths[0].size(); ++i) {
            assignment[paths[0][i]] = a.pa->components[i];
          }
          for (std::size_t i = 0; i < paths[1].size(); ++i) {
            assignment[paths[1][i]] = b.pa->components[i];
          }
          consider(assignment, bound);
        }
        if (stop_all) break;
      }
      if (stop_all) break;
    }
  }

  if (!best_assignment) return std::nullopt;
  ComponentGraph g(req.graph);
  for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) g.assign(i, (*best_assignment)[i]);
  return g;
}

std::uint64_t exhaustive_probe_count(const StreamSystem& sys, const workload::Request& req) {
  std::uint64_t total = 0;
  for (const auto& path : req.graph.enumerate_paths()) {
    std::uint64_t level_product = 1;
    for (FnNodeIndex fn : path) {
      const std::size_t k = sys.components_providing(req.graph.node(fn).function).size();
      if (k == 0) break;  // nothing to probe beyond this level
      level_product *= k;
      total += level_product;
    }
  }
  return total;
}

std::optional<ComponentGraph> random_assignment(const StreamSystem& sys,
                                                const workload::Request& req, util::Rng& rng) {
  ComponentGraph g(req.graph);
  for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) {
    const auto& candidates = sys.components_providing(req.graph.node(i).function);
    if (candidates.empty()) return std::nullopt;
    g.assign(i, candidates[rng.below(candidates.size())]);
  }
  return g;
}

std::optional<ComponentGraph> static_assignment(const StreamSystem& sys,
                                                const workload::Request& req) {
  ComponentGraph g(req.graph);
  for (FnNodeIndex i = 0; i < req.graph.node_count(); ++i) {
    const auto& candidates = sys.components_providing(req.graph.node(i).function);
    if (candidates.empty()) return std::nullopt;
    g.assign(i, *std::min_element(candidates.begin(), candidates.end()));
  }
  return g;
}

std::optional<ComponentGraph> guided_search(const StreamSystem& sys, const workload::Request& req,
                                            double alpha, const stream::StateView& decision_view,
                                            const stream::StateView& eval_view, double now,
                                            double risk_eps, SearchStats* stats,
                                            std::size_t beam_cap) {
  const auto paths = req.graph.enumerate_paths();
  std::vector<std::vector<PathAssignment>> per_path;
  PathWalkConfig cfg;
  cfg.bounded = true;
  cfg.alpha = alpha;
  cfg.risk_eps = risk_eps;
  cfg.beam_cap = beam_cap;
  for (const auto& path : paths) {
    per_path.push_back(walk_path(sys, req, path, decision_view, now, cfg));
  }
  auto graphs = merge_path_assignments(req.graph, paths, per_path, beam_cap, nullptr);
  stream::CompositionEvaluator eval(sys);
  return min_phi(eval, req, paths, graphs, eval_view, now, stats);
}

}  // namespace acp::core
