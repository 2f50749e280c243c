#include "core/search.h"

#include <algorithm>
#include <limits>

namespace acp::core {

namespace {

using stream::ComponentGraph;
using stream::ComponentId;
using stream::FnEdgeIndex;
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

/// The join stops once the next bound exceeds the best φ by this relative
/// margin. A bound sums the same per-term lower bounds as φ's terms in
/// another order, which costs a few ulps, not 1e-9.
constexpr double kBoundSlack = 1e-9;

}  // namespace

bool BestPhiJoin::plan(const FunctionGraph& fg, const stream::FnPaths& paths) {
  util::SmallVec<std::uint8_t, 16> covered;
  covered.resize(fg.node_count());
  for (std::size_t p = 0; p < 2; ++p) {
    shared_[p].clear();
    own_nodes_[p].clear();
    own_edges_[p].clear();
  }
  // Path 0 counts all its terms; path 1 only the nodes and edges path 0
  // lacks, so a term shared by both paths enters one bound.
  util::SmallVec<FnEdgeIndex, 16> edges0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const auto& path = paths[p];
    for (std::uint32_t pos = 0; pos < path.size(); ++pos) {
      const auto on_0 = p == 0 ? paths[0].end()
                               : std::find(paths[0].begin(), paths[0].end(), path[pos]);
      if (p == 1 && on_0 != paths[0].end()) {
        shared_[0].push_back(static_cast<std::uint32_t>(on_0 - paths[0].begin()));
        shared_[1].push_back(pos);
      } else {
        own_nodes_[p].push_back({pos, path[pos]});
      }
      covered[path[pos]] = 1;
      if (pos + 1 == path.size()) continue;
      const FnEdgeIndex e = fg.find_edge(path[pos], path[pos + 1]);
      if (p == 0) edges0.push_back(e);
      if (p == 1 && std::find(edges0.begin(), edges0.end(), e) != edges0.end()) continue;
      own_edges_[p].push_back({pos, e});
    }
  }
  return std::find(covered.begin(), covered.end(), 0) == covered.end();
}

double BestPhiJoin::bound(stream::CompositionEvaluator& eval, const FunctionGraph& fg,
                          std::size_t p, const PathAssignment& pa) const {
  const StreamSystem& sys = eval.system();
  const auto host = [&](std::uint32_t pos) { return sys.component(pa.components[pos]).node; };
  double b = 0.0;
  for (const Term& n : own_nodes_[p]) {
    b += eval.node_term_bound(fg.node(n.index).required, host(n.pos));
  }
  for (const Term& e : own_edges_[p]) {
    b += eval.edge_term_bound(fg.edge(e.index).required_bandwidth_kbps, host(e.pos),
                              host(e.pos + 1));
  }
  return b;
}

int BestPhiJoin::compare_key(const PathAssignment& x, std::size_t px, const PathAssignment& y,
                             std::size_t py) const {
  for (std::size_t k = 0; k < shared_[0].size(); ++k) {
    const ComponentId cx = x.components[shared_[px][k]];
    const ComponentId cy = y.components[shared_[py][k]];
    if (cx != cy) return cx < cy ? -1 : 1;
  }
  return 0;
}

void BestPhiJoin::add_lane(std::uint32_t row_begin, std::uint32_t row_end,
                           const Bucket& bucket, std::size_t limit) {
  const auto col_begin = static_cast<std::uint32_t>(lane_cols_.size());
  for (std::uint32_t i = bucket.begin; i < bucket.end && cols_[i].order < limit; ++i) {
    if (cols_[i].bound != std::numeric_limits<double>::infinity()) lane_cols_.push_back(cols_[i]);
  }
  const auto col_end = static_cast<std::uint32_t>(lane_cols_.size());
  if (row_begin == row_end || col_begin == col_end) return;
  std::sort(lane_cols_.begin() + col_begin, lane_cols_.end(), [](const Entry& x, const Entry& y) {
    return x.bound != y.bound ? x.bound < y.bound : x.order < y.order;
  });
  lanes_.push_back({row_begin, row_end, col_begin, col_end});
  push(static_cast<std::uint32_t>(lanes_.size() - 1), 0, 0);
}

bool BestPhiJoin::later(const Next& x, const Next& y) {
  return x.bound != y.bound ? x.bound > y.bound : x.index > y.index;
}

void BestPhiJoin::push(std::uint32_t lane, std::uint32_t row, std::uint32_t col) {
  const Lane& l = lanes_[lane];
  const Entry& r = rows_[l.row_begin + row];
  const Entry& c = lane_cols_[l.col_begin + col];
  frontier_.push_back({r.bound + c.bound, r.order + c.order, lane, row, col});
  std::push_heap(frontier_.begin(), frontier_.end(), later);
}

JoinBest BestPhiJoin::run(stream::CompositionEvaluator& eval, const workload::Request& req,
                          const stream::FnPaths& paths,
                          const std::vector<std::vector<PathAssignment>>& per_path,
                          std::size_t cap, const stream::StateView& view, double now,
                          Checks checks) {
  ACP_REQUIRE(paths.size() == per_path.size());
  ACP_REQUIRE_MSG(paths.size() <= 2, "the join pairs at most two paths");
  ACP_REQUIRE(cap >= 1);
  JoinBest out;
  if (paths.empty()) return out;
  const FunctionGraph& fg = req.graph;
  const bool two = paths.size() == 2;
  const bool covers = plan(fg, paths);
  const auto batch = eval.batch(view, now);

  // Path 1's complete assignments, bucketed by their components at the
  // shared nodes; a bucket keeps path order, which is the merge order of one
  // path-0 assignment's partners. One path: one bucket of one empty column.
  cols_.clear();
  buckets_.clear();
  if (two) {
    for (const PathAssignment& pa : per_path[1]) {
      if (pa.components.size() == paths[1].size()) cols_.push_back({&pa, 0.0, cols_.size(), 0});
    }
    std::sort(cols_.begin(), cols_.end(), [&](const Entry& x, const Entry& y) {
      const int c = compare_key(*x.pa, 1, *y.pa, 1);
      return c != 0 ? c < 0 : x.order < y.order;
    });
    for (std::uint32_t i = 0; i < cols_.size(); ++i) {
      if (i == 0 || compare_key(*cols_[i - 1].pa, 1, *cols_[i].pa, 1) != 0) {
        buckets_.push_back({i, i, false});
      }
      Bucket& b = buckets_.back();
      b.end = i + 1;
      cols_[i].order = i - b.begin;
    }
  } else {
    cols_.push_back({});
    buckets_.push_back({0, 1, true});
  }

  // Path 0's complete assignments in merge order, as merge_path_assignments
  // caps them: the first `cap` of them, partnered with their buckets until
  // `cap` candidates are merged. Only the last partnered row can be cut
  // short of its bucket.
  rows_.clear();
  std::optional<Entry> cut;
  std::size_t cut_limit = 0;
  std::size_t complete = 0;
  std::size_t merged = 0;
  for (const PathAssignment& pa : per_path[0]) {
    if (pa.components.size() != paths[0].size()) continue;
    auto bucket = buckets_.begin();
    if (two) {
      bucket = std::lower_bound(buckets_.begin(), buckets_.end(), pa,
                                [&](const Bucket& b, const PathAssignment& x) {
                                  return compare_key(*cols_[b.begin].pa, 1, x, 0) < 0;
                                });
      if (bucket != buckets_.end() && compare_key(*cols_[bucket->begin].pa, 1, pa, 0) != 0) {
        bucket = buckets_.end();
      }
    }
    if (bucket != buckets_.end()) {
      const std::size_t size = bucket->end - bucket->begin;
      const std::size_t take = std::min(size, cap - merged);
      const Entry row{&pa, 0.0, merged, static_cast<std::uint32_t>(bucket - buckets_.begin())};
      if (take == size) {
        rows_.push_back(row);
      } else {
        cut = row;
        cut_limit = take;
      }
      merged += take;
    }
    if (merged == cap || ++complete == cap) {
      out.cap_hit = true;
      break;
    }
  }
  if (!covers) return out;  // no merged candidate assigns every fn node
  out.merged = merged;

  // Bounds: each row's share of φ, and each partnered bucket's columns'.
  const auto bound_bucket = [&](Bucket& b) {
    if (b.bounded) return;
    b.bounded = true;
    for (std::uint32_t i = b.begin; i < b.end; ++i) {
      cols_[i].bound = bound(eval, fg, 1, *cols_[i].pa);
    }
  };
  for (Entry& row : rows_) {
    row.bound = bound(eval, fg, 0, *row.pa);
    bound_bucket(buckets_[row.bucket]);
  }
  if (cut) {
    cut->bound = bound(eval, fg, 0, *cut->pa);
    bound_bucket(buckets_[cut->bucket]);
  }

  // Lanes: each bucket's full rows against all its columns, then the cut
  // row against its bucket's first cut_limit columns. Rows and columns of
  // infinite bound never qualify and are left out.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::sort(rows_.begin(), rows_.end(), [](const Entry& x, const Entry& y) {
    if (x.bucket != y.bucket) return x.bucket < y.bucket;
    return x.bound != y.bound ? x.bound < y.bound : x.order < y.order;
  });
  lanes_.clear();
  lane_cols_.clear();
  frontier_.clear();
  const auto full_rows = static_cast<std::uint32_t>(rows_.size());
  for (std::uint32_t i = 0; i < full_rows;) {
    std::uint32_t finite = i;
    std::uint32_t j = i;
    for (; j < full_rows && rows_[j].bucket == rows_[i].bucket; ++j) {
      if (rows_[j].bound != kInf) finite = j + 1;
    }
    const Bucket& b = buckets_[rows_[i].bucket];
    add_lane(i, finite, b, b.end - b.begin);
    i = j;
  }
  if (cut && cut->bound != kInf) {
    rows_.push_back(*cut);
    add_lane(full_rows, full_rows + 1, buckets_[cut->bucket], cut_limit);
  }

  // Best first: every candidate not yet evaluated has a bound at least the
  // frontier's least, so once that exceeds the best φ (past the slack) none
  // can tie or beat it.
  stream::ComponentGraph candidate(fg);
  const PathAssignment* best[2] = {nullptr, nullptr};
  const auto fill = [&](const PathAssignment* const (&pas)[2]) {
    for (std::size_t p = 0; p < paths.size(); ++p) {
      for (std::size_t i = 0; i < paths[p].size(); ++i) {
        candidate.assign(paths[p][i], pas[p]->components[i]);
      }
    }
  };
  while (!frontier_.empty()) {
    std::pop_heap(frontier_.begin(), frontier_.end(), later);
    const Next next = frontier_.back();
    frontier_.pop_back();
    if (best[0] != nullptr && next.bound > out.phi * (1.0 + kBoundSlack)) break;
    const Lane& lane = lanes_[next.lane];
    if (lane.col_begin + next.col + 1 < lane.col_end) push(next.lane, next.row, next.col + 1);
    if (next.col == 0 && lane.row_begin + next.row + 1 < lane.row_end) {
      push(next.lane, next.row + 1, 0);
    }

    const PathAssignment* const pas[2] = {rows_[lane.row_begin + next.row].pa,
                                          lane_cols_[lane.col_begin + next.col].pa};
    fill(pas);
    ++out.evaluated;
    const auto phi = checks == Checks::kFull
                         ? eval.evaluate(candidate, paths, req.qos_req, req.policy, view, now)
                         : eval.phi(fg, candidate.assignment(), view, now);
    if (!phi) continue;
    ++out.qualified;
    if (best[0] == nullptr || *phi < out.phi || (*phi == out.phi && next.index < out.index)) {
      out.phi = *phi;
      out.index = next.index;
      best[0] = pas[0];
      best[1] = pas[1];
    }
  }
  if (best[0] != nullptr) {
    fill(best);
    out.graph = std::move(candidate);
  }
  return out;
}

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
  // >2 paths fall back to the full merge and the shared min-φ selection
  // (the template generator never produces them).
  if (paths.size() > 2) {
    auto graphs = merge_path_assignments(req.graph, paths, per_path, combo_cap, nullptr);
    return min_phi(eval, req, paths, graphs, view, now, stats);
  }
  // The walk already enforced Eq. 2, interfaces, policy and Eq. 3 per path,
  // so each merged assignment needs only Eqs. 4–5 and φ.
  JoinBest best = BestPhiJoin().run(eval, req, paths, per_path, combo_cap, view, now,
                                    BestPhiJoin::Checks::kWalked);
  if (stats) {
    stats->examined += best.evaluated;
    stats->qualified += best.qualified;
  }
  return std::move(best.graph);
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
  stream::CompositionEvaluator eval(sys);
  if (paths.size() > 2) {
    auto graphs = merge_path_assignments(req.graph, paths, per_path, beam_cap, nullptr);
    return min_phi(eval, req, paths, graphs, eval_view, now, stats);
  }
  JoinBest best = BestPhiJoin().run(eval, req, paths, per_path, beam_cap, eval_view, now);
  if (stats) {
    stats->examined += best.evaluated;
    stats->qualified += best.qualified;
  }
  return std::move(best.graph);
}

}  // namespace acp::core
