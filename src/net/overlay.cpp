#include "net/overlay.h"

#include <algorithm>
#include <cmath>

namespace acp::net {

OverlayMesh::OverlayMesh(const Graph& ip, const OverlayConfig& config, util::Rng& rng) {
  ACP_REQUIRE(config.member_count >= 2);
  ACP_REQUIRE_MSG(config.member_count <= ip.node_count(),
                  "cannot select more overlay members than IP hosts");

  // 1. Select member hosts uniformly without replacement.
  const auto picks = rng.sample_without_replacement(ip.node_count(), config.member_count);
  members_.reserve(picks.size());
  for (std::size_t p : picks) members_.push_back(static_cast<NodeIndex>(p));

  // 2. IP routing trees rooted at members (for link metrics and deputy
  //    selection).
  ip_routes_ = std::make_unique<RoutingTable>(ip, members_);

  // 3. Wire each member to its K nearest members by IP delay.
  const std::size_t n = members_.size();
  std::size_t k = config.neighbors_per_node;
  if (k == 0) k = static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(n))));
  k = std::min(k, n - 1);

  mesh_ = Graph(n);
  auto add_overlay_link = [&](OverlayNodeIndex a, OverlayNodeIndex b) {
    if (mesh_.has_edge(a, b)) return;
    const double delay = ip_routes_->distance(members_[a], members_[b]);
    ACP_ASSERT_MSG(delay != kUnreachable, "IP topology must be connected");
    const double cap = ip_routes_->bottleneck_capacity(ip, members_[a], members_[b]);
    mesh_.add_edge(a, b, delay, cap);
    OverlayLink l;
    l.a = a;
    l.b = b;
    l.delay_ms = delay;
    l.capacity_kbps = cap;
    l.loss_rate = rng.uniform(config.min_loss_rate, config.max_loss_rate);
    l.additive_loss = -std::log(1.0 - l.loss_rate);
    links_.push_back(l);
  };

  std::vector<std::pair<double, OverlayNodeIndex>> by_delay;
  for (OverlayNodeIndex a = 0; a < n; ++a) {
    by_delay.clear();
    for (OverlayNodeIndex b = 0; b < n; ++b) {
      if (b == a) continue;
      by_delay.emplace_back(ip_routes_->distance(members_[a], members_[b]), b);
    }
    std::partial_sort(by_delay.begin(), by_delay.begin() + static_cast<std::ptrdiff_t>(k),
                      by_delay.end());
    for (std::size_t i = 0; i < k; ++i) add_overlay_link(a, by_delay[i].second);
  }

  // 4. Connectivity repair: nearest-neighbor wiring can leave islands; join
  //    components through their closest cross-component member pair.
  std::vector<std::uint32_t> labels;
  while (mesh_.components(labels) > 1) {
    double best = kUnreachable;
    OverlayNodeIndex best_a = 0, best_b = 0;
    for (OverlayNodeIndex a = 0; a < n; ++a) {
      for (OverlayNodeIndex b = a + 1; b < n; ++b) {
        if (labels[a] == labels[b]) continue;
        const double d = ip_routes_->distance(members_[a], members_[b]);
        if (d < best) {
          best = d;
          best_a = a;
          best_b = b;
        }
      }
    }
    add_overlay_link(best_a, best_b);
  }

  // 5. Overlay all-pairs routing (one Dijkstra per member over the mesh),
  //    then materialize every pair's path and its QoS sum once — composition
  //    hot paths walk virtual links constantly.
  overlay_routes_ = std::make_unique<RoutingTable>(mesh_);
  pair_paths_.resize(n * n);
  pair_qos_.resize(n * n);
  for (OverlayNodeIndex a = 0; a < n; ++a) {
    for (OverlayNodeIndex b = 0; b < n; ++b) {
      if (a == b) continue;
      auto edges = overlay_routes_->path_edges(a, b);
      ACP_ASSERT_MSG(!edges.empty(), "overlay mesh must be connected");
      const std::size_t pair = static_cast<std::size_t>(a) * n + b;
      pair_paths_[pair] = {edges.begin(), edges.end()};
      PathQoS& q = pair_qos_[pair];
      for (const OverlayLinkIndex l : pair_paths_[pair]) {
        q.delay_ms += links_[l].delay_ms;
        q.additive_loss += links_[l].additive_loss;
      }
    }
  }
}

OverlayMesh OverlayMesh::torus(std::size_t rows, std::size_t cols, double link_delay_ms,
                               double link_capacity_kbps) {
  // Wrap-around with fewer than 3 per axis would create self-loops or
  // parallel edges; the XL fabric has no use for degenerate tori anyway.
  ACP_REQUIRE(rows >= 3 && cols >= 3);
  ACP_REQUIRE(link_delay_ms > 0.0 && link_capacity_kbps > 0.0);
  const std::size_t n = rows * cols;
  OverlayMesh m;
  m.torus_ = true;
  m.rows_ = static_cast<std::uint32_t>(rows);
  m.cols_ = static_cast<std::uint32_t>(cols);
  m.torus_link_delay_ms_ = link_delay_ms;
  m.members_.resize(n);
  for (std::size_t i = 0; i < n; ++i) m.members_[i] = static_cast<NodeIndex>(i);
  m.mesh_ = Graph(n);
  m.links_.reserve(2 * n);
  // Link ids are arithmetic (link_right/link_down): node i pushes its right
  // link then its down link, so links_[2i] / links_[2i+1] line up exactly.
  for (std::uint32_t r = 0; r < m.rows_; ++r) {
    for (std::uint32_t c = 0; c < m.cols_; ++c) {
      const auto add = [&](OverlayNodeIndex a, OverlayNodeIndex b) {
        m.mesh_.add_edge(a, b, link_delay_ms, link_capacity_kbps);
        OverlayLink l;
        l.a = a;
        l.b = b;
        l.delay_ms = link_delay_ms;
        l.capacity_kbps = link_capacity_kbps;
        // Torus links are lossless: XL sweeps measure composition scaling,
        // not the loss model, and zero keeps QoS accumulation trivially exact.
        l.loss_rate = 0.0;
        l.additive_loss = 0.0;
        m.links_.push_back(l);
      };
      const OverlayNodeIndex here = r * m.cols_ + c;
      add(here, r * m.cols_ + (c + 1) % m.cols_);        // right
      add(here, ((r + 1) % m.rows_) * m.cols_ + c);      // down
    }
  }
  // Every link has the same QoS, so a walk's sum depends only on its hops.
  const OverlayLink& link = m.links_.front();
  m.torus_hop_qos_.resize(m.rows_ / 2 + m.cols_ / 2 + 1);  // 0..diameter hops
  for (std::size_t k = 1; k < m.torus_hop_qos_.size(); ++k) {
    const PathQoS& prev = m.torus_hop_qos_[k - 1];
    m.torus_hop_qos_[k] = {prev.delay_ms + link.delay_ms, prev.additive_loss + link.additive_loss};
  }
  return m;
}

NodeIndex OverlayMesh::ip_host(OverlayNodeIndex o) const {
  ACP_REQUIRE(o < members_.size());
  return members_[o];
}

const OverlayLink& OverlayMesh::link(OverlayLinkIndex l) const {
  ACP_REQUIRE(l < links_.size());
  return links_[l];
}

std::vector<OverlayLinkIndex> OverlayMesh::links_of(OverlayNodeIndex o) const {
  ACP_REQUIRE(o < members_.size());
  const auto& edges = mesh_.neighbors(o);
  return {edges.begin(), edges.end()};
}

std::vector<OverlayNodeIndex> OverlayMesh::neighbors_of(OverlayNodeIndex o) const {
  std::vector<OverlayNodeIndex> out;
  for (OverlayLinkIndex l : links_of(o)) out.push_back(links_[l].other(o));
  return out;
}

std::uint32_t OverlayMesh::torus_distance(OverlayNodeIndex a, OverlayNodeIndex b) const {
  const std::uint32_t dr = (b / cols_ + rows_ - a / cols_) % rows_;
  const std::uint32_t dc = (b % cols_ + cols_ - a % cols_) % cols_;
  return std::min(dr, rows_ - dr) + std::min(dc, cols_ - dc);
}

const std::vector<OverlayLinkIndex>& OverlayMesh::virtual_link_path(OverlayNodeIndex a,
                                                                    OverlayNodeIndex b) const {
  ACP_REQUIRE(a < members_.size() && b < members_.size());
  if (torus_) {
    // Legacy materializing entry point: generate the staircase into
    // thread-local scratch. Each trial worker thread gets its own buffer, so
    // the shared mesh stays immutable; the reference is only good until the
    // calling thread's next call, which every remaining caller tolerates.
    static thread_local std::vector<OverlayLinkIndex> scratch;
    scratch.clear();
    walk_torus(a, b, [&](OverlayLinkIndex l) { scratch.push_back(l); });
    return scratch;
  }
  return pair_paths_[static_cast<std::size_t>(a) * members_.size() + b];
}

std::size_t OverlayMesh::virtual_link_hops(OverlayNodeIndex a, OverlayNodeIndex b) const {
  ACP_REQUIRE(a < members_.size() && b < members_.size());
  if (torus_) return torus_distance(a, b);
  return pair_paths_[static_cast<std::size_t>(a) * members_.size() + b].size();
}

double OverlayMesh::virtual_link_delay(OverlayNodeIndex a, OverlayNodeIndex b) const {
  if (a == b) return 0.0;  // co-located components: 0 network delay
  if (torus_) return torus_distance(a, b) * torus_link_delay_ms_;
  return overlay_routes_->distance(a, b);
}

PathQoS OverlayMesh::virtual_link_qos(OverlayNodeIndex a, OverlayNodeIndex b) const {
  ACP_REQUIRE(a < members_.size() && b < members_.size());
  if (torus_) return torus_hop_qos_[torus_distance(a, b)];
  return pair_qos_[static_cast<std::size_t>(a) * members_.size() + b];
}

double OverlayMesh::min_link_delay_ms() const {
  if (torus_) return torus_link_delay_ms_;
  double best = 0.0;
  bool first = true;
  for (const OverlayLink& l : links_) {
    if (first || l.delay_ms < best) best = l.delay_ms;
    first = false;
  }
  return best;
}

OverlayNodeIndex OverlayMesh::closest_member(NodeIndex ip_node) const {
  if (torus_) {
    // Members are identity-mapped to hosts: the closest member to a host IS
    // that host's node.
    ACP_REQUIRE(ip_node < members_.size());
    return static_cast<OverlayNodeIndex>(ip_node);
  }
  double best = kUnreachable;
  OverlayNodeIndex best_member = 0;
  for (OverlayNodeIndex o = 0; o < members_.size(); ++o) {
    const double d = ip_routes_->distance(members_[o], ip_node);
    if (d < best) {
      best = d;
      best_member = o;
    }
  }
  return best_member;
}

OverlayNodeIndex OverlayMesh::closest_member_where(
    NodeIndex ip_node, const std::function<bool(OverlayNodeIndex)>& eligible) const {
  if (torus_) {
    const auto self = static_cast<OverlayNodeIndex>(ip_node);
    ACP_REQUIRE(self < members_.size());
    double best = kUnreachable;
    OverlayNodeIndex best_member = kNoOverlayLink;
    for (OverlayNodeIndex o = 0; o < members_.size(); ++o) {
      if (!eligible(o)) continue;
      const double d = torus_distance(self, o) * torus_link_delay_ms_;
      if (d < best) {
        best = d;
        best_member = o;
      }
    }
    if (best_member == kNoOverlayLink) return self;
    return best_member;
  }
  double best = kUnreachable;
  OverlayNodeIndex best_member = kNoOverlayLink;
  for (OverlayNodeIndex o = 0; o < members_.size(); ++o) {
    if (!eligible(o)) continue;
    const double d = ip_routes_->distance(members_[o], ip_node);
    if (d < best) {
      best = d;
      best_member = o;
    }
  }
  // Nothing eligible (total outage): fall back so callers always get a node.
  if (best_member == kNoOverlayLink) return closest_member(ip_node);
  return best_member;
}

}  // namespace acp::net
