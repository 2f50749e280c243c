// Overlay mesh of stream processing nodes on top of the IP topology.
//
// Mirrors the paper's setup: N ∈ [200, 600] hosts of the 3200-node IP graph
// are selected as stream processing nodes and connected into an overlay mesh
// where each node has ~log2(N) neighbors. An overlay link's delay is the
// delay of the shortest IP path between its endpoint hosts and its capacity
// is the bottleneck IP-link capacity along that path. Virtual links between
// arbitrary node pairs are delay-shortest overlay paths (sequences of
// overlay links).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/graph.h"
#include "net/routing.h"
#include "util/rng.h"

namespace acp::net {

/// Index of a stream processing node within the overlay (not an IP index).
using OverlayNodeIndex = std::uint32_t;
/// Index of an overlay link.
using OverlayLinkIndex = std::uint32_t;

inline constexpr OverlayLinkIndex kNoOverlayLink = static_cast<OverlayLinkIndex>(-1);

/// Accumulated QoS of a virtual link in the additive domain: the sum of its
/// overlay links' delay and -ln(1 - loss), added in walk order.
struct PathQoS {
  double delay_ms = 0.0;
  double additive_loss = 0.0;
};

struct OverlayLink {
  OverlayNodeIndex a = 0;
  OverlayNodeIndex b = 0;
  double delay_ms = 0.0;       ///< IP shortest-path delay between endpoints
  double capacity_kbps = 0.0;  ///< bottleneck IP capacity along that path
  double loss_rate = 0.0;      ///< per-link loss probability in [0, 1)
  double additive_loss = 0.0;  ///< -ln(1 - loss_rate), precomputed

  OverlayNodeIndex other(OverlayNodeIndex n) const {
    ACP_REQUIRE(n == a || n == b);
    return n == a ? b : a;
  }
};

struct OverlayConfig {
  std::size_t member_count = 400;  ///< N, paper uses 200..600
  /// Neighbors per node; 0 means ceil(log2(N)) as in the paper.
  std::size_t neighbors_per_node = 0;
  double min_loss_rate = 0.0;
  double max_loss_rate = 0.005;  ///< up to 0.5% per overlay link
};

class OverlayMesh {
 public:
  /// Selects `config.member_count` distinct hosts from `ip`, wires each to
  /// its nearest neighbors by IP delay, repairs connectivity if needed, and
  /// builds the overlay all-pairs routing table.
  OverlayMesh(const Graph& ip, const OverlayConfig& config, util::Rng& rng);

  /// XL-scale fabric: a rows×cols torus with uniform link delay/capacity and
  /// members identity-mapped to IP hosts (node i IS host i, so the deputy of
  /// a client is the client's own node). Routing is arithmetic — with equal
  /// link delays the delay-shortest path is the deterministic Manhattan
  /// staircase (rows first, then columns; wrap the shorter way, ties go the
  /// positive direction) — so construction and memory are O(N)+O(links)
  /// where the paper-scale constructor's all-pairs tables are O(N²). Every
  /// path query computes into caller state, never mesh state: one mesh is
  /// shared read-only across parallel trial workers.
  static OverlayMesh torus(std::size_t rows, std::size_t cols, double link_delay_ms,
                           double link_capacity_kbps);

  std::size_t node_count() const { return members_.size(); }
  std::size_t link_count() const { return mesh_.edge_count(); }

  /// IP host backing overlay node `n`.
  NodeIndex ip_host(OverlayNodeIndex n) const;

  const OverlayLink& link(OverlayLinkIndex l) const;

  /// Overlay link ids incident to `n`.
  std::vector<OverlayLinkIndex> links_of(OverlayNodeIndex n) const;

  /// Neighbor overlay nodes of `n`.
  std::vector<OverlayNodeIndex> neighbors_of(OverlayNodeIndex n) const;

  /// Delay-shortest overlay path a→b as a sequence of overlay link ids;
  /// empty when a == b (co-location) — never empty otherwise, because the
  /// mesh is connected by construction. Paper-scale meshes return a cached
  /// per-pair path whose reference stays valid for the mesh's lifetime; a
  /// torus mesh materializes the walk into thread-local scratch (valid until
  /// the calling thread's next virtual_link_path call). Hot paths should
  /// prefer for_each_virtual_link, which never materializes.
  const std::vector<OverlayLinkIndex>& virtual_link_path(OverlayNodeIndex a,
                                                         OverlayNodeIndex b) const;

  /// Visits each overlay link id on the virtual link a→b in path order
  /// without materializing the path: the allocation-free form hot loops
  /// (bandwidth checks, QoS accumulation, flow admission) should use. On a
  /// torus the links are generated arithmetically from the staircase walk;
  /// on paper-scale meshes this iterates the cached pair path.
  template <typename F>
  void for_each_virtual_link(OverlayNodeIndex a, OverlayNodeIndex b, F&& f) const {
    if (torus_) {
      walk_torus(a, b, f);
      return;
    }
    for (const OverlayLinkIndex l : virtual_link_path(a, b)) f(l);
  }

  /// Number of links on the virtual link a→b (torus: Manhattan distance).
  std::size_t virtual_link_hops(OverlayNodeIndex a, OverlayNodeIndex b) const;

  /// QoS of the virtual link a→b in O(1), zero when a == b. Bit-identical to
  /// starting from zero and adding each link's (delay, additive loss) along
  /// for_each_virtual_link: link QoS is fixed at construction, so the sums
  /// are precomputed — per hop count on a torus (every link has the same
  /// QoS), per pair beside the cached paths on paper-scale meshes.
  PathQoS virtual_link_qos(OverlayNodeIndex a, OverlayNodeIndex b) const;

  /// Minimum single-link delay (ms) over every overlay link — the
  /// conservative PDES lookahead bound: no message between distinct nodes
  /// can take effect sooner than this after it is sent, so it lower-bounds
  /// the sharded engine's barrier window. On a torus every link has the
  /// uniform construction delay.
  double min_link_delay_ms() const;

  /// Overlay member closest (by IP delay) to an arbitrary IP host — the
  /// paper's deputy-node selection by proximity.
  OverlayNodeIndex closest_member(NodeIndex ip_node) const;

  /// Like closest_member, but restricted to members satisfying `eligible`
  /// (deputy re-election skips crashed nodes). Falls back to the absolute
  /// closest member when no member qualifies.
  OverlayNodeIndex closest_member_where(
      NodeIndex ip_node, const std::function<bool(OverlayNodeIndex)>& eligible) const;

  /// Underlying overlay graph (for tests / diagnostics).
  const Graph& mesh_graph() const { return mesh_; }

  /// Whether this mesh was built by the torus factory.
  bool is_torus() const { return torus_; }
  std::uint32_t torus_rows() const { return rows_; }
  std::uint32_t torus_cols() const { return cols_; }

 private:
  OverlayMesh() = default;  ///< used by the torus factory

  // Arithmetic link ids on the torus: node i = r*cols + c owns link 2i to its
  // right neighbor (r, c+1 mod cols) and link 2i+1 to its down neighbor
  // (r+1 mod rows, c) — ids need no lookup table.
  std::uint32_t link_right(std::uint32_t r, std::uint32_t c) const {
    return 2 * (r * cols_ + c);
  }
  std::uint32_t link_down(std::uint32_t r, std::uint32_t c) const {
    return 2 * (r * cols_ + c) + 1;
  }

  /// Deterministic Manhattan staircase a→b: rows first, then columns, each
  /// axis wrapping whichever direction is shorter (ties go the positive
  /// direction). With uniform link delays this IS a delay-shortest path.
  template <typename F>
  void walk_torus(OverlayNodeIndex a, OverlayNodeIndex b, F&& f) const {
    std::uint32_t r = a / cols_;
    std::uint32_t c = a % cols_;
    const std::uint32_t rb = b / cols_;
    const std::uint32_t cb = b % cols_;
    const std::uint32_t down = (rb + rows_ - r) % rows_;
    if (down <= rows_ - down) {
      for (; r != rb; r = (r + 1) % rows_) f(link_down(r, c));
    } else {
      while (r != rb) {
        const std::uint32_t pr = (r + rows_ - 1) % rows_;
        f(link_down(pr, c));
        r = pr;
      }
    }
    const std::uint32_t right = (cb + cols_ - c) % cols_;
    if (right <= cols_ - right) {
      for (; c != cb; c = (c + 1) % cols_) f(link_right(r, c));
    } else {
      while (c != cb) {
        const std::uint32_t pc = (c + cols_ - 1) % cols_;
        f(link_right(r, pc));
        c = pc;
      }
    }
  }

  /// Manhattan distance on the torus (hops of the staircase walk).
  std::uint32_t torus_distance(OverlayNodeIndex a, OverlayNodeIndex b) const;

  std::vector<NodeIndex> members_;          ///< overlay index -> IP host
  Graph mesh_;                              ///< overlay graph (delay, capacity)
  std::vector<OverlayLink> links_;          ///< parallel to mesh_ edges
  std::unique_ptr<RoutingTable> ip_routes_; ///< trees rooted at member hosts
  /// Per-pair cached paths, row-major (a * node_count + b). Empty in torus
  /// mode — O(N²) tables are exactly what the torus exists to avoid.
  std::vector<std::vector<OverlayLinkIndex>> pair_paths_;
  /// Walk-order QoS sum of each cached path, row-major like pair_paths_.
  std::vector<PathQoS> pair_qos_;

  // Torus mode (XL fabric): geometry instead of tables.
  bool torus_ = false;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  double torus_link_delay_ms_ = 0.0;
  /// QoS of a k-hop walk, k = 0..diameter, built by the walk's repeated add
  /// (t[k] = t[k-1] + link QoS, never k * delay, which rounds differently).
  std::vector<PathQoS> torus_hop_qos_;
};

}  // namespace acp::net
