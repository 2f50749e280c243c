// Differential test of StreamSystem's hold lists and session commit lists
// against the references they replaced. cancel_request's reference is the
// full sweep: a loop over every node pool and every link pool. The release
// reference is a test-local model of the per-pool commit lists pools kept
// before sessions owned their records: (session, amount) per pool in
// commit order, released by scanning every pool's list in order. Seeded
// random operation sequences — reserves (with refreshes and all-or-nothing
// rollbacks), forced reserves, confirms (with partial virtual-link
// failures), direct commits (with rollbacks), targeted releases, cancels,
// releases, crash and age reclamation and expiry pruning — run on two
// systems over one mesh. After every step every pool must read
// bit-identically on both; each pool's commit count must equal the live
// session records naming it (plus the rig's background load); each
// session's records on a pool must list the model's amounts in the model's
// order; and every pool holding a request's record must be on the
// request's hold list.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.h"
#include "stream/system.h"

namespace acp::stream {
namespace {

// ---- Reference: the full sweep and per-pool commit lists --------------------

void sweep_cancel(StreamSystem& sys, RequestId request) {
  for (NodeId n = 0; n < sys.node_count(); ++n) sys.node_pool(n).cancel_request(request);
  for (net::OverlayLinkIndex l = 0; l < sys.mesh().link_count(); ++l) {
    sys.link_pool(l).cancel_request(request);
  }
}

template <typename Q>
struct CommitRecord {
  SessionId session;
  Q amount;
};
template <typename Q>
using CommitList = std::vector<CommitRecord<Q>>;

/// The reference system's commits, kept per pool as pools once kept them.
/// The reference confirms, commits and releases on its pools directly and
/// records each commit here, so its own commit lists stay empty.
struct Ledger {
  std::vector<CommitList<ResourceVector>> nodes;
  std::vector<CommitList<double>> links;
};

/// Releases `session`'s first record of exactly `amount` on one pool.
template <typename Q>
bool release_one(CommitList<Q>& list, ReservationPool<Q>& pool, SessionId session,
                 const Q& amount) {
  for (auto it = list.begin(); it != list.end(); ++it) {
    if (it->session == session && it->amount == amount) {
      pool.release(it->amount);
      list.erase(it);
      return true;
    }
  }
  return false;
}

/// Releases every record of `session` on one pool, in the list's order.
template <typename Q>
void release_all(CommitList<Q>& list, ReservationPool<Q>& pool, SessionId session) {
  for (auto it = list.begin(); it != list.end();) {
    if (it->session == session) {
      pool.release(it->amount);
      it = list.erase(it);
    } else {
      ++it;
    }
  }
}

bool ref_confirm_node(StreamSystem& sys, Ledger& ledger, RequestId request, std::uint32_t tag,
                      NodeId node, SessionId session, double now) {
  const auto amount = sys.node_pool(node).confirm(request, tag, now);
  if (!amount) return false;
  ledger.nodes[node].push_back({session, *amount});
  return true;
}

bool ref_confirm_virtual_link(StreamSystem& sys, Ledger& ledger, RequestId request,
                              std::uint32_t tag, NodeId a, NodeId b, SessionId session,
                              double now) {
  if (a == b) return true;
  bool ok = true;
  sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!ok) return;
    const auto kbps = sys.link_pool(l).confirm(request, tag, now);
    if (!kbps) {
      ok = false;
      return;
    }
    ledger.links[l].push_back({session, *kbps});
  });
  return ok;
}

bool ref_commit_node_direct(StreamSystem& sys, Ledger& ledger, SessionId session, NodeId node,
                            const ResourceVector& amount, double now) {
  if (!sys.node_pool(node).commit(amount, now)) return false;
  ledger.nodes[node].push_back({session, amount});
  return true;
}

bool ref_commit_virtual_link_direct(StreamSystem& sys, Ledger& ledger, SessionId session,
                                    NodeId a, NodeId b, double kbps, double now) {
  if (a == b) return true;
  std::vector<net::OverlayLinkIndex> admitted;
  bool ok = true;
  sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (!ok || !sys.link_pool(l).commit(kbps, now)) {
      ok = false;
      return;
    }
    ledger.links[l].push_back({session, kbps});
    admitted.push_back(l);
  });
  if (!ok) {
    for (const auto l : admitted) release_one(ledger.links[l], sys.link_pool(l), session, kbps);
  }
  return ok;
}

bool ref_release_virtual_link_direct(StreamSystem& sys, Ledger& ledger, SessionId session,
                                     NodeId a, NodeId b, double kbps) {
  if (a == b) return true;
  bool all = true;
  sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    all = release_one(ledger.links[l], sys.link_pool(l), session, kbps) && all;
  });
  return all;
}

void ref_release_session(StreamSystem& sys, Ledger& ledger, SessionId session) {
  for (NodeId n = 0; n < sys.node_count(); ++n) {
    release_all(ledger.nodes[n], sys.node_pool(n), session);
  }
  for (net::OverlayLinkIndex l = 0; l < sys.mesh().link_count(); ++l) {
    release_all(ledger.links[l], sys.link_pool(l), session);
  }
}

// ---- Two systems over one mesh ---------------------------------------------

constexpr RequestId kRequests = 6;  // ids 1..6, reused after cancel
constexpr SessionId kSessions = 6;  // ids 1..6, reused after release
constexpr std::uint32_t kTags = 3;

struct Rig {
  net::Graph ip;
  std::unique_ptr<net::OverlayMesh> mesh;
  std::unique_ptr<StreamSystem> fast;  ///< hold lists and session commit lists
  std::unique_ptr<StreamSystem> ref;   ///< full-sweep cancel, per-pool commit lists
  Ledger ledger;                       ///< ref's per-pool commit lists
  std::vector<std::size_t> background;  ///< commits per link outside any session
  double min_link_kbps = std::numeric_limits<double>::infinity();
};

/// Background load, placed on the pools directly: no session owns it, so
/// no operation below can release it.
std::unique_ptr<StreamSystem> make_system(const net::OverlayMesh& mesh, std::uint64_t seed,
                                          std::vector<std::size_t>& background) {
  util::Rng rng(seed);
  auto sys = std::make_unique<StreamSystem>(mesh, FunctionCatalog::generate(4, rng));
  for (NodeId n = 0; n < sys->node_count(); ++n) {
    sys->set_node_capacity(n, ResourceVector(rng.uniform(80.0, 120.0), rng.uniform(800.0, 1200.0)));
  }
  background.assign(mesh.link_count(), 0);
  for (net::OverlayLinkIndex l = 0; l < mesh.link_count(); ++l) {
    if (rng.below(3) != 0) continue;
    const double kbps = rng.uniform(0.0, 0.6) * mesh.link(l).capacity_kbps;
    background[l] += sys->link_pool(l).commit(kbps, 0.0) ? 1 : 0;
  }
  return sys;
}

void finish(Rig& r, std::uint64_t seed) {
  r.fast = make_system(*r.mesh, seed, r.background);
  r.ref = make_system(*r.mesh, seed, r.background);
  r.ledger.nodes.assign(r.ref->node_count(), {});
  r.ledger.links.assign(r.mesh->link_count(), {});
  for (net::OverlayLinkIndex l = 0; l < r.mesh->link_count(); ++l) {
    r.min_link_kbps = std::min(r.min_link_kbps, r.mesh->link(l).capacity_kbps);
  }
}

Rig inet_rig(std::uint64_t seed) {
  Rig r;
  util::Rng rng(seed);
  net::TopologyConfig tc;
  tc.node_count = 160;
  r.ip = net::generate_power_law_topology(tc, rng);
  net::OverlayConfig oc;
  oc.member_count = 16;
  r.mesh = std::make_unique<net::OverlayMesh>(r.ip, oc, rng);
  finish(r, seed + 1);
  return r;
}

Rig torus_rig(std::uint64_t seed) {
  Rig r;
  r.mesh = std::make_unique<net::OverlayMesh>(net::OverlayMesh::torus(5, 6, 1.0, 1000.0));
  finish(r, seed + 1);
  return r;
}

/// How often the sequences hit each interesting case (asserted non-zero,
/// so the random mix cannot silently stop exercising one).
struct Tally {
  std::size_t refreshes = 0;
  std::size_t reserve_rollbacks = 0;  ///< virtual link failed after a link admitted
  std::size_t forced = 0;
  std::size_t confirms = 0;
  std::size_t partial_confirms = 0;  ///< virtual link confirmed some links, then failed
  std::size_t direct_commits = 0;
  std::size_t direct_rollbacks = 0;  ///< direct virtual link failed after a link admitted
  std::size_t targeted_releases = 0;
  std::size_t cancels = 0;
  std::size_t releases = 0;
  std::size_t crash_reclaimed = 0;
  std::size_t age_reclaimed = 0;
  std::size_t prunes = 0;
};

/// Every pool reads bit-identically on both systems.
void expect_same_pools(const StreamSystem& fast, const StreamSystem& ref, double now,
                       const std::string& where) {
  for (NodeId n = 0; n < fast.node_count(); ++n) {
    const NodePool& f = fast.node_pool(n);
    const NodePool& r = ref.node_pool(n);
    EXPECT_EQ(f.available(now).cpu(), r.available(now).cpu()) << where << " node " << n;
    EXPECT_EQ(f.available(now).memory_mb(), r.available(now).memory_mb()) << where << " node " << n;
    for (RequestId id = 1; id <= kRequests; ++id) {
      EXPECT_EQ(f.available_excluding(now, id).cpu(), r.available_excluding(now, id).cpu())
          << where << " node " << n << " excluding " << id;
      EXPECT_EQ(f.available_excluding(now, id).memory_mb(),
                r.available_excluding(now, id).memory_mb())
          << where << " node " << n << " excluding " << id;
    }
    EXPECT_EQ(f.committed().cpu(), r.committed().cpu()) << where << " node " << n;
    EXPECT_EQ(f.committed().memory_mb(), r.committed().memory_mb()) << where << " node " << n;
    EXPECT_EQ(f.committed_count(), r.committed_count()) << where << " node " << n;
    EXPECT_EQ(f.live_transient_count(now), r.live_transient_count(now)) << where << " node " << n;
  }
  for (net::OverlayLinkIndex l = 0; l < fast.mesh().link_count(); ++l) {
    const BandwidthPool& f = fast.link_pool(l);
    const BandwidthPool& r = ref.link_pool(l);
    EXPECT_EQ(f.available(now), r.available(now)) << where << " link " << l;
    for (RequestId id = 1; id <= kRequests; ++id) {
      EXPECT_EQ(f.available_excluding(now, id), r.available_excluding(now, id))
          << where << " link " << l << " excluding " << id;
    }
    EXPECT_EQ(f.committed(), r.committed()) << where << " link " << l;
    EXPECT_EQ(f.committed_count(), r.committed_count()) << where << " link " << l;
    EXPECT_EQ(f.live_transient_count(now), r.live_transient_count(now)) << where << " link " << l;
  }
}

/// The fast system's lists against the pools and the reference model:
/// each pool's commit count is the live session records naming it plus the
/// background load; each session's records on a pool carry the model's
/// amounts in the model's order; every pool holding a request's record is
/// on that request's hold list.
void expect_lists_consistent(const Rig& rig, const std::string& where) {
  const StreamSystem& fast = *rig.fast;
  std::vector<std::size_t> node_records(fast.node_count(), 0);
  std::vector<std::size_t> link_records(rig.background);
  for (SessionId s = 1; s <= kSessions; ++s) {
    std::vector<std::vector<ResourceVector>> node_amounts(fast.node_count());
    std::vector<std::vector<double>> link_amounts(fast.mesh().link_count());
    for (const auto& c : fast.node_commits(s)) {
      ++node_records[c.node];
      node_amounts[c.node].push_back(c.amount);
    }
    for (const auto& c : fast.link_commits(s)) {
      ++link_records[c.link];
      link_amounts[c.link].push_back(c.kbps);
    }
    for (NodeId n = 0; n < fast.node_count(); ++n) {
      std::vector<ResourceVector> model;
      for (const auto& r : rig.ledger.nodes[n]) {
        if (r.session == s) model.push_back(r.amount);
      }
      EXPECT_EQ(node_amounts[n], model) << where << " session " << s << " node " << n;
    }
    for (net::OverlayLinkIndex l = 0; l < fast.mesh().link_count(); ++l) {
      std::vector<double> model;
      for (const auto& r : rig.ledger.links[l]) {
        if (r.session == s) model.push_back(r.amount);
      }
      EXPECT_EQ(link_amounts[l], model) << where << " session " << s << " link " << l;
    }
  }
  for (NodeId n = 0; n < fast.node_count(); ++n) {
    EXPECT_EQ(fast.node_pool(n).committed_count(), node_records[n]) << where << " node " << n;
  }
  for (net::OverlayLinkIndex l = 0; l < fast.mesh().link_count(); ++l) {
    EXPECT_EQ(fast.link_pool(l).committed_count(), link_records[l]) << where << " link " << l;
  }

  for (RequestId r = 1; r <= kRequests; ++r) {
    const auto holds = fast.hold_list(r);
    const auto listed = [&](StreamSystem::PoolRef p) {
      return std::find(holds.begin(), holds.end(), p) != holds.end();
    };
    for (NodeId n = 0; n < fast.node_count(); ++n) {
      if (fast.node_pool(n).holds_transients_of(r)) {
        EXPECT_TRUE(listed(n)) << where << " request " << r << " node " << n;
      }
    }
    for (net::OverlayLinkIndex l = 0; l < fast.mesh().link_count(); ++l) {
      if (fast.link_pool(l).holds_transients_of(r)) {
        EXPECT_TRUE(listed(l | StreamSystem::kLinkPool))
            << where << " request " << r << " link " << l;
      }
    }
  }
}

struct NodeHold {
  RequestId request;
  std::uint32_t tag;
  NodeId node;
};
struct LinkHold {
  RequestId request;
  std::uint32_t tag;
  NodeId a;
  NodeId b;
};
struct NodeCommit {
  SessionId session;
  NodeId node;
  ResourceVector amount;
};
struct LinkCommit {
  SessionId session;
  NodeId a;
  NodeId b;
  double kbps;
};

std::size_t committed_on_path(const StreamSystem& sys, NodeId a, NodeId b) {
  std::size_t n = 0;
  sys.mesh().for_each_virtual_link(
      a, b, [&](net::OverlayLinkIndex l) { n += sys.link_pool(l).committed_count(); });
  return n;
}

/// Whether the virtual link a→b has at least two links and room for `kbps`
/// on its first one — a failure then had something to roll back.
bool first_link_fits(const StreamSystem& sys, NodeId a, NodeId b, double kbps, double now) {
  if (sys.mesh().virtual_link_hops(a, b) < 2) return false;
  bool first = true;
  bool fits = false;
  sys.mesh().for_each_virtual_link(a, b, [&](net::OverlayLinkIndex l) {
    if (first) fits = kbps <= sys.link_pool(l).available(now);
    first = false;
  });
  return fits;
}

void run_sequence(Rig& rig, std::uint64_t seed, Tally& tally) {
  StreamSystem& fast = *rig.fast;
  StreamSystem& ref = *rig.ref;
  Ledger& ledger = rig.ledger;
  util::Rng rng(seed * 7919 + 17);
  // Endpoints come from a few hot nodes half the time, so holds, commits
  // and virtual-link paths overlap.
  const std::size_t hot = std::min<std::size_t>(5, fast.node_count());
  const auto pick_node = [&] {
    return static_cast<NodeId>(rng.below(rng.bernoulli(0.5) ? hot : fast.node_count()));
  };
  const auto pick_pair = [&](NodeId& a, NodeId& b) {
    a = pick_node();
    do {
      b = pick_node();
    } while (b == a);
  };
  const auto demand = [&] {
    return ResourceVector(rng.uniform(5.0, 45.0), rng.uniform(50.0, 450.0));
  };
  const auto kbps = [&] { return rng.uniform(0.05, 0.45) * rig.min_link_kbps; };
  const auto request = [&] { return static_cast<RequestId>(1 + rng.below(kRequests)); };
  const auto session = [&] { return static_cast<SessionId>(1 + rng.below(kSessions)); };
  const auto tag = [&] { return static_cast<std::uint32_t>(rng.below(kTags)); };

  std::vector<NodeHold> node_holds;
  std::vector<LinkHold> link_holds;
  std::vector<NodeCommit> node_commits;
  std::vector<LinkCommit> link_commits;
  double now = 0.0;

  for (int step = 0; step < 600; ++step) {
    const std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
    const double expires = now + rng.uniform(1.0, 12.0);
    switch (rng.below(16)) {
      case 0:
      case 1: {  // node reserve; a repeated (request, tag, node) refreshes
        NodeHold h{request(), tag(), pick_node()};
        if (!node_holds.empty() && rng.bernoulli(0.3)) {
          h = node_holds[rng.below(node_holds.size())];
        }
        const ResourceVector amount = demand();
        const std::size_t before = fast.node_pool(h.node).live_transient_count(now);
        const auto reserve = [&](StreamSystem& sys) {
          return sys.reserve_node_transient(h.request, h.tag, h.node, amount, now, expires);
        };
        const bool ok = reserve(fast);
        EXPECT_EQ(ok, reserve(ref)) << where;
        if (ok && fast.node_pool(h.node).live_transient_count(now) == before) ++tally.refreshes;
        if (ok) node_holds.push_back(h);
        break;
      }
      case 2:
      case 3: {  // virtual-link reserve, all-or-nothing
        LinkHold h{request(), tag(), 0, 0};
        pick_pair(h.a, h.b);
        if (!link_holds.empty() && rng.bernoulli(0.3)) {
          h = link_holds[rng.below(link_holds.size())];
        }
        const double bw = kbps();
        const bool fits = first_link_fits(fast, h.a, h.b, bw, now);
        const auto reserve = [&](StreamSystem& sys) {
          return sys.reserve_virtual_link_transient(h.request, h.tag, h.a, h.b, bw, now, expires);
        };
        const bool ok = reserve(fast);
        EXPECT_EQ(ok, reserve(ref)) << where;
        if (!ok && fits) ++tally.reserve_rollbacks;
        if (ok) link_holds.push_back(h);
        break;
      }
      case 4: {  // the sharded apply phase's unchecked reserves
        const RequestId r = request();
        const std::uint32_t t = tag();
        if (rng.bernoulli(0.5)) {
          const NodeId n = pick_node();
          const ResourceVector amount = demand();
          fast.force_reserve_node_transient(r, t, n, amount, now, expires);
          ref.force_reserve_node_transient(r, t, n, amount, now, expires);
          node_holds.push_back({r, t, n});
        } else {
          NodeId a = 0;
          NodeId b = 0;
          pick_pair(a, b);
          const double bw = kbps();
          fast.force_reserve_virtual_link_transient(r, t, a, b, bw, now, expires);
          ref.force_reserve_virtual_link_transient(r, t, a, b, bw, now, expires);
          link_holds.push_back({r, t, a, b});
        }
        ++tally.forced;
        break;
      }
      case 5:
      case 6: {  // confirm a hold (it may have expired or been cancelled)
        const SessionId s = session();
        if (rng.bernoulli(0.5) && !node_holds.empty()) {
          const NodeHold h = node_holds[rng.below(node_holds.size())];
          const bool ok = fast.confirm_node(h.request, h.tag, h.node, s, now);
          EXPECT_EQ(ok, ref_confirm_node(ref, ledger, h.request, h.tag, h.node, s, now)) << where;
          tally.confirms += ok ? 1 : 0;
        } else if (!link_holds.empty()) {
          LinkHold h = link_holds[rng.below(link_holds.size())];
          // Sometimes confirm toward another endpoint: only the shared
          // prefix of the two paths holds this (request, tag).
          if (rng.bernoulli(0.3)) h.b = pick_node();
          if (h.a == h.b) break;
          const std::size_t before = committed_on_path(fast, h.a, h.b);
          const bool ok = fast.confirm_virtual_link(h.request, h.tag, h.a, h.b, s, now);
          EXPECT_EQ(ok, ref_confirm_virtual_link(ref, ledger, h.request, h.tag, h.a, h.b, s, now))
              << where;
          tally.confirms += ok ? 1 : 0;
          if (!ok && committed_on_path(fast, h.a, h.b) > before) ++tally.partial_confirms;
        }
        break;
      }
      case 7:
      case 8: {  // direct commit; a failed virtual link rolls back
        const SessionId s = session();
        if (rng.bernoulli(0.5)) {
          const NodeCommit c{s, pick_node(), demand()};
          const bool ok = fast.commit_node_direct(c.session, c.node, c.amount, now);
          EXPECT_EQ(ok, ref_commit_node_direct(ref, ledger, c.session, c.node, c.amount, now))
              << where;
          if (ok) node_commits.push_back(c);
          tally.direct_commits += ok ? 1 : 0;
        } else {
          LinkCommit c{s, 0, 0, kbps()};
          pick_pair(c.a, c.b);
          const bool fits = first_link_fits(fast, c.a, c.b, c.kbps, now);
          const bool ok = fast.commit_virtual_link_direct(c.session, c.a, c.b, c.kbps, now);
          EXPECT_EQ(ok, ref_commit_virtual_link_direct(ref, ledger, c.session, c.a, c.b, c.kbps,
                                                       now))
              << where;
          if (ok) link_commits.push_back(c);
          tally.direct_commits += ok ? 1 : 0;
          if (!ok && fits) ++tally.direct_rollbacks;
        }
        break;
      }
      case 9: {  // session repair's targeted releases
        if (rng.bernoulli(0.5) && !node_commits.empty()) {
          const NodeCommit c = node_commits[rng.below(node_commits.size())];
          const bool ok = fast.release_node_direct(c.session, c.node, c.amount);
          EXPECT_EQ(ok, release_one(ledger.nodes[c.node], ref.node_pool(c.node), c.session,
                                    c.amount))
              << where;
          tally.targeted_releases += ok ? 1 : 0;
        } else if (!link_commits.empty()) {
          const LinkCommit c = link_commits[rng.below(link_commits.size())];
          const bool ok = fast.release_virtual_link_direct(c.session, c.a, c.b, c.kbps);
          EXPECT_EQ(ok, ref_release_virtual_link_direct(ref, ledger, c.session, c.a, c.b, c.kbps))
              << where;
          tally.targeted_releases += ok ? 1 : 0;
        }
        break;
      }
      case 10:
      case 11: {
        const RequestId r = request();
        fast.cancel_request(r);
        sweep_cancel(ref, r);
        ++tally.cancels;
        break;
      }
      case 12: {
        const SessionId s = session();
        fast.release_session(s);
        ref_release_session(ref, ledger, s);
        ++tally.releases;
        break;
      }
      case 13: {
        const NodeId n = pick_node();
        const std::size_t reclaimed = fast.reclaim_node_transients(n, now);
        EXPECT_EQ(reclaimed, ref.reclaim_node_transients(n, now)) << where;
        tally.crash_reclaimed += reclaimed;
        break;
      }
      case 14: {
        const double age = rng.uniform(0.5, 6.0);
        const std::size_t reclaimed = fast.reclaim_transients_older_than(age, now);
        EXPECT_EQ(reclaimed, ref.reclaim_transients_older_than(age, now)) << where;
        tally.age_reclaimed += reclaimed;
        break;
      }
      case 15:
        fast.prune_expired(now);
        ref.prune_expired(now);
        ++tally.prunes;
        break;
    }
    if (rng.bernoulli(0.3)) now += rng.uniform(0.0, 2.0);
    expect_same_pools(fast, ref, now, where);
    expect_lists_consistent(rig, where);
    if (::testing::Test::HasFailure()) return;
  }

  // Decide every request and close every session: both systems drain to
  // the same pools, and the fast one's index empties.
  for (RequestId r = 1; r <= kRequests; ++r) {
    fast.cancel_request(r);
    sweep_cancel(ref, r);
  }
  for (SessionId s = 1; s <= kSessions; ++s) {
    fast.release_session(s);
    ref_release_session(ref, ledger, s);
  }
  const std::string drained = "seed " + std::to_string(seed) + " drained";
  expect_same_pools(fast, ref, now, drained);
  expect_lists_consistent(rig, drained);
  EXPECT_EQ(fast.held_request_count(), 0u);
  EXPECT_EQ(fast.committed_session_count(), 0u);
}

void expect_covered(const Tally& t) {
  EXPECT_GT(t.refreshes, 0u);
  EXPECT_GT(t.reserve_rollbacks, 0u);
  EXPECT_GT(t.forced, 0u);
  EXPECT_GT(t.confirms, 0u);
  EXPECT_GT(t.partial_confirms, 0u);
  EXPECT_GT(t.direct_commits, 0u);
  EXPECT_GT(t.direct_rollbacks, 0u);
  EXPECT_GT(t.targeted_releases, 0u);
  EXPECT_GT(t.cancels, 0u);
  EXPECT_GT(t.releases, 0u);
  EXPECT_GT(t.crash_reclaimed, 0u);
  EXPECT_GT(t.age_reclaimed, 0u);
  EXPECT_GT(t.prunes, 0u);
}

TEST(PoolFootprintDifferential, MatchesFullSweepOnInet) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rig rig = inet_rig(seed);
    run_sequence(rig, seed, tally);
    if (HasFailure()) return;
  }
  expect_covered(tally);
}

TEST(PoolFootprintDifferential, MatchesFullSweepOnTorus) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rig rig = torus_rig(seed);
    run_sequence(rig, seed, tally);
    if (HasFailure()) return;
  }
  expect_covered(tally);
}

/// Hold lists nobody cancels — leaked, or emptied by crash reclamation —
/// close at the next world-wide sweep that finds their pools empty.
TEST(PoolFootprint, SweepsDropOrphanedRequestFootprints) {
  Rig rig = torus_rig(3);
  StreamSystem& sys = *rig.fast;
  ASSERT_TRUE(sys.reserve_node_transient(1, 0, 4, ResourceVector(1, 1), 0.0, 3600.0));
  ASSERT_TRUE(sys.reserve_node_transient(2, 0, 7, ResourceVector(1, 1), 0.0, 5.0));
  ASSERT_TRUE(sys.reserve_virtual_link_transient(3, 0, 0, 9, 10.0, 0.0, 3600.0));
  EXPECT_EQ(sys.held_request_count(), 3u);

  // Request 2's hold expires; pruning drops the record and the hold list.
  sys.prune_expired(6.0);
  EXPECT_EQ(sys.held_request_count(), 2u);

  // Crash reclamation empties node 4 but is not a world-wide sweep: the
  // hold list over-lists until the next sweep.
  EXPECT_EQ(sys.reclaim_node_transients(4, 7.0), 1u);
  EXPECT_EQ(sys.held_request_count(), 2u);
  EXPECT_EQ(sys.reclaim_transients_older_than(100.0, 8.0), 0u);
  EXPECT_EQ(sys.held_request_count(), 1u);

  // The age sweep reclaims request 3's hold and its hold list.
  EXPECT_GT(sys.reclaim_transients_older_than(100.0, 200.0), 0u);
  EXPECT_EQ(sys.held_request_count(), 0u);
}

}  // namespace
}  // namespace acp::stream
