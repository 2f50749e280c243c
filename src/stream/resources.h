// End-system resource vectors and reservation pools.
//
// The paper models each node with a resource availability vector (CPU,
// memory, ...) and each virtual link with available bandwidth. Composition
// subtracts per-component requirements; "transient resource allocation"
// (Sec. 3.3 step 2) holds resources for in-flight probes and expires on a
// timeout unless confirmed. A pool keeps its transient records, but of its
// commits only their sum and count: the confirming session's (pool,
// amount) records live in StreamSystem, which returns each amount through
// release() in the order it was committed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/types.h"
#include "util/error.h"

namespace acp::stream {

inline constexpr std::size_t kResourceDims = 2;
inline constexpr std::size_t kResCpu = 0;    ///< abstract CPU units
inline constexpr std::size_t kResMemory = 1; ///< MB

/// A point in end-system resource space (CPU units, memory MB).
class ResourceVector {
 public:
  ResourceVector() { dims_.fill(0.0); }
  ResourceVector(double cpu, double memory_mb) {
    ACP_REQUIRE(cpu >= 0.0 && memory_mb >= 0.0);
    dims_[kResCpu] = cpu;
    dims_[kResMemory] = memory_mb;
  }

  /// Rehydrates from raw dimension values without the non-negativity
  /// precondition — stored availability snapshots can be negative when a
  /// pool is over-committed under capacity degradation (fault injection).
  static ResourceVector from_dims(double cpu, double memory_mb) {
    ResourceVector v;
    v.dims_[kResCpu] = cpu;
    v.dims_[kResMemory] = memory_mb;
    return v;
  }

  double cpu() const { return dims_[kResCpu]; }
  double memory_mb() const { return dims_[kResMemory]; }
  double dim(std::size_t i) const {
    ACP_REQUIRE(i < kResourceDims);
    return dims_[i];
  }

  ResourceVector& operator+=(const ResourceVector& o) {
    for (std::size_t i = 0; i < kResourceDims; ++i) dims_[i] += o.dims_[i];
    return *this;
  }
  ResourceVector& operator-=(const ResourceVector& o) {
    for (std::size_t i = 0; i < kResourceDims; ++i) dims_[i] -= o.dims_[i];
    return *this;
  }
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) { return a += b; }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) { return a -= b; }

  /// Every dim >= 0 (Eq. 4's residual-nonnegativity check).
  bool nonnegative() const {
    for (double d : dims_) {
      if (d < 0.0) return false;
    }
    return true;
  }

  /// Element-wise `this <= o` on every dim.
  bool fits_within(const ResourceVector& o) const {
    for (std::size_t i = 0; i < kResourceDims; ++i) {
      if (dims_[i] > o.dims_[i]) return false;
    }
    return true;
  }

  bool operator==(const ResourceVector& o) const { return dims_ == o.dims_; }

  std::string to_string() const;

 private:
  std::array<double, kResourceDims> dims_;
};

/// Congestion contribution of placing demand `req` on a pool whose residual
/// after ALL of this composition's demands is `residual`:
///     Σ_k req_k / (residual_k + req_k)                    (part of Eq. 1)
/// Dimensions with zero demand contribute 0.
double congestion_terms(const ResourceVector& req, const ResourceVector& residual);

/// Scalar version for bandwidth: b / (rb + b); 0 when b == 0.
double congestion_term(double required, double residual);

// --- Helpers so ReservationPool works for both Q types -------------------

inline bool pool_fits(const ResourceVector& amount, const ResourceVector& avail) {
  return amount.fits_within(avail);
}
inline bool pool_fits(double amount, double avail) { return amount <= avail; }

inline ResourceVector pool_scale(const ResourceVector& q, double factor) {
  if (factor == 1.0) return q;
  return ResourceVector(q.cpu() * factor, q.memory_mb() * factor);
}
inline double pool_scale(double q, double factor) { return q * factor; }

/// What reserve_transient did: whether (request, tag) holds afterwards, and
/// whether that took a new record (false when it refreshed a live one).
struct Reserved {
  bool ok = false;
  bool created = false;
  explicit operator bool() const { return ok; }
};

/// A reservation pool over an additive quantity Q (ResourceVector for nodes,
/// double for link bandwidth). Tracks transient (probe-time) reservations
/// that expire unless confirmed, and the sum and count of committed
/// allocations. Who owns a commit is not the pool's business: StreamSystem
/// keeps each session's (pool, amount) records and hands the amounts back
/// through release().
template <typename Q>
class ReservationPool {
 public:
  explicit ReservationPool(Q capacity) : capacity_(capacity), committed_{} {}

  const Q& capacity() const { return capacity_; }

  /// Degrades (or restores, factor = 1) the usable fraction of capacity —
  /// fault injection's bandwidth-degradation knob. Committed allocations are
  /// untouched; only future admission sees the reduced headroom.
  void set_capacity_factor(double factor) {
    ACP_REQUIRE(factor > 0.0 && factor <= 1.0);
    capacity_factor_ = factor;
  }
  double capacity_factor() const { return capacity_factor_; }

  /// Available quantity at time `now`: capacity·factor - committed - live
  /// transients.
  Q available(double now) const {
    Q avail = effective_capacity();
    avail -= committed_;
    for (const auto& r : transients_) {
      if (r.expires_at > now) avail -= r.amount;
    }
    return avail;
  }

  /// Like available(), but ignores live transients belonging to `request` —
  /// resources a request has itself reserved are available *to it* when its
  /// deputy evaluates candidate compositions.
  Q available_excluding(double now, RequestId request) const {
    Q avail = effective_capacity();
    avail -= committed_;
    for (const auto& r : transients_) {
      if (r.expires_at > now && r.request != request) avail -= r.amount;
    }
    return avail;
  }

  /// Sum of committed allocations.
  const Q& committed() const { return committed_; }

  /// Places a transient reservation tagged (request, tag). At most one live
  /// reservation per (request, tag) is kept (paper footnote 7: a node
  /// reserves once per component per request); a duplicate refreshes the
  /// expiry instead of double-reserving. Not ok (no change) if the amount
  /// does not fit in available(now).
  Reserved reserve_transient(RequestId request, std::uint32_t tag, const Q& amount, double now,
                             double expires_at);

  /// reserve_transient without the fit check: always places (or refreshes)
  /// the reservation; true when it took a new record. The sharded engine's
  /// barrier uses this to apply claims admitted by shard workers against
  /// window-frozen pool state — the admission decision already happened
  /// (deterministically, against the same frozen view for every shard
  /// count), so the apply must not second-guess it. Transients never
  /// underflow the pool: a transient over-subscription only shrinks
  /// available(), which self-limits the next window's admissions exactly
  /// like a serial burst of reservations.
  bool force_reserve_transient(RequestId request, std::uint32_t tag, const Q& amount, double now,
                               double expires_at);

  /// Moves the live (request, tag) transient into the committed total and
  /// returns its amount; nullopt if it expired or never existed — in which
  /// case the caller must re-admit from scratch.
  std::optional<Q> confirm(RequestId request, std::uint32_t tag, double now);

  /// Drops all transient reservations of `request` (probe failed/abandoned).
  void cancel_request(RequestId request);

  /// Drops only the (request, tag) transient — used to roll back a partial
  /// multi-link reservation without disturbing the request's other tags.
  void cancel_request_tag(RequestId request, std::uint32_t tag);

  /// Commits `amount` directly, without a prior transient. False (no
  /// change) if it does not fit in available(now).
  bool commit(const Q& amount, double now);

  /// Returns one committed `amount` (a confirm's or a commit's) to the pool.
  void release(const Q& amount);

  /// Removes expired transient records; available() is correct without this,
  /// it only reclaims memory. Returns the number pruned.
  std::size_t prune_expired(double now);

  /// Force-cancels every live transient reservation (crash reclamation: the
  /// holding node died, its probe-time holds are void). Returns the number
  /// of live records dropped (already-expired records are pruned silently).
  std::size_t cancel_all_transients(double now);

  /// Force-cancels live transients placed more than `age_s` ago — the leak
  /// reclamation sweep. A legitimate probe-time hold is confirmed or
  /// cancelled within seconds; anything older is an orphan. Returns the
  /// number reclaimed.
  std::size_t cancel_transients_older_than(double age_s, double now);

  std::size_t live_transient_count(double now) const;
  /// Committed allocations not yet released.
  std::size_t committed_count() const { return commit_count_; }

  /// True while any transient record of `request` remains, live or expired.
  bool holds_transients_of(RequestId request) const;

 private:
  struct Transient {
    RequestId request;
    std::uint32_t tag;
    Q amount;
    double expires_at;
    double created_at;
  };

  Q effective_capacity() const { return pool_scale(capacity_, capacity_factor_); }

  Q capacity_;
  Q committed_;
  std::size_t commit_count_ = 0;
  double capacity_factor_ = 1.0;
  std::vector<Transient> transients_;
};

extern template class ReservationPool<ResourceVector>;
extern template class ReservationPool<double>;

using NodePool = ReservationPool<ResourceVector>;
using BandwidthPool = ReservationPool<double>;

}  // namespace acp::stream
