#include "stream/resources.h"

#include <algorithm>
#include <sstream>

namespace acp::stream {

std::string ResourceVector::to_string() const {
  std::ostringstream os;
  os << "Res{cpu=" << cpu() << ", mem=" << memory_mb() << "MB}";
  return os.str();
}

double congestion_term(double required, double residual) {
  if (required <= 0.0) return 0.0;
  // Feasible placements have residual >= 0, so each term lies in (0, 1].
  // Candidate scoring may evaluate infeasible placements against *stale*
  // coarse-grain state; saturate those at the worst feasible value so the
  // ordering stays sensible instead of throwing.
  const double denom = residual + required;
  if (denom <= required) return 1.0;  // residual <= 0 ⇒ fully congested
  return required / denom;
}

double congestion_terms(const ResourceVector& req, const ResourceVector& residual) {
  double sum = 0.0;
  for (std::size_t k = 0; k < kResourceDims; ++k) {
    sum += congestion_term(req.dim(k), residual.dim(k));
  }
  return sum;
}

template <typename Q>
Reserved ReservationPool<Q>::reserve_transient(RequestId request, std::uint32_t tag,
                                               const Q& amount, double now, double expires_at) {
  ACP_REQUIRE(expires_at > now);
  // Refresh an existing live reservation for the same (request, tag).
  for (auto& r : transients_) {
    if (r.request == request && r.tag == tag && r.expires_at > now) {
      r.expires_at = expires_at;
      return {true, false};
    }
  }
  if (!pool_fits(amount, available(now))) return {};
  transients_.push_back(Transient{request, tag, amount, expires_at, now});
  return {true, true};
}

template <typename Q>
bool ReservationPool<Q>::force_reserve_transient(RequestId request, std::uint32_t tag,
                                                 const Q& amount, double now, double expires_at) {
  ACP_REQUIRE(expires_at > now);
  for (auto& r : transients_) {
    if (r.request == request && r.tag == tag && r.expires_at > now) {
      r.expires_at = expires_at;
      return false;
    }
  }
  transients_.push_back(Transient{request, tag, amount, expires_at, now});
  return true;
}

template <typename Q>
std::optional<Q> ReservationPool<Q>::confirm(RequestId request, std::uint32_t tag, double now) {
  for (auto it = transients_.begin(); it != transients_.end(); ++it) {
    if (it->request == request && it->tag == tag && it->expires_at > now) {
      const Q amount = it->amount;
      committed_ += amount;
      ++commit_count_;
      transients_.erase(it);
      return amount;
    }
  }
  return std::nullopt;
}

template <typename Q>
void ReservationPool<Q>::cancel_request(RequestId request) {
  transients_.erase(std::remove_if(transients_.begin(), transients_.end(),
                                   [&](const Transient& r) { return r.request == request; }),
                    transients_.end());
}

template <typename Q>
void ReservationPool<Q>::cancel_request_tag(RequestId request, std::uint32_t tag) {
  transients_.erase(
      std::remove_if(transients_.begin(), transients_.end(),
                     [&](const Transient& r) { return r.request == request && r.tag == tag; }),
      transients_.end());
}

template <typename Q>
bool ReservationPool<Q>::commit(const Q& amount, double now) {
  if (!pool_fits(amount, available(now))) return false;
  committed_ += amount;
  ++commit_count_;
  return true;
}

template <typename Q>
void ReservationPool<Q>::release(const Q& amount) {
  ACP_REQUIRE_MSG(commit_count_ > 0, "release without a committed allocation");
  committed_ -= amount;
  --commit_count_;
}

template <typename Q>
std::size_t ReservationPool<Q>::prune_expired(double now) {
  const std::size_t before = transients_.size();
  transients_.erase(std::remove_if(transients_.begin(), transients_.end(),
                                   [&](const Transient& r) { return r.expires_at <= now; }),
                    transients_.end());
  return before - transients_.size();
}

template <typename Q>
std::size_t ReservationPool<Q>::cancel_all_transients(double now) {
  std::size_t live = 0;
  for (const auto& r : transients_) {
    if (r.expires_at > now) ++live;
  }
  transients_.clear();
  return live;
}

template <typename Q>
std::size_t ReservationPool<Q>::cancel_transients_older_than(double age_s, double now) {
  const std::size_t before = transients_.size();
  transients_.erase(std::remove_if(transients_.begin(), transients_.end(),
                                   [&](const Transient& r) {
                                     return r.expires_at > now && now - r.created_at > age_s;
                                   }),
                    transients_.end());
  return before - transients_.size();
}

template <typename Q>
std::size_t ReservationPool<Q>::live_transient_count(double now) const {
  std::size_t n = 0;
  for (const auto& r : transients_) {
    if (r.expires_at > now) ++n;
  }
  return n;
}

template <typename Q>
bool ReservationPool<Q>::holds_transients_of(RequestId request) const {
  return std::any_of(transients_.begin(), transients_.end(),
                     [&](const Transient& r) { return r.request == request; });
}

template class ReservationPool<ResourceVector>;
template class ReservationPool<double>;

}  // namespace acp::stream
