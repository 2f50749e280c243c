// Window barrier for the sharded PDES engine.
//
// The coordinator opens a time window; every shard worker drains its lane
// up to the window end, then reports done, while the coordinator drains
// lane 0 itself; the coordinator then waits for all workers before
// applying deferred ops and advancing the global lane. One mutex guards the
// whole exchange — windows are hundreds of sim-seconds of work per worker,
// so barrier cost is noise — and, importantly, the mutex gives every
// cross-phase memory access a happens-before edge: workers only touch
// shared structures (pools, registries, stream tables) between open_window
// and worker_done, coordinators only outside that span (lane 0 aside, which
// no worker touches).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace acp::sim {

class PhaseBarrier {
 public:
  /// `workers` threads report per window; 0 is valid (the coordinator
  /// drains the only lane and never waits).
  explicit PhaseBarrier(std::size_t workers) : workers_(workers) {}

  /// Coordinator: releases all workers to drain events with at <= `end`.
  void open_window(double end) {
    std::lock_guard<std::mutex> lk(m_);
    window_end_ = end;
    done_ = 0;
    ++generation_;
    cv_workers_.notify_all();
  }

  /// Coordinator: blocks until every worker called worker_done().
  void wait_workers() {
    std::unique_lock<std::mutex> lk(m_);
    cv_coordinator_.wait(lk, [&] { return done_ == workers_; });
  }

  /// Coordinator: wakes all workers with a stop signal (join after).
  void shutdown() {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
    cv_workers_.notify_all();
  }

  /// Worker: blocks until a window newer than `seen` opens (returning its
  /// end time and updating `seen`) or shutdown (returning false). Each
  /// worker keeps its own `seen`, starting at 0.
  bool wait_for_window(std::uint64_t& seen, double& end) {
    std::unique_lock<std::mutex> lk(m_);
    cv_workers_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return false;
    seen = generation_;
    end = window_end_;
    return true;
  }

  /// Worker: reports its lane drained for the current window.
  void worker_done() {
    std::lock_guard<std::mutex> lk(m_);
    ++done_;
    if (done_ == workers_) cv_coordinator_.notify_one();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_coordinator_;
  std::size_t workers_;
  std::size_t done_ = 0;
  std::uint64_t generation_ = 0;
  double window_end_ = 0.0;
  bool stop_ = false;
};

}  // namespace acp::sim
