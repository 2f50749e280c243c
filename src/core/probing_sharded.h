// Shard router for the probing protocol.
//
// A sharded run (sim/sharded_engine.h) instantiates one ProbingProtocol per
// shard — each with its own arena, counters, registry view, and lane-local
// observability capture — and routes every request to the instance owning
// the request's deputy node under the engine's hashed ShardPlan. The
// instance-per-shard split is what makes the shard phase thread-safe
// without locks: all events of a request run on the owner lane's thread,
// so an instance's mutable state (arena, live-probe tally, coordinator
// bookkeeping) is only ever touched by one thread per phase.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/probing.h"
#include "sim/shard.h"

namespace acp::core {

class ShardedProbing final : public ProbingExecutor {
 public:
  /// `instances` must be one protocol per shard of `plan`, already attached
  /// to the sharded engine via set_shard_host. Instances must outlive the
  /// router.
  ShardedProbing(const sim::ShardPlan& plan, std::vector<ProbingProtocol*> instances);

  void execute(const workload::Request& req, double alpha, PerHopPolicy hop_policy,
               SelectionPolicy selection_policy,
               std::function<void(const CompositionOutcome&)> done) override;

  const ProbingConfig& config() const override { return instances_.front()->config(); }

  stream::NodeId deputy_for(net::NodeIndex client_ip) const override {
    return instances_.front()->deputy_for(client_ip);
  }

  std::uint64_t retries_sent() const override;
  std::uint64_t deputy_reelections() const override;
  std::uint64_t live_probes() const override;

 private:
  const sim::ShardPlan* plan_;
  std::vector<ProbingProtocol*> instances_;
};

}  // namespace acp::core
