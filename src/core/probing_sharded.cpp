#include "core/probing_sharded.h"

namespace acp::core {

ShardedProbing::ShardedProbing(const sim::ShardPlan& plan,
                               std::vector<ProbingProtocol*> instances)
    : plan_(&plan), instances_(std::move(instances)) {
  ACP_REQUIRE(!instances_.empty());
  ACP_REQUIRE_MSG(instances_.size() == plan_->shards(), "one protocol instance per shard");
  for (const ProbingProtocol* p : instances_) ACP_REQUIRE(p != nullptr);
}

void ShardedProbing::execute(const workload::Request& req, double alpha, PerHopPolicy hop_policy,
                             SelectionPolicy selection_policy,
                             std::function<void(const CompositionOutcome&)> done) {
  // Route by the owner of the request's deputy — the same key the engine
  // uses to pin the request's stream, so the executing instance and the
  // executing lane always coincide.
  const stream::NodeId deputy = instances_.front()->deputy_for(req.client_ip);
  const std::size_t shard = plan_->owner(deputy);
  instances_[shard]->execute(req, alpha, hop_policy, selection_policy, std::move(done));
}

std::uint64_t ShardedProbing::retries_sent() const {
  std::uint64_t total = 0;
  for (const ProbingProtocol* p : instances_) total += p->retries_sent();
  return total;
}

std::uint64_t ShardedProbing::deputy_reelections() const {
  std::uint64_t total = 0;
  for (const ProbingProtocol* p : instances_) total += p->deputy_reelections();
  return total;
}

std::uint64_t ShardedProbing::live_probes() const {
  std::uint64_t total = 0;
  for (const ProbingProtocol* p : instances_) total += p->live_probes();
  return total;
}

}  // namespace acp::core
