// The Fleet: N identical, independent serving nodes (uarch::Platforms with
// node-local policies) composed behind the admission front end.  Mirrors
// how the family-of-policies follow-up splits a shared per-node estimator
// from the objective on top: SYNPA (or any registered policy) runs locally
// on each node, while a fleet policy (policy.hpp) decides node placement.
#pragma once

#include <memory>
#include <vector>

#include "fleet/node.hpp"

namespace synpa::fleet {

struct FleetOptions;  // fleet/runner.hpp

class Fleet {
public:
    /// opts.nodes nodes of opts.node_config, each running its own instance
    /// of the registered sched policy opts.node_policy with a per-node
    /// derived seed.  `node_sim_threads` replaces node_config.sim_threads
    /// (the runner nests chip shards under its node pool).
    /// `with_estimators` gives every node a SynpaEstimator for fleet-level
    /// interference scoring (requires opts.policy_config.model); policies
    /// that never score leave it off and skip the per-quantum inversion
    /// work.
    Fleet(const FleetOptions& opts, int node_sim_threads, bool with_estimators);

    int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
    FleetNode& node(int i) { return *nodes_.at(static_cast<std::size_t>(i)); }
    const FleetNode& node(int i) const { return *nodes_.at(static_cast<std::size_t>(i)); }

    /// Hardware contexts across every node.
    int total_capacity() const noexcept;
    /// Resident tasks across every node.
    int live_count() const noexcept;

private:
    /// unique_ptr: FleetNode owns a Platform whose chips must never
    /// relocate, and nodes are stepped from worker threads holding raw
    /// pointers.
    std::vector<std::unique_ptr<FleetNode>> nodes_;
};

}  // namespace synpa::fleet
