#include "fleet/fleet.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "fleet/runner.hpp"
#include "sched/registry.hpp"

namespace synpa::fleet {

Fleet::Fleet(const FleetOptions& opts, int node_sim_threads, bool with_estimators) {
    if (opts.nodes < 1)
        throw std::invalid_argument("Fleet: nodes must be >= 1");
    if (with_estimators && opts.policy_config.model == nullptr)
        throw std::invalid_argument(
            "Fleet: interference scoring needs PolicyConfig::model");
    uarch::SimConfig node_config = opts.node_config;
    node_config.sim_threads = node_sim_threads;
    nodes_.reserve(static_cast<std::size_t>(opts.nodes));
    for (int n = 0; n < opts.nodes; ++n) {
        // Per-node policy seed: randomized node policies (random, sampling)
        // must draw independent streams per node.
        sched::PolicyConfig node_pc = opts.policy_config;
        node_pc.seed = common::derive_key(opts.policy_config.seed, 0xf1e7,
                                          static_cast<std::uint64_t>(n));
        nodes_.push_back(std::make_unique<FleetNode>(
            node_config, sched::make_policy(opts.node_policy, node_pc),
            with_estimators ? opts.policy_config.model : nullptr));
    }
}

int Fleet::total_capacity() const noexcept {
    int total = 0;
    for (const auto& n : nodes_) total += n->capacity();
    return total;
}

int Fleet::live_count() const noexcept {
    int live = 0;
    for (const auto& n : nodes_) live += n->live_count();
    return live;
}

}  // namespace synpa::fleet
