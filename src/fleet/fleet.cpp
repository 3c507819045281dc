#include "fleet/fleet.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace synpa::fleet {

Fleet::Fleet(const FleetConfig& cfg) {
    if (cfg.nodes < 1)
        throw std::invalid_argument("Fleet: nodes must be >= 1");
    if (cfg.with_estimators && cfg.policy_config.model == nullptr)
        throw std::invalid_argument(
            "Fleet: interference scoring needs PolicyConfig::model");
    nodes_.reserve(static_cast<std::size_t>(cfg.nodes));
    for (int n = 0; n < cfg.nodes; ++n) {
        // Per-node policy seed: randomized node policies (random, sampling)
        // must draw independent streams per node.
        sched::PolicyConfig node_pc = cfg.policy_config;
        node_pc.seed = common::derive_key(cfg.policy_config.seed, 0xf1e7,
                                          static_cast<std::uint64_t>(n));
        nodes_.push_back(std::make_unique<FleetNode>(
            cfg.node_config, sched::make_policy(cfg.node_policy, node_pc),
            cfg.with_estimators ? cfg.policy_config.model : nullptr));
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
