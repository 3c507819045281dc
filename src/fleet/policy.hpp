// String-keyed fleet-policy registry: the admission front end's node
// selectors, constructible as
//
//   auto policy = fleet::make_fleet_policy("fleet-interference-aware", seed);
//
// so benches, grids and CI select fleet policies by name exactly like node
// policies.  registered_fleet_policies() is the single source of truth for
// the name set; tools/check_docs.py cross-checks it against the fleet table
// in docs/REFERENCE.md, so adding an entry here without documenting it
// fails CI.
//
// A fleet policy answers one question — "which node serves this item?" —
// over the candidate set the runner prepared (every node with a free
// hardware context, ascending node id).  It never touches node-local
// grouping: that belongs to each node's own sched policy.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "fleet/fleet.hpp"
#include "fleet/work_item.hpp"

namespace synpa::fleet {

class FleetPolicy {
public:
    virtual ~FleetPolicy() = default;

    virtual std::string name() const = 0;

    /// Picks the serving node for `item`.  `candidates` holds the ids of
    /// every node with at least one free context, in ascending order, and is
    /// never empty.  Must be deterministic in (fleet state, item, own seed).
    virtual int pick_node(const Fleet& fleet, const WorkItem& item,
                          std::span<const int> candidates) = 0;
};

struct FleetPolicyInfo {
    std::string_view name;
    std::string_view objective;  ///< what the selector optimizes (docs table)
    bool needs_model = false;    ///< nodes must carry scoring estimators
    std::string_view description;
};

/// Every registered fleet policy, in documentation order.
std::span<const FleetPolicyInfo> registered_fleet_policies();

/// Registry entry for a name; nullptr when unknown.
const FleetPolicyInfo* find_fleet_policy(std::string_view name);

/// Instantiates a registered fleet policy; `seed` drives the randomized
/// ones.  Throws std::invalid_argument for an unknown name (the message
/// lists the inventory).
std::unique_ptr<FleetPolicy> make_fleet_policy(std::string_view name, std::uint64_t seed);

}  // namespace synpa::fleet
