#include "fleet/policy.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace synpa::fleet {
namespace {

// The single source of truth for the fleet-policy name set.  Keep one entry
// per line: tools/check_docs.py parses the quoted names between the
// begin/end markers and fails CI when docs/REFERENCE.md misses one.
// registry-table-begin
constexpr FleetPolicyInfo kFleetRegistry[] = {
    {"fleet-random", "none (uniform over non-full nodes)", false,
     "load-oblivious baseline isolating placement signal from luck"},
    {"fleet-least-loaded", "occupancy (fewest resident tasks)", false,
     "classic least-connections balancing, blind to interference"},
    {"fleet-interference-aware", "predicted marginal interference", true,
     "scores candidates via each node's SynpaEstimator group weights"},
};
// registry-table-end

class FleetRandomPolicy final : public FleetPolicy {
public:
    explicit FleetRandomPolicy(std::uint64_t seed) : rng_(seed, 0xf1ee7) {}
    std::string name() const override { return "fleet-random"; }
    int pick_node(const Fleet&, const WorkItem&,
                  std::span<const int> candidates) override {
        return candidates[rng_.below(candidates.size())];
    }

private:
    common::Rng rng_;
};

class FleetLeastLoadedPolicy final : public FleetPolicy {
public:
    std::string name() const override { return "fleet-least-loaded"; }
    int pick_node(const Fleet& fleet, const WorkItem&,
                  std::span<const int> candidates) override {
        int best = candidates[0];
        int best_live = fleet.node(best).live_count();
        for (const int n : candidates) {
            const int live = fleet.node(n).live_count();
            if (live < best_live) {  // ties keep the lowest node id
                best = n;
                best_live = live;
            }
        }
        return best;
    }
};

class FleetInterferenceAwarePolicy final : public FleetPolicy {
public:
    std::string name() const override { return "fleet-interference-aware"; }
    int pick_node(const Fleet& fleet, const WorkItem& item,
                  std::span<const int> candidates) override {
        // Minimize the predicted marginal group weight at each node's
        // admission target; break exact ties (e.g. unobserved tasks whose
        // estimates are still the uniform prior) toward the least-loaded,
        // lowest-id node, so the policy degrades to least-loaded until the
        // estimators have signal.
        int best = candidates[0];
        double best_cost = std::numeric_limits<double>::infinity();
        int best_live = std::numeric_limits<int>::max();
        for (const int n : candidates) {
            const double cost = fleet.node(n).admission_cost(item);
            const int live = fleet.node(n).live_count();
            if (cost < best_cost || (cost == best_cost && live < best_live)) {
                best = n;
                best_cost = cost;
                best_live = live;
            }
        }
        return best;
    }
};

}  // namespace

std::span<const FleetPolicyInfo> registered_fleet_policies() { return kFleetRegistry; }

const FleetPolicyInfo* find_fleet_policy(std::string_view name) {
    for (const FleetPolicyInfo& info : kFleetRegistry)
        if (info.name == name) return &info;
    return nullptr;
}

std::unique_ptr<FleetPolicy> make_fleet_policy(std::string_view name, std::uint64_t seed) {
    if (name == "fleet-random") return std::make_unique<FleetRandomPolicy>(seed);
    if (name == "fleet-least-loaded") return std::make_unique<FleetLeastLoadedPolicy>();
    if (name == "fleet-interference-aware")
        return std::make_unique<FleetInterferenceAwarePolicy>();

    std::ostringstream msg;
    msg << "make_fleet_policy: unknown policy '" << name << "' (registered:";
    for (const FleetPolicyInfo& info : kFleetRegistry) msg << ' ' << info.name;
    msg << ')';
    throw std::invalid_argument(msg.str());
}

}  // namespace synpa::fleet
