#include "sched/topology.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "sched/baselines.hpp"

namespace synpa::sched {

TopologyView observed_topology(std::span<const TaskObservation> observations) {
    TopologyView topo;
    topo.chips = observed_chip_count(observations);
    const auto total = static_cast<int>(observed_total_cores(observations));
    if (total % topo.chips != 0)
        throw std::invalid_argument(
            "observed_topology: total_cores must divide evenly across chips");
    topo.cores_per_chip = total / topo.chips;
    topo.smt_ways = observed_smt_ways(observations);
    return topo;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Predicted cost of observation `i` running on a core of its own.
double price_alone(const matching::GroupCost& cost, std::size_t i) {
    const std::array<int, 1> group = {static_cast<int>(i)};
    return cost(group);
}

/// Predicted cost of observations `u` and `v` sharing a core, in either
/// argument order: the group lists them ascending.
double price_pair(const matching::GroupCost& cost, std::size_t u, std::size_t v) {
    const std::array<int, 2> group = {static_cast<int>(std::min(u, v)),
                                      static_cast<int>(std::max(u, v))};
    return cost(group);
}

/// Cheapest predicted cost of task `t` living on the chip whose residents
/// are `chip_members`: its solo cost when the chip has a core for everyone
/// (counting t itself — `resident` says whether it is already in the
/// list), otherwise the cheapest co-run next to an existing resident.
double expected_cost_on_chip(std::size_t t, const std::vector<std::size_t>& chip_members,
                             int cores, bool resident, const matching::GroupCost& cost) {
    const std::size_t residents = chip_members.size() + (resident ? 0 : 1);
    if (residents <= static_cast<std::size_t>(cores)) return price_alone(cost, t);
    double best = kInf;
    for (const std::size_t other : chip_members) {
        if (other == t) continue;
        best = std::min(best, price_pair(cost, t, other));
    }
    return best < kInf ? best : price_alone(cost, t);
}

}  // namespace

std::vector<int> balance_across_chips(std::span<const TaskObservation> observations,
                                      const TopologyView& topo,
                                      const matching::GroupCost& cost, double migration_penalty) {
    std::vector<int> target(observations.size());
    for (std::size_t i = 0; i < observations.size(); ++i) {
        const int chip = observations[i].chip;
        if (chip < 0 || chip >= topo.chips)
            throw std::invalid_argument("balance_across_chips: observation chip out of range");
        target[i] = chip;
    }
    if (topo.chips <= 1) return target;

    std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(topo.chips));
    for (std::size_t i = 0; i < target.size(); ++i)
        members[static_cast<std::size_t>(target[i])].push_back(i);

    // Each round moves at most one task, and every move shrinks the
    // max-min load gap, so the loop is bounded by the task count.
    for (std::size_t round = 0; round < observations.size(); ++round) {
        int src = 0, dst = 0;
        for (int c = 1; c < topo.chips; ++c) {
            if (members[static_cast<std::size_t>(c)].size() >
                members[static_cast<std::size_t>(src)].size())
                src = c;
            if (members[static_cast<std::size_t>(c)].size() <
                members[static_cast<std::size_t>(dst)].size())
                dst = c;
        }
        auto& from = members[static_cast<std::size_t>(src)];
        auto& to = members[static_cast<std::size_t>(dst)];
        if (from.size() < to.size() + 2) break;  // balanced enough

        // Best candidate: largest predicted benefit of leaving the crowd.
        std::size_t best_i = observations.size();
        double best_benefit = -kInf;
        for (const std::size_t t : from) {
            const double here =
                expected_cost_on_chip(t, from, topo.cores_per_chip, /*resident=*/true, cost);
            const double there =
                expected_cost_on_chip(t, to, topo.cores_per_chip, /*resident=*/false, cost);
            const double benefit = here - there;
            if (benefit > best_benefit) {
                best_benefit = benefit;
                best_i = t;
            }
        }
        if (best_i == observations.size() || best_benefit <= migration_penalty) break;

        from.erase(std::find(from.begin(), from.end(), best_i));
        to.insert(std::upper_bound(to.begin(), to.end(), best_i), best_i);
        target[best_i] = dst;
    }
    return target;
}

namespace {

/// Step 3 on one chip: `idx` lists the chip's tasks (ascending observation
/// indices); each solver works in local index space and maps a candidate
/// to its observation indices before pricing it.
CoreAllocation solve_one_chip(std::span<const TaskObservation> observations,
                              std::span<const std::size_t> idx, int chip,
                              const TopologyView& topo, const matching::GroupCost& cost,
                              const matching::Matcher& matcher, const matching::Matcher& exact,
                              double stability_bias, double keep_threshold) {
    const std::size_t n = idx.size();
    const auto cores = static_cast<std::size_t>(topo.cores_per_chip);
    if (n == 0) return CoreAllocation(cores);  // an empty chip idles every core
    const auto width = static_cast<std::size_t>(topo.smt_ways);
    const auto task = [&](int i) { return observations[idx[static_cast<std::size_t>(i)]].task_id; };

    std::vector<CoreGroup> entries;
    if (width == 1) {
        // SMT disabled in BIOS: there is no grouping decision.
        for (const std::size_t i : idx) entries.push_back(CoreGroup{observations[i].task_id});
    } else if (width > 2) {
        // The k-way grouping (no hysteresis: the width-2 near-tie
        // oscillation it guards against is much rarer in the k-way cost
        // surface, and place_groups still pins survivors).
        std::array<int, uarch::kMaxSmtWays> members{};
        const matching::GroupingResult sel = matching::min_weight_grouping(
            n, cores, width, [&](std::span<const int> group) {
                for (std::size_t k = 0; k < group.size(); ++k)
                    members.at(k) = static_cast<int>(idx[static_cast<std::size_t>(group[k])]);
                return cost(std::span<const int>(members.data(), group.size()));
            });
        for (const auto& group : sel.groups) {
            CoreGroup g;
            for (const int i : group) g.add(task(i));
            entries.push_back(g);
        }
    } else {
        matching::WeightMatrix weights(n);
        for (std::size_t u = 0; u < n; ++u)
            for (std::size_t v = u + 1; v < n; ++v)
                weights.set(u, v, price_pair(cost, idx[u], idx[v]));
        // The incumbent pairing in local index space, for hysteresis.
        std::vector<common::SmallIdMap<std::size_t>::Entry> local;
        local.reserve(n);
        for (std::size_t i = 0; i < n; ++i) local.push_back({observations[idx[i]].task_id, i});
        const common::SmallIdMap<std::size_t> index_of(std::move(local));
        std::vector<std::pair<int, int>> current;
        for (std::size_t i = 0; i < n; ++i) {
            const std::vector<int>& partners = observations[idx[i]].corunner_task_ids;
            const std::size_t* it = partners.empty() ? nullptr : index_of.find(partners.front());
            if (it != nullptr && *it > i)
                current.emplace_back(static_cast<int>(i), static_cast<int>(*it));
        }
        const matching::PartialMatching sel = matching::min_weight_pairs(
            weights, [&](std::size_t i) { return price_alone(cost, idx[i]); }, cores, current,
            matcher, exact, stability_bias, keep_threshold);
        std::vector<std::pair<int, int>> pairs;
        for (const auto& [u, v] : sel.pairs) pairs.emplace_back(task(u), task(v));
        for (const int u : sel.singles) pairs.emplace_back(task(u), kNoTask);
        entries = groups_from_pairs(pairs);
    }

    // A task the balancer moved here still reports its old chip's core;
    // only same-chip incumbency means anything to the placement.
    const auto core_of = common::SmallIdMap<int>::from(idx, [&](std::size_t i) {
        const TaskObservation& o = observations[i];
        return std::pair{o.task_id, o.chip == chip ? o.core - chip * topo.cores_per_chip : -1};
    });
    return place_groups(entries, core_of, cores);
}

}  // namespace

CoreAllocation solve_platform(std::span<const TaskObservation> observations,
                              const matching::GroupCost& cost, const matching::Matcher& matcher,
                              const matching::Matcher& exact, double stability_bias,
                              double keep_threshold, double cross_chip_penalty) {
    if (observations.empty()) return {};
    const TopologyView topo = observed_topology(observations);
    const std::vector<int> target =
        topo.chips > 1 ? balance_across_chips(observations, topo, cost, cross_chip_penalty)
                       : std::vector<int>(observations.size(), 0);
    CoreAllocation alloc;
    std::vector<std::size_t> idx;
    for (int c = 0; c < topo.chips; ++c) {
        idx.clear();
        for (std::size_t i = 0; i < target.size(); ++i)
            if (target[i] == c) idx.push_back(i);
        const CoreAllocation chip = solve_one_chip(observations, idx, c, topo, cost, matcher,
                                                   exact, stability_bias, keep_threshold);
        alloc.insert(alloc.end(), chip.begin(), chip.end());
    }
    return alloc;
}

}  // namespace synpa::sched
