#include "sched/baselines.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hpp"
#include "sched/topology.hpp"

namespace synpa::sched {
namespace {

/// Splits `items` into min(cores, items.size()) consecutive groups as
/// evenly as possible — the first `items mod used` groups get one extra
/// member, so under partial load only the overflow beyond one-per-core is
/// forced to share.  The spread invariant shared by RandomPolicy and
/// SamplingPolicy; throws when the forced group size exceeds `width`.
std::vector<std::vector<int>> even_spread(const std::vector<int>& items, std::size_t cores,
                                          std::size_t width, const char* who) {
    const std::size_t used = std::min(cores, items.size());
    const std::size_t base = items.size() / used;
    const std::size_t extra = items.size() % used;
    if (base + (extra > 0 ? 1 : 0) > width)
        throw std::invalid_argument(std::string(who) + ": more tasks than SMT contexts");
    std::vector<std::vector<int>> groups(used);
    std::size_t k = 0;
    for (std::size_t g = 0; g < used; ++g) {
        const std::size_t size = base + (g < extra ? 1 : 0);
        for (std::size_t s = 0; s < size; ++s) groups[g].push_back(items[k++]);
    }
    return groups;
}

}  // namespace

std::vector<CoreGroup> groups_from_pairs(const std::vector<std::pair<int, int>>& pairs) {
    std::vector<CoreGroup> entries;
    entries.reserve(pairs.size());
    for (const auto& [a, b] : pairs) {
        // Skip kNoTask members instead of copying them verbatim: a
        // (kNoTask, task) spelling must normalize to the occupied-first
        // {task} group, never to a gap-malformed one that silently hides
        // the task behind the gap.
        CoreGroup g;
        if (a != kNoTask) g.add(a);
        if (b != kNoTask) g.add(b);
        entries.push_back(g);
    }
    return entries;
}

CoreAllocation place_groups(const std::vector<CoreGroup>& entries,
                            std::span<const TaskObservation> observations,
                            std::size_t cores) {
    const auto core_of = common::SmallIdMap<int>::from(
        observations, [](const TaskObservation& o) { return std::pair{o.task_id, o.core}; });
    return place_groups(entries, core_of, cores);
}

CoreAllocation place_groups(const std::vector<CoreGroup>& entries,
                            const common::SmallIdMap<int>& incumbent_core, std::size_t cores) {
    if (entries.size() > cores)
        throw std::invalid_argument("place_groups: more entries than cores");
    CoreAllocation alloc(cores);
    std::vector<bool> core_used(cores, false);
    std::vector<CoreGroup> unplaced;

    // First pass: pin each entry to a core one member already occupies
    // (members considered in slot order).
    for (const CoreGroup& g : entries) {
        int preferred = -1;
        for (const int member : g.members()) {
            const int* it = incumbent_core.find(member);
            if (it != nullptr && *it >= 0 && *it < static_cast<int>(cores) &&
                !core_used[static_cast<std::size_t>(*it)]) {
                preferred = *it;
                break;
            }
        }
        if (preferred >= 0) {
            alloc[static_cast<std::size_t>(preferred)] = g;
            core_used[static_cast<std::size_t>(preferred)] = true;
        } else {
            unplaced.push_back(g);
        }
    }
    // Second pass: remaining groups fill remaining cores in order.
    std::size_t next = 0;
    for (const CoreGroup& g : unplaced) {
        while (next < cores && core_used[next]) ++next;
        alloc[next] = g;
        core_used[next] = true;
    }
    return alloc;
}

CoreAllocation RandomPolicy::reallocate(std::span<const TaskObservation> observations) {
    if (observations.empty()) return {};
    std::vector<int> ids;
    ids.reserve(observations.size());
    for (const TaskObservation& o : observations) ids.push_back(o.task_id);
    // Fisher-Yates with the policy's own deterministic stream.
    for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[rng_.below(i)]);

    // Spread the shuffled ids as evenly as the width allows.
    const std::size_t cores = observed_total_cores(observations);
    const auto width = static_cast<std::size_t>(observed_smt_ways(observations));
    const std::vector<std::vector<int>> groups =
        even_spread(ids, cores, width, "RandomPolicy");
    std::vector<CoreGroup> entries(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g)
        for (const int id : groups[g]) entries[g].add(id);
    return place_groups(entries, observations, cores);
}

OraclePolicy::OraclePolicy(model::InterferenceModel model, double cross_chip_penalty)
    : model_(model), cross_chip_penalty_(cross_chip_penalty) {
    if (!(cross_chip_penalty >= 0.0))
        throw std::invalid_argument("OraclePolicy: cross_chip_penalty must be >= 0, got " +
                                    std::to_string(cross_chip_penalty));
}

matching::GroupCost OraclePolicy::costs(std::span<const model::CategoryVector> truth) const {
    return [this, truth](std::span<const int> group) {
        std::array<model::CategoryVector, uarch::kMaxSmtWays> members{};
        for (std::size_t k = 0; k < group.size(); ++k)
            members.at(k) = truth[static_cast<std::size_t>(group[k])];
        return model::predict_group_slowdown(
            model_, std::span<const model::CategoryVector>(members.data(), group.size()));
    };
}

CoreAllocation OraclePolicy::reallocate(std::span<const TaskObservation> observations) {
    if (observations.empty()) return {};
    const TopologyView topo = observed_topology(observations);
    if (topo.smt_ways == 2 && static_cast<std::size_t>(topo.cores_per_chip) > kMaxSmt2Cores)
        throw std::invalid_argument(
            "oracle: a chip of " + std::to_string(topo.cores_per_chip) +
            " cores exceeds the policy's " + std::to_string(kMaxSmt2Cores) +
            "-core cap at SMT-2 (its exact matcher solves at most " +
            std::to_string(matching::SubsetDpMatcher::kMaxVertices) + " contexts)");

    const std::size_t n = observations.size();
    // True current-phase isolated fractions (oracle-only information).
    std::vector<model::CategoryVector> truth(n);
    for (std::size_t i = 0; i < n; ++i) {
        const apps::AppInstance* inst = observations[i].instance;
        const auto& cats = inst->profile().phase_categories;
        if (cats.empty()) {
            // Uncalibrated suite: fall back to the task's own measured SMT
            // fractions (still a strong baseline).
            truth[i] = observations[i].breakdown.fractions();
        } else {
            truth[i] = cats[inst->phase_index()];
        }
    }

    return solve_platform(observations, costs(truth), matcher_, matcher_,
                          matching::kDefaultStabilityBias, matching::kDefaultKeepThreshold,
                          cross_chip_penalty_);
}

}  // namespace synpa::sched

namespace synpa::sched {

const SamplingPolicy::Options& SamplingPolicy::Options::validate() const {
    for (const auto& [value, field] : {std::pair{explore_quanta, "explore_quanta"},
                                       std::pair{exploit_quanta, "exploit_quanta"}})
        if (value < 1)
            throw std::invalid_argument(std::string("SamplingPolicy::Options::") + field +
                                        " must be >= 1, got " + std::to_string(value));
    return *this;
}

SamplingPolicy::SlotGrouping SamplingPolicy::random_grouping(std::size_t n,
                                                             std::size_t width,
                                                             std::size_t cores) {
    std::vector<int> slots(n);
    for (std::size_t i = 0; i < n; ++i) slots[i] = static_cast<int>(i);
    for (std::size_t i = n; i > 1; --i)
        std::swap(slots[i - 1], slots[rng_.below(i)]);
    // Spread the shuffled slots evenly over min(cores, n) groups (the same
    // split RandomPolicy uses), so the entry count never exceeds the core
    // budget no matter how n relates to the width — a chunks-of-width split
    // would strand n mod width leftovers on cores that do not exist.
    return even_spread(slots, cores, width, "SamplingPolicy");
}

CoreAllocation SamplingPolicy::reallocate(std::span<const TaskObservation> observations) {
    if (observations.empty()) return {};
    const std::size_t n = observations.size();
    const auto width = static_cast<std::size_t>(observed_smt_ways(observations));
    const std::size_t cores = observed_total_cores(observations);

    // Open-system churn: slot-space groupings become stale when the live-set
    // size changes in either direction (a grouping sampled for fewer slots
    // must not be replayed after arrivals), so restart the sampling cycle.
    if (sampled_n_ != n) {
        sampled_n_ = n;
        current_.clear();
        best_.clear();
        best_score_ = -1.0;
        samples_taken_ = 0;
        phase_left_ = 0;
        exploring_ = true;
    }

    // Score the configuration that just ran: aggregate IPC over the quantum
    // (what a measurement-based scheduler can actually observe).
    if (!current_.empty()) {
        double score = 0.0;
        for (const TaskObservation& o : observations) score += o.breakdown.ipc();
        if (exploring_ && score > best_score_) {
            best_score_ = score;
            best_ = current_;
        }
    }

    if (phase_left_ == 0) {
        if (exploring_ && samples_taken_ >= opts_.explore_quanta && !best_.empty()) {
            exploring_ = false;  // settle on the best sampled configuration
            phase_left_ = opts_.exploit_quanta;
        } else {
            exploring_ = true;
            samples_taken_ = 0;
            best_score_ = -1.0;
        }
    }

    if (exploring_) {
        current_ = random_grouping(n, width, cores);
        ++samples_taken_;
    } else {
        current_ = best_;
        --phase_left_;
    }

    // The even spread covers every slot, so the grouping maps 1:1 to core
    // entries (at most min(cores, n) of them).
    std::vector<CoreGroup> entries;
    entries.reserve(current_.size());
    for (const auto& group : current_) {
        CoreGroup g;
        for (const int slot : group)
            g.add(observations[static_cast<std::size_t>(slot)].task_id);
        entries.push_back(g);
    }
    return place_groups(entries, observations, cores);
}

void SamplingPolicy::on_task_replaced(int, int) {
    // Groupings are kept in slot space, so a relaunch needs no remapping;
    // the fresh instance simply inherits its predecessor's slot role.
}

}  // namespace synpa::sched
