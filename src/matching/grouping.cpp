// Width-generic minimum-cost core grouping (the k-way Step 3).
//
// Pairing 2N threads onto N SMT-2 cores is polynomial (Blossom), but the
// same question at width >= 3 contains 3-dimensional matching and is
// NP-hard, so this module pairs an exact exponential solver for the sizes a
// scheduler actually sees each quantum with a deterministic local-search
// heuristic for everything larger:
//   * exact: a subset DP over vertex bitmasks, f[g][mask] = cheapest way to
//     cover `mask` with g groups, each group a submask of size <= width
//     containing mask's lowest set bit (canonical decomposition — every
//     partition is counted once);
//   * heuristic: greedy seeding (task joins the group with the cheapest
//     incremental cost) followed by move/swap local search to a fixed
//     point.  No randomness anywhere: identical inputs give identical
//     groupings, which keeps scheduler runs reproducible.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "matching/matching.hpp"

namespace synpa::matching {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<int> mask_members(std::uint32_t mask) {
    std::vector<int> members;
    for (int v = 0; mask != 0; ++v, mask >>= 1)
        if (mask & 1u) members.push_back(v);
    return members;
}

GroupingResult exact_grouping(std::size_t n, std::size_t cores, std::size_t width,
                              const GroupCost& cost) {
    const std::uint32_t full = (1u << n) - 1u;
    // Group cost per admissible subset (popcount 1..width).
    std::vector<double> subset_cost(full + 1, kInf);
    for (std::uint32_t mask = 1; mask <= full; ++mask) {
        const auto size = static_cast<std::size_t>(std::popcount(mask));
        if (size > width) continue;
        const std::vector<int> members = mask_members(mask);
        subset_cost[mask] = cost(members);
    }

    // Ample cores (cores >= n): no partition of n tasks can exceed n groups,
    // so the group-count cap never binds and a single-dimension DP over
    // masks suffices — the common open-system case, ~min(cores, n)x cheaper.
    if (cores >= n) {
        std::vector<double> f(full + 1, kInf);
        std::vector<std::uint32_t> choice(full + 1, 0);
        f[0] = 0.0;
        for (std::uint32_t mask = 1; mask <= full; ++mask) {
            const std::uint32_t low = mask & (~mask + 1u);
            const std::uint32_t rest = mask ^ low;
            for (std::uint32_t sub = rest;; sub = (sub - 1) & rest) {
                const std::uint32_t group = sub | low;
                if (static_cast<std::size_t>(std::popcount(group)) <= width) {
                    const double total = f[mask ^ group] + subset_cost[group];
                    if (total < f[mask]) {
                        f[mask] = total;
                        choice[mask] = group;
                    }
                }
                if (sub == 0) break;
            }
        }
        GroupingResult out;
        out.total_weight = f[full];
        for (std::uint32_t mask = full; mask != 0; mask ^= choice[mask])
            out.groups.push_back(mask_members(choice[mask]));
        std::sort(out.groups.begin(), out.groups.end());
        return out;
    }

    const std::size_t max_groups = std::min(cores, n);
    // f[g][mask]: cheapest cover of `mask` using exactly g groups.
    std::vector<std::vector<double>> f(max_groups + 1,
                                       std::vector<double>(full + 1, kInf));
    std::vector<std::vector<std::uint32_t>> choice(
        max_groups + 1, std::vector<std::uint32_t>(full + 1, 0));
    f[0][0] = 0.0;
    for (std::size_t g = 1; g <= max_groups; ++g) {
        for (std::uint32_t mask = 1; mask <= full; ++mask) {
            const std::uint32_t low = mask & (~mask + 1u);  // lowest set bit
            const std::uint32_t rest = mask ^ low;
            // Enumerate groups = {low} ∪ (submask of rest), size <= width.
            for (std::uint32_t sub = rest;; sub = (sub - 1) & rest) {
                const std::uint32_t group = sub | low;
                if (static_cast<std::size_t>(std::popcount(group)) <= width) {
                    const double prev = f[g - 1][mask ^ group];
                    if (prev < kInf) {
                        const double total = prev + subset_cost[group];
                        if (total < f[g][mask]) {
                            f[g][mask] = total;
                            choice[g][mask] = group;
                        }
                    }
                }
                if (sub == 0) break;
            }
        }
    }

    std::size_t best_g = 0;
    double best = kInf;
    for (std::size_t g = 1; g <= max_groups; ++g)
        if (f[g][full] < best) {
            best = f[g][full];
            best_g = g;
        }
    if (best_g == 0) throw std::logic_error("min_weight_grouping: no feasible partition");

    GroupingResult out;
    out.total_weight = best;
    std::uint32_t mask = full;
    for (std::size_t g = best_g; g > 0; --g) {
        const std::uint32_t group = choice[g][mask];
        out.groups.push_back(mask_members(group));
        mask ^= group;
    }
    std::sort(out.groups.begin(), out.groups.end());
    return out;
}

double group_cost(const std::vector<int>& group, const GroupCost& cost) {
    return group.empty() ? 0.0 : cost(group);
}

/// Greedy seeding refined by first-improvement local search.
GroupingResult heuristic_grouping(std::size_t n, std::size_t cores, std::size_t width,
                                  const GroupCost& cost) {
    const std::size_t buckets = std::min(cores, n);
    std::vector<std::vector<int>> groups(buckets);
    std::vector<double> bucket_cost(buckets, 0.0);

    const auto insert_member = [](std::vector<int>& g, int task) {
        g.insert(std::upper_bound(g.begin(), g.end(), task), task);
    };
    const auto erase_member = [](std::vector<int>& g, int task) {
        g.erase(std::find(g.begin(), g.end(), task));
    };

    // Greedy seeding: each task (index order) joins the bucket with the
    // cheapest incremental cost among those with room; ties resolve to the
    // lowest bucket index.  Current bucket costs are cached so each
    // candidate needs one oracle call, not two.
    for (std::size_t t = 0; t < n; ++t) {
        std::size_t best_b = buckets;
        double best_delta = kInf;
        double best_joined_cost = 0.0;
        for (std::size_t b = 0; b < buckets; ++b) {
            if (groups[b].size() >= width) continue;
            std::vector<int> joined = groups[b];
            insert_member(joined, static_cast<int>(t));
            const double joined_cost = cost(joined);
            const double delta = joined_cost - bucket_cost[b];
            if (delta < best_delta) {
                best_delta = delta;
                best_b = b;
                best_joined_cost = joined_cost;
            }
        }
        if (best_b == buckets)
            throw std::logic_error("min_weight_grouping: greedy seeding overflow");
        insert_member(groups[best_b], static_cast<int>(t));
        bucket_cost[best_b] = best_joined_cost;
    }

    // Local search: single-task moves and cross-group swaps, applied
    // first-improvement in a fixed scan order until a pass changes nothing.
    // Each improving move lowers the total by > kEps, so the scan-restart
    // loop terminates; the pass cap only bounds pathological cost surfaces.
    // Per-bucket costs are cached (the GroupCost oracle is the expensive
    // part — for SYNPA it runs k model predictions per call) and updated
    // only when a bucket actually changes.
    constexpr double kEps = 1e-12;
    constexpr int kMaxPasses = 256;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
        bool improved = false;
        for (std::size_t a = 0; a < buckets && !improved; ++a) {
            for (std::size_t ai = 0; ai < groups[a].size() && !improved; ++ai) {
                const int task = groups[a][ai];
                const double cost_a = bucket_cost[a];
                std::vector<int> a_without = groups[a];
                erase_member(a_without, task);
                // The donor-side cost is an oracle call, paid only when
                // some (a, b) candidate exists.
                const double a_without_cost =
                    buckets > 1 ? group_cost(a_without, cost) : 0.0;
                for (std::size_t b = 0; b < buckets && !improved; ++b) {
                    if (b == a) continue;
                    const double cost_b = bucket_cost[b];
                    // Move task a->b.
                    if (groups[b].size() < width) {
                        std::vector<int> b_with = groups[b];
                        insert_member(b_with, task);
                        const double b_with_cost = cost(b_with);
                        const double delta =
                            (a_without_cost - cost_a) + (b_with_cost - cost_b);
                        if (delta < -kEps) {
                            groups[a] = std::move(a_without);
                            groups[b] = std::move(b_with);
                            bucket_cost[a] = a_without_cost;
                            bucket_cost[b] = b_with_cost;
                            improved = true;
                            break;  // re-scan from a stable snapshot
                        }
                    }
                    // Swap task with each member of b.
                    for (std::size_t bi = 0; bi < groups[b].size(); ++bi) {
                        const int other = groups[b][bi];
                        std::vector<int> new_a = a_without;
                        insert_member(new_a, other);
                        std::vector<int> new_b = groups[b];
                        erase_member(new_b, other);
                        insert_member(new_b, task);
                        const double new_a_cost = group_cost(new_a, cost);
                        const double new_b_cost = group_cost(new_b, cost);
                        const double delta = new_a_cost + new_b_cost - cost_a - cost_b;
                        if (delta < -kEps) {
                            groups[a] = std::move(new_a);
                            groups[b] = std::move(new_b);
                            bucket_cost[a] = new_a_cost;
                            bucket_cost[b] = new_b_cost;
                            improved = true;
                            break;
                        }
                    }
                }
            }
        }
        if (!improved) break;
    }

    // Assemble from the bucket-cost cache: every final bucket's cost was
    // already produced by the oracle (seeding or the last improving move),
    // so re-invoking the expensive oracle once per group here would buy
    // nothing — sum the cached values in sorted-group order instead (the
    // same summation order, hence the same bits, as recomputation).
    std::vector<std::pair<std::vector<int>, double>> packed;
    packed.reserve(buckets);
    for (std::size_t b = 0; b < buckets; ++b)
        if (!groups[b].empty()) packed.emplace_back(std::move(groups[b]), bucket_cost[b]);
    std::sort(packed.begin(), packed.end());
    GroupingResult out;
    out.groups.reserve(packed.size());
    for (auto& [group, group_weight] : packed) {
        out.total_weight += group_weight;
        out.groups.push_back(std::move(group));
    }
    return out;
}

}  // namespace

namespace {

/// Shared argument guard; `who` names the public entry point so the
/// diagnostic blames the function the caller actually invoked.
void check_grouping_args(std::size_t n, std::size_t cores, std::size_t width,
                         const char* who) {
    if (width == 0) throw std::invalid_argument(std::string(who) + ": zero width");
    if (cores == 0) throw std::invalid_argument(std::string(who) + ": no cores");
    if (n > cores * width)
        throw std::invalid_argument(std::string(who) + ": more tasks than SMT contexts");
}

}  // namespace

GroupingResult min_weight_grouping(std::size_t n, std::size_t cores, std::size_t width,
                                   const GroupCost& cost) {
    check_grouping_args(n, cores, width, "min_weight_grouping");
    if (n == 0) return {};
    if (n <= kExactGroupingLimit) return exact_grouping(n, cores, width, cost);
    return heuristic_grouping(n, cores, width, cost);
}

GroupingResult min_weight_grouping_heuristic(std::size_t n, std::size_t cores,
                                             std::size_t width, const GroupCost& cost) {
    check_grouping_args(n, cores, width, "min_weight_grouping_heuristic");
    if (n == 0) return {};
    return heuristic_grouping(n, cores, width, cost);
}

double grouping_weight(const std::vector<std::vector<int>>& groups, const GroupCost& cost) {
    double total = 0.0;
    for (const auto& g : groups)
        if (!g.empty()) total += cost(g);
    return total;
}

}  // namespace synpa::matching
