// Tests for the matching solvers: brute force, subset DP, and Blossom must
// agree on optimal weight across random instances (the key property that
// validates the Blossom implementation), plus the width-2 entry's
// hysteresis and padding behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "matching/matching.hpp"

namespace {

using namespace synpa::matching;
using synpa::common::Rng;

WeightMatrix random_matrix(std::size_t n, std::uint64_t seed, double lo = 0.0,
                           double hi = 10.0) {
    Rng rng(seed, 0x3a3);
    WeightMatrix w(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) w.set(u, v, rng.uniform(lo, hi));
    return w;
}

void expect_valid_perfect(const MatchingResult& m, std::size_t n) {
    ASSERT_EQ(m.mate.size(), n);
    ASSERT_EQ(m.pairs.size(), n / 2);
    std::vector<bool> seen(n, false);
    for (auto [u, v] : m.pairs) {
        ASSERT_GE(u, 0);
        ASSERT_LT(static_cast<std::size_t>(v), n);
        ASSERT_NE(u, v);
        EXPECT_FALSE(seen[static_cast<std::size_t>(u)]);
        EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
        seen[static_cast<std::size_t>(u)] = seen[static_cast<std::size_t>(v)] = true;
        EXPECT_EQ(m.mate[static_cast<std::size_t>(u)], v);
        EXPECT_EQ(m.mate[static_cast<std::size_t>(v)], u);
    }
}

TEST(WeightMatrixTest, SymmetricSetGet) {
    WeightMatrix w(4);
    w.set(1, 3, 2.5);
    EXPECT_DOUBLE_EQ(w.get(3, 1), 2.5);
    EXPECT_THROW(w.get(4, 0), std::out_of_range);
    EXPECT_THROW(w.set(0, 4, 1.0), std::out_of_range);
}

TEST(WeightMatrixTest, MinMaxWeight) {
    WeightMatrix w(3);
    w.set(0, 1, -1.0);
    w.set(0, 2, 5.0);
    w.set(1, 2, 2.0);
    EXPECT_DOUBLE_EQ(w.min_weight(), -1.0);
    EXPECT_DOUBLE_EQ(w.max_weight(), 5.0);
}

TEST(Matchers, RejectOddOrEmpty) {
    // The documented odd-N contract: every perfect-matching solver throws a
    // clear error instead of padding silently — odd instances must go
    // through min_weight_pairs.
    const BruteForceMatcher bf;
    const SubsetDpMatcher dp;
    const BlossomMatcher bl;
    for (const Matcher* m : {static_cast<const Matcher*>(&bf),
                             static_cast<const Matcher*>(&dp),
                             static_cast<const Matcher*>(&bl)}) {
        for (const std::size_t odd : {1u, 3u, 5u, 7u})
            EXPECT_THROW(m->min_weight_perfect(random_matrix(odd, odd)),
                         std::invalid_argument);
        EXPECT_THROW(m->min_weight_perfect(WeightMatrix(0)), std::invalid_argument);
    }
}

// ---------- partial (imperfect) matching ----------

TEST(PartialMatching, OddCountLeavesTheRightTaskAlone) {
    // Three tasks, two cores: pairing (0,1) costs 2, any pair with 2 costs
    // 9; solo costs 1 each.  Optimum: pair (0,1), task 2 alone.
    WeightMatrix w(3);
    w.set(0, 1, 2.0);
    w.set(0, 2, 9.0);
    w.set(1, 2, 9.0);
    const std::vector<double> solo = {1.0, 1.0, 1.0};
    const BlossomMatcher matcher;
    const PartialMatching m = min_weight_partial(w, solo, 2, matcher);
    ASSERT_EQ(m.pairs.size(), 1u);
    EXPECT_EQ(m.pairs[0], std::make_pair(0, 1));
    ASSERT_EQ(m.singles.size(), 1u);
    EXPECT_EQ(m.singles[0], 2);
    EXPECT_DOUBLE_EQ(m.total_weight, 3.0);
}

TEST(PartialMatching, PrefersSinglesWhenPairsAreExpensive) {
    // Four tasks, four cores: every pair is worse than two solos, so the
    // optimum runs everything alone (the "runs alone" benefit term wins).
    WeightMatrix w(4);
    for (std::size_t u = 0; u < 4; ++u)
        for (std::size_t v = u + 1; v < 4; ++v) w.set(u, v, 5.0);
    const std::vector<double> solo = {1.0, 1.0, 1.0, 1.0};
    const PartialMatching m = min_weight_partial(w, solo, 4, BlossomMatcher{});
    EXPECT_TRUE(m.pairs.empty());
    EXPECT_EQ(m.singles, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_DOUBLE_EQ(m.total_weight, 4.0);
}

TEST(PartialMatching, ForcedSharingPicksTheCheapestPairs) {
    // Six tasks, four cores: at least two pairs must share.  Make (0,1) and
    // (2,3) clearly cheapest.
    WeightMatrix w(6, 10.0);
    w.set(0, 1, 2.0);
    w.set(2, 3, 2.5);
    const std::vector<double> solo(6, 1.0);
    const PartialMatching m = min_weight_partial(w, solo, 4, SubsetDpMatcher{});
    ASSERT_EQ(m.pairs.size(), 2u);
    ASSERT_EQ(m.singles.size(), 2u);
    EXPECT_EQ(m.singles, (std::vector<int>{4, 5}));
    EXPECT_DOUBLE_EQ(m.total_weight, 2.0 + 2.5 + 1.0 + 1.0);
}

TEST(PartialMatching, FullLoadReducesToPerfectMatching) {
    const WeightMatrix w = random_matrix(8, 0x11);
    const std::vector<double> solo(8, 0.0);
    const BlossomMatcher matcher;
    const PartialMatching partial = min_weight_partial(w, solo, 4, matcher);
    const MatchingResult perfect = matcher.min_weight_perfect(w);
    EXPECT_TRUE(partial.singles.empty());
    EXPECT_DOUBLE_EQ(partial.total_weight, perfect.total_weight);
}

TEST(PartialMatching, SolversAgreeOnRandomInstances) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        const std::size_t n = 3 + seed % 6;  // 3..8 tasks
        const std::size_t cores = 4;
        const WeightMatrix w = random_matrix(n, seed, 1.5, 6.0);
        Rng rng(seed, 0x50f0);
        std::vector<double> solo(n);
        for (double& s : solo) s = rng.uniform(0.8, 1.6);
        const PartialMatching a = min_weight_partial(w, solo, cores, BlossomMatcher{});
        const PartialMatching b = min_weight_partial(w, solo, cores, SubsetDpMatcher{});
        EXPECT_NEAR(a.total_weight, b.total_weight, 1e-9) << "seed " << seed;
        // Every task appears exactly once across pairs and singles.
        std::vector<int> seen(n, 0);
        for (auto [u, v] : a.pairs) {
            seen[static_cast<std::size_t>(u)] += 1;
            seen[static_cast<std::size_t>(v)] += 1;
        }
        for (int u : a.singles) seen[static_cast<std::size_t>(u)] += 1;
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << "seed " << seed;
        EXPECT_LE(a.pairs.size() + a.singles.size(), cores);
    }
}

TEST(PartialMatching, RejectsOverloadAndBadInputs) {
    const WeightMatrix w = random_matrix(6, 0x7);
    const std::vector<double> solo(6, 1.0);
    EXPECT_THROW(min_weight_partial(w, solo, 2, BlossomMatcher{}), std::invalid_argument);
    EXPECT_THROW(min_weight_partial(w, std::vector<double>(5, 1.0), 4, BlossomMatcher{}),
                 std::invalid_argument);
    EXPECT_THROW(min_weight_partial(w, solo, 0, BlossomMatcher{}), std::invalid_argument);
}

/// The dummy-node reduction done by hand: pad to 2*cores vertices, solve
/// with `matcher`, and map the padded pairs back.  The reference the
/// all-alone shortcut must reproduce bit for bit.
PartialMatching padded_solve(const WeightMatrix& w, const std::vector<double>& solo,
                             std::size_t cores, const Matcher& matcher) {
    const std::size_t n = w.size();
    WeightMatrix padded(2 * cores);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::size_t v = u + 1; v < n; ++v) padded.set(u, v, w.get(u, v));
        for (std::size_t d = n; d < 2 * cores; ++d) padded.set(u, d, solo[u]);
    }
    PartialMatching out;
    for (auto [u, v] : matcher.min_weight_perfect(padded).pairs) {
        const auto uu = static_cast<std::size_t>(u);
        const auto vv = static_cast<std::size_t>(v);
        if (vv < n) {
            out.pairs.emplace_back(u, v);
            out.total_weight += w.get(uu, vv);
        } else if (uu < n) {
            out.singles.push_back(u);
            out.total_weight += solo[uu];
        }
    }
    std::sort(out.singles.begin(), out.singles.end());
    return out;
}

void expect_same_bits(const PartialMatching& got, const PartialMatching& want,
                      const std::string& where) {
    EXPECT_EQ(got.pairs, want.pairs) << where;
    EXPECT_EQ(got.singles, want.singles) << where;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total_weight),
              std::bit_cast<std::uint64_t>(want.total_weight))
        << where << ": " << got.total_weight << " vs " << want.total_weight;
}

TEST(PartialMatching, AllAloneShortcutEqualsThePaddedSolve) {
    // n <= cores: half the instances price every pair above its two solos
    // (the shortcut's regime), half draw pairs that may beat them.  Every
    // result must equal a padded Blossom solve; where the guard holds, a
    // padded subset-DP solve must run every task alone too.
    int taken = 0, fell_through = 0;
    for (const std::size_t cores : {2u, 4u, 8u}) {
        for (std::uint64_t seed = 0; seed < 40; ++seed) {
            const std::size_t n = 2 + seed % (cores - 1);  // 2..cores
            Rng rng(seed, 0xa10e + cores);
            std::vector<double> solo(n);
            for (double& s : solo) s = rng.uniform(0.8, 1.6);
            WeightMatrix w = random_matrix(n, seed, 1.2, 3.6);
            if (seed % 2 == 0)
                for (std::size_t u = 0; u < n; ++u)
                    for (std::size_t v = u + 1; v < n; ++v)
                        w.set(u, v, solo[u] + solo[v] + rng.uniform(1e-4, 1.0));
            const std::string where =
                "cores " + std::to_string(cores) + " seed " + std::to_string(seed);
            const PartialMatching got = min_weight_partial(w, solo, cores, BlossomMatcher{});
            expect_same_bits(got, padded_solve(w, solo, cores, BlossomMatcher{}), where);
            if (every_task_runs_alone(w, solo, cores)) {
                ++taken;
                EXPECT_TRUE(got.pairs.empty()) << where;
                expect_same_bits(got, padded_solve(w, solo, cores, SubsetDpMatcher{}), where);
            } else {
                ++fell_through;
            }
        }
    }
    EXPECT_GT(taken, 30) << fell_through;
    EXPECT_GT(fell_through, 30) << taken;
}

TEST(PartialMatching, AllAloneGuardSitsAtTheMargin) {
    // Three tasks on four cores.  Pair (0,2) fixes hi = 6 and the idle
    // cores fix lo = 0, so the margin is 5 * 6 / kBlossomScale; pair (0,1)
    // carries the smallest excess, placed relative to that margin.
    const std::size_t cores = 4;
    const std::vector<double> solo = {1.0, 1.25, 1.5};
    const double margin = 5.0 * 6.0 / kBlossomScale;
    struct Case {
        const char* name;
        double excess;  ///< of pair (0,1)
        bool guard;
    };
    const Case cases[] = {
        {"just above", 1.02 * margin, true},
        {"just below", 0.98 * margin, false},
        {"exact tie", 0.0, false},
        {"pairing helps", -0.25, false},
    };
    for (const Case& c : cases) {
        WeightMatrix w(3);
        w.set(0, 1, solo[0] + solo[1] + c.excess);
        w.set(0, 2, 6.0);
        w.set(1, 2, 4.0);
        EXPECT_EQ(every_task_runs_alone(w, solo, cores), c.guard) << c.name;
        const PartialMatching got = min_weight_partial(w, solo, cores, BlossomMatcher{});
        expect_same_bits(got, padded_solve(w, solo, cores, BlossomMatcher{}), c.name);
    }

    // Outside n <= cores, or with solos that do not cover the tasks, the
    // guard never holds.
    WeightMatrix w(3, 10.0);
    EXPECT_FALSE(every_task_runs_alone(w, solo, 2));
    EXPECT_FALSE(every_task_runs_alone(w, std::vector<double>(2, 1.0), cores));
    EXPECT_TRUE(every_task_runs_alone(w, solo, cores));
}

TEST(Matchers, TrivialTwoVertices) {
    WeightMatrix w(2);
    w.set(0, 1, 7.0);
    for (const MatchingResult& m :
         {BruteForceMatcher{}.min_weight_perfect(w), SubsetDpMatcher{}.min_weight_perfect(w),
          BlossomMatcher{}.min_weight_perfect(w)}) {
        expect_valid_perfect(m, 2);
        EXPECT_DOUBLE_EQ(m.total_weight, 7.0);
    }
}

TEST(Matchers, KnownFourVertexInstance) {
    // Optimal min pairing: (0,1) + (2,3) = 1 + 1 = 2.
    WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 10.0);
    w.set(0, 3, 10.0);
    w.set(1, 2, 10.0);
    w.set(1, 3, 10.0);
    for (const MatchingResult& m :
         {BruteForceMatcher{}.min_weight_perfect(w), SubsetDpMatcher{}.min_weight_perfect(w),
          BlossomMatcher{}.min_weight_perfect(w)}) {
        expect_valid_perfect(m, 4);
        EXPECT_DOUBLE_EQ(m.total_weight, 2.0);
        EXPECT_EQ(m.mate[0], 1);
        EXPECT_EQ(m.mate[2], 3);
    }
}

// Property: all three solvers find the same optimal total on random
// instances.
class MatcherAgreement : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MatcherAgreement, MinTotalsAgree) {
    const auto [n, seed] = GetParam();
    const WeightMatrix w =
        random_matrix(static_cast<std::size_t>(n), static_cast<std::uint64_t>(seed));
    const BruteForceMatcher bf;
    const SubsetDpMatcher dp;
    const BlossomMatcher bl;

    const auto bf_min = bf.min_weight_perfect(w);
    const auto dp_min = dp.min_weight_perfect(w);
    const auto bl_min = bl.min_weight_perfect(w);
    expect_valid_perfect(bf_min, static_cast<std::size_t>(n));
    expect_valid_perfect(dp_min, static_cast<std::size_t>(n));
    expect_valid_perfect(bl_min, static_cast<std::size_t>(n));
    EXPECT_NEAR(dp_min.total_weight, bf_min.total_weight, 1e-9);
    // Blossom quantizes weights to a fine grid; allow that tolerance.
    EXPECT_NEAR(bl_min.total_weight, bf_min.total_weight, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, MatcherAgreement,
                         ::testing::Combine(::testing::Values(2, 4, 6, 8, 10),
                                            ::testing::Range(0, 8)));

TEST(Blossom, NegativeWeightsHandled) {
    Rng rng(4, 0);
    for (int trial = 0; trial < 10; ++trial) {
        const WeightMatrix w = random_matrix(8, 1000 + trial, -5.0, 5.0);
        const auto bl = BlossomMatcher{}.min_weight_perfect(w);
        const auto dp = SubsetDpMatcher{}.min_weight_perfect(w);
        expect_valid_perfect(bl, 8);
        EXPECT_NEAR(bl.total_weight, dp.total_weight, 1e-3);
    }
}

TEST(Blossom, LargerInstancesStayConsistentWithDp) {
    for (int n : {12, 16, 20}) {
        const WeightMatrix w = random_matrix(static_cast<std::size_t>(n), 77 + n);
        const auto bl = BlossomMatcher{}.min_weight_perfect(w);
        const auto dp = SubsetDpMatcher{}.min_weight_perfect(w);
        expect_valid_perfect(bl, static_cast<std::size_t>(n));
        EXPECT_NEAR(bl.total_weight, dp.total_weight, 1e-3);
    }
}

TEST(Blossom, ScalesBeyondDpLimits) {
    // n = 64 is far above the subset-DP range; verify validity and that the
    // result is no worse than a greedy pairing.
    const std::size_t n = 64;
    const WeightMatrix w = random_matrix(n, 31337);
    const auto bl = BlossomMatcher{}.min_weight_perfect(w);
    expect_valid_perfect(bl, n);

    // Greedy reference.
    std::vector<bool> used(n, false);
    double greedy_total = 0.0;
    for (std::size_t k = 0; k < n / 2; ++k) {
        double best = 1e18;
        std::size_t bu = 0, bv = 0;
        for (std::size_t u = 0; u < n; ++u)
            for (std::size_t v = u + 1; v < n; ++v)
                if (!used[u] && !used[v] && w.get(u, v) < best) {
                    best = w.get(u, v);
                    bu = u;
                    bv = v;
                }
        used[bu] = used[bv] = true;
        greedy_total += best;
    }
    EXPECT_LE(bl.total_weight, greedy_total + 1e-6);
}

TEST(MatchingWeight, SumsPairs) {
    WeightMatrix w(4);
    w.set(0, 1, 1.5);
    w.set(2, 3, 2.5);
    EXPECT_DOUBLE_EQ(matching_weight(w, {{0, 1}, {2, 3}}), 4.0);
}

// ---------- the width-2 entry: hysteresis at full load ----------

/// The solo oracle of a full-load call, which must never read it.
const SoloWeight kUnreadSolo = [](std::size_t) {
    ADD_FAILURE() << "min_weight_pairs read a solo weight at full load";
    return 0.0;
};

/// Two nearly-equal perfect matchings, {0,1}{2,3} (2.0) and {0,2}{1,3}
/// (2.0002), with the cross pairs far worse.
WeightMatrix near_tie_matrix() {
    WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 1.0001);
    w.set(1, 3, 1.0001);
    w.set(0, 3, 5.0);
    w.set(1, 2, 5.0);
    return w;
}

TEST(Stabilized, KeepsCurrentWithinThreshold) {
    const WeightMatrix w = near_tie_matrix();
    const SubsetDpMatcher dp;
    const std::vector<std::pair<int, int>> current = {{0, 2}, {1, 3}};  // slightly worse
    const auto sel = min_weight_pairs(w, kUnreadSolo, 2, current, dp, dp, 0.01, 0.01);
    EXPECT_EQ(sel.pairs, current);
    EXPECT_TRUE(sel.singles.empty());
}

TEST(Stabilized, MovesWhenGainIsLarge) {
    WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 10.0);
    w.set(1, 3, 10.0);
    w.set(0, 3, 10.0);
    w.set(1, 2, 10.0);
    const SubsetDpMatcher dp;
    const std::vector<std::pair<int, int>> current = {{0, 2}, {1, 3}};
    const auto sel = min_weight_pairs(w, kUnreadSolo, 2, current, dp, dp, 0.01, 0.01);
    EXPECT_NE(sel.pairs, current);
    EXPECT_NEAR(sel.total_weight, 2.0, 1e-9);  // true weight, not the biased one
}

TEST(Stabilized, NoCurrentJustSolves) {
    WeightMatrix w(2);
    w.set(0, 1, 3.0);
    const SubsetDpMatcher dp;
    const auto sel = min_weight_pairs(w, kUnreadSolo, 1, {}, dp, dp, kDefaultStabilityBias,
                                      kDefaultKeepThreshold);
    EXPECT_EQ(sel.pairs, (std::vector<std::pair<int, int>>{{0, 1}}));
    EXPECT_NEAR(sel.total_weight, 3.0, 1e-9);
}

TEST(Stabilized, PartialLoadIgnoresCurrentAndReadsEachSoloOnce) {
    // The same four tasks on three cores: the padded solve runs instead of
    // the hysteresis one, so the incumbent that KeepsCurrentWithinThreshold
    // keeps is dropped for the true optimum, exactly as min_weight_partial
    // with the exact matcher picks it.
    const WeightMatrix w = near_tie_matrix();
    std::vector<std::size_t> reads;
    const SoloWeight solo = [&reads](std::size_t i) {
        reads.push_back(i);
        return 1.5;
    };
    const SubsetDpMatcher dp;
    const auto sel = min_weight_pairs(w, solo, 3, {{0, 2}, {1, 3}}, dp, dp, 0.01, 0.01);
    EXPECT_EQ(reads, (std::vector<std::size_t>{0, 1, 2, 3}));
    const std::vector<double> solo_weights(4, 1.5);
    const PartialMatching direct = min_weight_partial(w, solo_weights, 3, dp);
    EXPECT_EQ(sel.pairs, direct.pairs);
    EXPECT_EQ(sel.singles, direct.singles);
    EXPECT_EQ(sel.total_weight, direct.total_weight);
    EXPECT_NEAR(sel.total_weight, 2.0, 1e-12);
}

// ---------- k-way core grouping ----------

/// Deterministic random cost table keyed by member bitmask, so the solver
/// under test and the brute-force reference score groups identically.
std::vector<double> random_cost_table(std::size_t n, std::uint64_t seed) {
    Rng rng(seed, 0x9c0);
    std::vector<double> table(1u << n);
    for (double& c : table) c = rng.uniform(0.5, 8.0);
    return table;
}

GroupCost table_cost(const std::vector<double>& table) {
    return [&table](std::span<const int> group) {
        std::uint32_t mask = 0;
        for (int v : group) mask |= 1u << v;
        return table[mask];
    };
}

/// Exhaustive reference: enumerate every partition of {0..n-1} into at most
/// `cores` groups of at most `width` members (canonical: each group owns
/// the lowest remaining index).
double brute_force_grouping(std::uint32_t remaining, std::size_t groups_left,
                            std::size_t width, const std::vector<double>& table) {
    if (remaining == 0) return 0.0;
    if (groups_left == 0) return 1e18;
    const std::uint32_t low = remaining & (~remaining + 1u);
    const std::uint32_t rest = remaining ^ low;
    double best = 1e18;
    for (std::uint32_t sub = rest;; sub = (sub - 1) & rest) {
        const std::uint32_t group = sub | low;
        if (static_cast<std::size_t>(std::popcount(group)) <= width) {
            const double tail =
                brute_force_grouping(remaining ^ group, groups_left - 1, width, table);
            best = std::min(best, table[group] + tail);
        }
        if (sub == 0) break;
    }
    return best;
}

void expect_valid_grouping(const GroupingResult& g, std::size_t n, std::size_t cores,
                           std::size_t width) {
    EXPECT_LE(g.groups.size(), cores);
    std::vector<int> seen(n, 0);
    for (const auto& group : g.groups) {
        ASSERT_FALSE(group.empty());
        ASSERT_LE(group.size(), width);
        EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
        for (int v : group) {
            ASSERT_GE(v, 0);
            ASSERT_LT(static_cast<std::size_t>(v), n);
            seen[static_cast<std::size_t>(v)] += 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(seen[i], 1) << "task " << i;  // exactly-once coverage
}

TEST(Grouping, MatchesBruteForceAcrossWidths) {
    // Every width the TX2 BIOS offers, odd and even n, tight and ample core
    // budgets (tight budgets force full groups, ample ones allow partial
    // groups and idle cores).
    for (const std::size_t width : {2u, 3u, 4u}) {
        for (std::size_t n = 1; n <= 8; ++n) {
            const std::size_t tight = (n + width - 1) / width;
            for (const std::size_t cores : {tight, n}) {
                const std::vector<double> table =
                    random_cost_table(n, 100 * width + 10 * n + cores);
                const GroupingResult got =
                    min_weight_grouping(n, cores, width, table_cost(table));
                expect_valid_grouping(got, n, cores, width);
                const double want =
                    brute_force_grouping((1u << n) - 1u, cores, width, table);
                EXPECT_NEAR(got.total_weight, want, 1e-9)
                    << "n=" << n << " cores=" << cores << " width=" << width;
                EXPECT_NEAR(grouping_weight(got.groups, table_cost(table)),
                            got.total_weight, 1e-9);
            }
        }
    }
}

TEST(Grouping, Width2AgreesWithPairSolvers) {
    // At width 2 the grouper must reproduce the classical imperfect
    // matching: pair costs from a weight matrix, singleton costs from solo.
    const std::size_t n = 7, cores = 4;
    const WeightMatrix w = random_matrix(n, 0x77, 1.0, 6.0);
    Rng rng(0x77, 0x50f1);
    std::vector<double> solo(n);
    for (double& s : solo) s = rng.uniform(0.8, 1.8);
    const GroupCost cost = [&](std::span<const int> group) {
        if (group.size() == 1) return solo[static_cast<std::size_t>(group[0])];
        return w.get(static_cast<std::size_t>(group[0]), static_cast<std::size_t>(group[1]));
    };
    const GroupingResult grouped = min_weight_grouping(n, cores, 2, cost);
    const PartialMatching matched = min_weight_partial(w, solo, cores, SubsetDpMatcher{});
    EXPECT_NEAR(grouped.total_weight, matched.total_weight, 1e-9);
}

TEST(Grouping, DeterministicIncludingHeuristicPath) {
    // Identical inputs must give identical groupings — on the exact path
    // and on the large-n greedy/local-search path (no hidden randomness).
    for (const std::size_t n : {8u, 20u}) {  // 20 > kExactGroupingLimit
        const std::size_t cores = 6, width = 4;
        const std::vector<double> table = random_cost_table(n, 0xbeef + n);
        const GroupingResult a = min_weight_grouping(n, cores, width, table_cost(table));
        const GroupingResult b = min_weight_grouping(n, cores, width, table_cost(table));
        expect_valid_grouping(a, n, cores, width);
        EXPECT_EQ(a.groups, b.groups);
        EXPECT_DOUBLE_EQ(a.total_weight, b.total_weight);
    }
}

TEST(Grouping, HeuristicIsNoWorseThanSequentialFill) {
    // The greedy + local-search path must beat (or match) the naive
    // consecutive-chunks grouping on a structured instance.
    const std::size_t n = 16, cores = 4, width = 4;
    const std::vector<double> table = random_cost_table(n, 0x5eed);
    const GroupCost cost = table_cost(table);
    const GroupingResult got = min_weight_grouping(n, cores, width, cost);
    expect_valid_grouping(got, n, cores, width);
    std::vector<std::vector<int>> naive;
    for (std::size_t k = 0; k < n; k += width) {
        std::vector<int> g;
        for (std::size_t s = k; s < k + width; ++s) g.push_back(static_cast<int>(s));
        naive.push_back(std::move(g));
    }
    EXPECT_LE(got.total_weight, grouping_weight(naive, cost) + 1e-9);
}

TEST(Grouping, PrefersPartialGroupsWhenSolosAreCheap) {
    // Ample cores + expensive sharing: the optimum runs everyone alone.
    const std::size_t n = 5;
    const GroupCost cost = [](std::span<const int> group) {
        return group.size() == 1 ? 1.0 : 50.0 * static_cast<double>(group.size());
    };
    const GroupingResult got = min_weight_grouping(n, n, 4, cost);
    EXPECT_EQ(got.groups.size(), n);
    EXPECT_DOUBLE_EQ(got.total_weight, 5.0);
}

TEST(Grouping, GreedyStaysWithinFactorOfExactAtTheSwitchover) {
    // min_weight_grouping runs the exact subset DP up to N = 12 and the
    // greedy + local-search heuristic from N = 13 on.  Right at the
    // boundary the two are comparable *on the cost structure the scheduler
    // actually feeds them* — SYNPA's group predictor is additive in the
    // pairwise terms (Equation 1 superposition), not an arbitrary table —
    // so across a batch of random pairwise instances at N = 12 the
    // heuristic must stay within a fixed factor of the exact optimum (and
    // never beat it — the DP is optimal).  Crossing 12 -> 13 live tasks
    // therefore cannot cliff the allocation quality.
    constexpr double kFactor = 1.5;
    const std::size_t n = 12;
    for (const std::size_t width : {3u, 4u}) {
        for (const std::size_t cores : {(n + width - 1) / width, n / 2}) {
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                const WeightMatrix w =
                    random_matrix(n, 0x12b0 + 97 * seed + 13 * width + cores, 1.0, 6.0);
                Rng rng(seed + 31 * width, 0x5010);
                std::vector<double> solo(n);
                for (double& x : solo) x = rng.uniform(0.8, 2.0);
                const GroupCost cost = [&](std::span<const int> group) {
                    double total = 0.0;
                    for (std::size_t a = 0; a < group.size(); ++a)
                        for (std::size_t b = a + 1; b < group.size(); ++b)
                            total += w.get(static_cast<std::size_t>(group[a]),
                                           static_cast<std::size_t>(group[b]));
                    if (group.size() == 1)
                        total = solo[static_cast<std::size_t>(group[0])];
                    return total;
                };
                const GroupingResult exact = min_weight_grouping(n, cores, width, cost);
                const GroupingResult greedy =
                    min_weight_grouping_heuristic(n, cores, width, cost);
                expect_valid_grouping(greedy, n, cores, width);
                EXPECT_GE(greedy.total_weight, exact.total_weight - 1e-9)
                    << "heuristic beat the exact optimum?!";
                EXPECT_LE(greedy.total_weight, kFactor * exact.total_weight + 1e-9)
                    << "width=" << width << " cores=" << cores << " seed=" << seed;
            }
        }
    }
    // N = 13 (first heuristic-path size) stays feasible and deterministic.
    const std::vector<double> table = random_cost_table(13, 0x13);
    const GroupingResult a = min_weight_grouping(13, 4, 4, table_cost(table));
    const GroupingResult b = min_weight_grouping(13, 4, 4, table_cost(table));
    expect_valid_grouping(a, 13, 4, 4);
    EXPECT_EQ(a.groups, b.groups);
}

TEST(Grouping, RejectsInfeasibleInstances) {
    const GroupCost unit = [](std::span<const int>) { return 1.0; };
    EXPECT_THROW(min_weight_grouping(9, 2, 4, unit), std::invalid_argument);
    EXPECT_THROW(min_weight_grouping(4, 0, 4, unit), std::invalid_argument);
    EXPECT_THROW(min_weight_grouping(4, 2, 0, unit), std::invalid_argument);
    const GroupingResult empty = min_weight_grouping(0, 4, 2, unit);
    EXPECT_TRUE(empty.groups.empty());
    EXPECT_DOUBLE_EQ(empty.total_weight, 0.0);
}

}  // namespace
