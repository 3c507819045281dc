// Tests for the Step-2/Step-3 decide path: the pinned cold k-way
// heuristic, an SMT-4 two-chip run pin, the policy's cost-evaluation count
// (reported through weight_cache_stats(), the shape the end-to-end
// benchmark reads), and the hot-path correctness fixes that rode along
// (odd-n greedy matching, the mid-quantum partner-retirement estimator
// update, and the grouping assembly oracle-call elimination).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/synpa_policy.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/baselines.hpp"
#include "sched/policy.hpp"
#include "signatures.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;
using namespace synpa::core;

model::CategoryBreakdown breakdown_from_fractions(const model::CategoryVector& f,
                                                  std::uint64_t cycles = 10'000) {
    model::CategoryBreakdown b;
    b.cycles = cycles;
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        b.categories[c] = f[c] * static_cast<double>(cycles);
    return b;
}

sched::TaskObservation make_obs(int task, int core, int partner,
                                const model::CategoryVector& fractions) {
    sched::TaskObservation o;
    o.task_id = task;
    o.core = core;
    o.corunner_task_id = partner;
    if (partner >= 0) o.corunner_task_ids.push_back(partner);
    o.smt_ways = 2;
    o.total_cores = 2;
    o.breakdown = breakdown_from_fractions(fractions);
    return o;
}

// ------------------------------------------- mid-quantum partner retire --
// Regression (hot-path fix): the pair-ownership guard `corunner < task =>
// skip` used to run before the partner-presence check, so a surviving task
// whose lower-id partner retired mid-quantum was silently skipped and got
// no estimate update that quantum.  Ownership only applies when both
// observations are present; a lone survivor must still be updated (against
// a synthesized partner derived from the current estimates).

TEST(EstimatorPartnerRetired, SurvivorWithLowerIdPartnerStillUpdates) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    // Task 2 co-ran with task 1, but task 1 finished mid-quantum: its
    // observation is absent from the batch.  Pre-fix this batch was a
    // no-op for task 2.
    est.observe(std::vector<sched::TaskObservation>{make_obs(2, 0, 1, {0.3, 0.5, 0.2})});
    EXPECT_TRUE(est.has_estimate(2));
}

TEST(EstimatorPartnerRetired, SurvivorWithHigherIdPartnerStillUpdates) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, 2, {0.3, 0.5, 0.2})});
    EXPECT_TRUE(est.has_estimate(1));
}

TEST(EstimatorPartnerRetired, PresentPairsStillHandledOnce) {
    // The ownership guard must keep deduplicating complete pairs: both
    // members present => exactly one inversion, both sides updated.
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{
        make_obs(1, 0, 2, {0.3, 0.5, 0.2}), make_obs(2, 0, 1, {0.15, 0.05, 0.8})});
    EXPECT_TRUE(est.has_estimate(1));
    EXPECT_TRUE(est.has_estimate(2));
}

// -------------------------------------------------- odd-n greedy matching --
// Regression (hot-path fix): the greedy matcher used to pair floor(n/2)
// vertices and silently drop the last one on odd n, violating the module's
// "every solver throws on odd n" contract the partial allocator depends on
// (it pads to even *before* solving precisely because no perfect matching
// exists otherwise).

TEST(GreedyMatcher, ThrowsOnOddVertexCount) {
    SynpaPolicy::Options opts;
    opts.selector = PairSelector::kGreedy;
    const SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
    matching::WeightMatrix odd(3, 1.0);
    EXPECT_THROW(policy.matcher().min_weight_perfect(odd), std::invalid_argument);
    matching::WeightMatrix empty(0);
    EXPECT_THROW(policy.matcher().min_weight_perfect(empty), std::invalid_argument);
}

TEST(GreedyMatcher, EvenInstancesStillSolve) {
    SynpaPolicy::Options opts;
    opts.selector = PairSelector::kGreedy;
    const SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
    matching::WeightMatrix w(4, 5.0);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    const matching::MatchingResult r = policy.matcher().min_weight_perfect(w);
    EXPECT_EQ(r.pairs.size(), 2u);
    EXPECT_NEAR(r.total_weight, 2.0, 1e-12);
}

// ------------------------------------------------ cold k-way heuristic --

namespace grouping_helpers {

double synthetic_pair_weight(int u, int v) {
    return static_cast<double>((u * 31 + v * 17 + u * v) % 97) / 97.0 + 0.5;
}

/// Deterministic synthetic group cost with real pairwise structure, plus a
/// call counter so tests can meter the oracle.
matching::GroupCost counting_cost(std::size_t& calls) {
    return [&calls](std::span<const int> g) {
        ++calls;
        double total = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i)
            for (std::size_t j = i + 1; j < g.size(); ++j)
                total += synthetic_pair_weight(g[i], g[j]);
        return total + static_cast<double>(g.size());
    };
}

void expect_valid_partition(const matching::GroupingResult& r, std::size_t n,
                            std::size_t cores, std::size_t width) {
    std::set<int> seen;
    EXPECT_LE(r.groups.size(), cores);
    for (const auto& g : r.groups) {
        EXPECT_GE(g.size(), 1u);
        EXPECT_LE(g.size(), width);
        for (const int id : g) EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_EQ(seen.size(), n);
}

/// Runs the cold heuristic on the synthetic cost and checks its groups
/// digest, total-weight bits and exact oracle-call count.
void expect_heuristic_pin(std::size_t n, std::size_t cores, std::size_t width,
                          std::uint64_t groups_digest, std::uint64_t weight_bits,
                          std::size_t oracle_calls) {
    std::size_t calls = 0;
    const matching::GroupingResult r =
        matching::min_weight_grouping_heuristic(n, cores, width, counting_cost(calls));
    expect_valid_partition(r, n, cores, width);
    std::string groups;
    for (const auto& g : r.groups) {
        for (const int id : g) groups += std::to_string(id) + ",";
        groups += ";";
    }
    EXPECT_EQ(testsig::digest(groups), groups_digest) << groups;
    EXPECT_EQ(testsig::bits(r.total_weight), weight_bits);
    EXPECT_EQ(calls, oracle_calls);
}

}  // namespace grouping_helpers

TEST(ColdGrouping, HeuristicPinnedAtForty) {
    // The cold k-way heuristic's groups and total-weight bits, captured
    // before the warm-start code left the heuristic.  Skipping clean bucket
    // pairs may change only the oracle-call count.
    grouping_helpers::expect_heuristic_pin(40, 16, 4, 0xfed12ef934a97013ull,
                                           0x404d2b8be0547421ull, 8112);
}

// Regression (hot-path fix): the heuristic's final assembly used to call
// the GroupCost oracle once per final group to rebuild total_weight, even
// though every final bucket's cost was already cached.  At width 1 the
// whole solve is exactly countable: seeding tries every empty bucket
// (n + n-1 + ... + 1 calls), one local-search pass evaluates every ordered
// (a, b) swap (2 calls each; the empty donor side is free), and assembly
// must add ZERO — pre-fix it added n.
TEST(ColdGrouping, AssemblyAddsNoOracleCalls) {
    constexpr std::size_t n = 8;
    std::size_t calls = 0;
    const matching::GroupCost cost = [&calls](std::span<const int> g) {
        ++calls;
        double total = 0.0;
        for (const int id : g) total += static_cast<double>(id + 1);
        return total;
    };
    const matching::GroupingResult r =
        matching::min_weight_grouping_heuristic(n, n, 1, cost);
    EXPECT_EQ(r.groups.size(), n);
    EXPECT_EQ(r.total_weight, static_cast<double>(n * (n + 1) / 2));
    const std::size_t seeding = n * (n + 1) / 2;
    const std::size_t search = 2 * n * (n - 1);
    EXPECT_EQ(calls, seeding + search);  // pre-fix: + n assembly calls
}

// Captured before clean bucket pairs were skipped, which may change only
// the oracle-call counts.
TEST(ColdGrouping, HeuristicPinnedAtWidthThree) {
    // Full load: 36 tasks fill 12 three-way buckets.
    grouping_helpers::expect_heuristic_pin(36, 12, 3, 0x77c1da0b79956a01ull,
                                           0x404d6ae2f8151d07ull, 5979);
}

TEST(ColdGrouping, HeuristicPinnedUnderPartialLoad) {
    // 30 tasks on 24 SMT-4 cores: most buckets hold one or two tasks.
    grouping_helpers::expect_heuristic_pin(30, 24, 4, 0x6ec0b2c3cf612f90ull,
                                           0x404083f5717c0a8eull, 4135);
}

/// An open run on 2 chips x 6 SMT-4 cores that keeps more than
/// kExactGroupingLimit tasks on each chip, so every chip's Step 3 runs the
/// k-way heuristic (ScenarioPins' 8-context chips never leave the exact
/// solver).
std::string smt4_two_chip_open_run() {
    uarch::SimConfig cfg;
    cfg.num_chips = 2;
    cfg.cores = 6;
    cfg.smt_ways = 4;
    cfg.cycles_per_quantum = 2'000;
    scenario::ScenarioSpec spec;
    spec.name = "smt4-two-chip";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r", "bwaves", "hmmer"};
    spec.initial_tasks = 34;
    spec.arrival_rate = 3.0;
    spec.service_quanta = 8;
    spec.horizon_quanta = 24;
    spec.seed = 9;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    uarch::Platform platform(cfg);
    SynpaPolicy policy{model::InterferenceModel::paper_table4()};
    const scenario::ScenarioResult r = scenario::ScenarioRunner(platform, policy, trace).run();
    EXPECT_TRUE(r.completed);
    return testsig::signature(r);
}

TEST(DecidePins, Smt4TwoChipOpenRun) {
    // Captured before the weight cache was deleted.
    EXPECT_EQ(testsig::digest(smt4_two_chip_open_run()), 0x85fad44b876dbe31ull);
}

// ------------------------------------------------ cost-evaluation count --

std::string members_text(const sched::CoreAllocation& alloc) {
    std::string text;
    for (const sched::CoreGroup& g : alloc) {
        for (const int id : g.members()) text += std::to_string(id) + ",";
        text += ";";
    }
    return text;
}

/// Forwards to a single-chip SynpaPolicy and, after each reallocate,
/// re-solves the same Step 3 over counting oracles built from the policy's
/// own estimator: the replay must choose the same groups with exactly as
/// many oracle calls as the policy reports cost evaluations.
class ReplayedSynpa final : public sched::AllocationPolicy {
public:
    explicit ReplayedSynpa(SynpaPolicy& inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }

    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override {
        const std::uint64_t before = inner_.cost_evaluations();
        sched::CoreAllocation alloc = inner_.reallocate(observations);
        if (observations.empty()) return alloc;
        std::uint64_t calls = 0;
        const SynpaEstimator& est = inner_.estimator();
        const auto id = [&](std::size_t i) { return observations[i].task_id; };
        sched::ChipCosts costs;
        costs.solo = [&](std::size_t i) {
            ++calls;
            return est.solo_weight(id(i));
        };
        costs.pair = [&](std::size_t u, std::size_t v) {
            ++calls;
            return est.pair_weight(id(u), id(v));
        };
        costs.group = [&](std::span<const int> group) {
            ++calls;
            std::vector<int> ids;
            for (const int i : group) ids.push_back(id(static_cast<std::size_t>(i)));
            return est.group_weight(ids);
        };
        const sched::CoreAllocation replay =
            sched::solve_chip(observations, costs, blossom_, blossom_,
                              matching::kDefaultStabilityBias, matching::kDefaultKeepThreshold);
        EXPECT_EQ(members_text(replay), members_text(alloc));
        EXPECT_EQ(inner_.cost_evaluations() - before, calls);
        oracle_calls_ += calls;
        return alloc;
    }

    void on_task_replaced(int old_task_id, int new_task_id) override {
        inner_.on_task_replaced(old_task_id, new_task_id);
    }
    void on_task_finished(int task_id) override { inner_.on_task_finished(task_id); }

    std::uint64_t oracle_calls() const noexcept { return oracle_calls_; }

private:
    SynpaPolicy& inner_;
    matching::BlossomMatcher blossom_;
    std::uint64_t oracle_calls_ = 0;
};

TEST(CostEvaluations, StatsCountEveryOracleCallAndNothingElse) {
    // Width 2 (the open load moves between the padded partial solve and
    // the hysteresis solve) and width 4 (more live tasks than the exact
    // grouping limit, so the k-way heuristic runs), one chip each.
    for (const int width : {2, 4}) {
        uarch::SimConfig cfg;
        cfg.cores = width == 2 ? 4 : 6;
        cfg.smt_ways = width;
        cfg.cycles_per_quantum = 2'000;
        scenario::ScenarioSpec spec;
        spec.name = "cost-evaluations";
        spec.process = scenario::ArrivalProcess::kPoisson;
        spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
        spec.initial_tasks = width == 2 ? 4 : 18;
        spec.arrival_rate = width == 2 ? 0.8 : 2.0;
        spec.service_quanta = 6;
        spec.horizon_quanta = 20;
        spec.seed = 4;
        const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
        uarch::Platform platform(cfg);
        SynpaPolicy policy(model::InterferenceModel::paper_table4());
        ReplayedSynpa replayed(policy);
        const scenario::ScenarioResult r =
            scenario::ScenarioRunner(platform, replayed, trace).run();
        EXPECT_TRUE(r.completed) << "width " << width;
        const WeightCache::Stats stats = policy.weight_cache_stats();
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.solve_reuse, 0u);
        EXPECT_EQ(stats.misses, replayed.oracle_calls()) << "width " << width;
        EXPECT_EQ(stats.misses, policy.cost_evaluations());
        EXPECT_GT(stats.misses, 0u);
    }
}

}  // namespace
