// Tests for the incremental allocation path: estimate epochs
// (core/estimator.hpp), the dirty-set WeightCache (core/weight_cache.hpp),
// the policy's whole-chip solve memo, the pinned cold k-way heuristic, and
// the hot-path correctness fixes that rode along (odd-n greedy matching,
// the mid-quantum partner-retirement estimator update, and the grouping
// assembly oracle-call elimination).
//
// The load-bearing property throughout: with the cache ON, every
// allocation is bit-identical to the cache-OFF legacy recompute — the
// cache may only skip work, never change results.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "core/synpa_policy.hpp"
#include "core/weight_cache.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
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

// Exactly representable fractions summing to exactly 1.0: the EMA fixed
// point is reached after the very first observation, so repeated identical
// observations must leave the stored estimate bitwise unchanged.
constexpr model::CategoryVector kExactFractions = {0.25, 0.25, 0.5};

// ------------------------------------------------------ estimate epochs --

TEST(EstimateEpochs, UnseenTaskIsEpochZero) {
    const SynpaEstimator est(model::InterferenceModel::paper_table4());
    EXPECT_EQ(est.estimate_epoch(7), 0u);
    EXPECT_EQ(est.model_epoch(), 0u);
}

TEST(EstimateEpochs, FirstObservationBumpsSteadyStateDoesNot) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    const std::vector<sched::TaskObservation> obs = {make_obs(1, 0, -1, kExactFractions)};
    est.observe(obs);
    const std::uint64_t after_first = est.estimate_epoch(1);
    EXPECT_GE(after_first, 1u);
    const model::CategoryVector settled = est.estimate(1);

    // Identical observations at the EMA fixed point: the stored estimate
    // must not change bitwise, so the epoch must not move — this is what
    // lets cached costs survive quantum after quantum in steady phases.
    for (int q = 0; q < 5; ++q) est.observe(obs);
    EXPECT_EQ(est.estimate_epoch(1), after_first);
    const model::CategoryVector still = est.estimate(1);
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        EXPECT_EQ(still[c], settled[c]);  // bitwise
}

TEST(EstimateEpochs, ChangedObservationBumps) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, kExactFractions)});
    const std::uint64_t before = est.estimate_epoch(1);
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, {0.5, 0.25, 0.25})});
    EXPECT_GT(est.estimate_epoch(1), before);
}

TEST(EstimateEpochs, LifecycleAndAlarmHooksAlwaysBump) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, kExactFractions)});

    const std::uint64_t e1 = est.estimate_epoch(1);
    est.bump_epoch(1);  // phase alarm: value untouched, freshness revoked
    EXPECT_EQ(est.estimate_epoch(1), e1 + 1);

    const std::uint64_t e9 = est.estimate_epoch(9);
    est.transfer(1, 9);  // relaunch: both sides' cached costs are stale
    EXPECT_GT(est.estimate_epoch(1), e1 + 1);
    EXPECT_GT(est.estimate_epoch(9), e9);

    const std::uint64_t e9b = est.estimate_epoch(9);
    est.forget(9);  // departure: the id's estimate reverts to the prior
    EXPECT_GT(est.estimate_epoch(9), e9b);

    EXPECT_EQ(est.model_epoch(), 0u);
    est.set_model(model::InterferenceModel::paper_table4());
    EXPECT_EQ(est.model_epoch(), 1u);
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
    EXPECT_GE(est.estimate_epoch(2), 1u);
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

// ------------------------------------------------------ WeightCache unit --

TEST(WeightCacheTest, SoloStoreFindAndEpochInvalidation) {
    WeightCache cache;
    EXPECT_EQ(cache.find_solo(3, 1), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
    cache.store_solo(3, 1, 2.5);
    const double* hit = cache.find_solo(3, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 2.5);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.find_solo(3, 2), nullptr);  // epoch moved: stale
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(WeightCacheTest, PairKeyIsOrderNormalized) {
    WeightCache cache;
    cache.store_pair(5, 2, 1, 7, 3.25);  // stored as (1, 5)
    const double* hit = cache.find_pair(1, 7, 5, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 3.25);
    EXPECT_EQ(cache.find_pair(1, 8, 5, 2), nullptr);  // either epoch stale
    EXPECT_EQ(cache.find_pair(1, 7, 5, 3), nullptr);
}

TEST(WeightCacheTest, GroupKeyIsOrderSensitive) {
    // Group costs fold member slowdowns in member order, and FP addition
    // does not associate — permuted member lists are distinct keys.
    WeightCache cache;
    const WeightCache::GroupKey abc = {1, 2, 3, -1};
    const WeightCache::GroupKey bac = {2, 1, 3, -1};
    const std::array<std::uint64_t, WeightCache::kMaxGroup> epochs = {4, 5, 6, 0};
    const std::array<std::uint64_t, WeightCache::kMaxGroup> epochs_bac = {5, 4, 6, 0};
    cache.store_group(abc, 3, epochs, 9.0);
    ASSERT_NE(cache.find_group(abc, 3, epochs), nullptr);
    EXPECT_EQ(cache.find_group(bac, 3, epochs_bac), nullptr);
}

TEST(WeightCacheTest, ForgetDropsSoloAndPairRow) {
    WeightCache cache;
    cache.store_solo(1, 1, 1.0);
    cache.store_pair(1, 1, 2, 1, 2.0);
    cache.forget(1);
    EXPECT_EQ(cache.find_solo(1, 1), nullptr);
    EXPECT_EQ(cache.find_pair(1, 1, 2, 1), nullptr);
}

TEST(WeightCacheTest, ModelEpochChangeClearsEverything) {
    WeightCache cache;
    cache.sync_model_epoch(0);
    cache.store_solo(1, 1, 1.0);
    cache.store_pair(1, 1, 2, 1, 2.0);
    cache.sync_model_epoch(0);  // unchanged: entries survive
    EXPECT_NE(cache.find_solo(1, 1), nullptr);
    cache.sync_model_epoch(1);  // refit: every coefficient moved
    EXPECT_EQ(cache.find_solo(1, 1), nullptr);
    EXPECT_EQ(cache.find_pair(1, 1, 2, 1), nullptr);
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

}  // namespace grouping_helpers

TEST(ColdGrouping, HeuristicPinnedAtForty) {
    // The cold k-way heuristic's groups, total-weight bits and oracle-call
    // count, captured before the warm-start code left the heuristic.
    using namespace grouping_helpers;
    constexpr std::size_t n = 40, cores = 16, width = 4;
    std::size_t calls = 0;
    const matching::GroupingResult r =
        matching::min_weight_grouping_heuristic(n, cores, width, counting_cost(calls));
    expect_valid_partition(r, n, cores, width);
    std::string groups;
    for (const auto& g : r.groups) {
        for (const int id : g) groups += std::to_string(id) + ",";
        groups += ";";
    }
    EXPECT_EQ(testsig::digest(groups), 0xfed12ef934a97013ull) << groups;
    EXPECT_EQ(testsig::bits(r.total_weight), 0x404d2b8be0547421ull);
    EXPECT_EQ(calls, 15774u);
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

// -------------------------------------------- policy solve memo + alarms --

TEST(PolicySolveMemo, SteadyQuantaReuseTheChipSolve) {
    SynpaPolicy::Options opts;
    opts.weight_cache = true;
    SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
    // Solo observations with exactly representable fractions: estimates hit
    // their EMA fixed point on the first quantum, so from the second
    // reallocate on, nothing in the memo key moves.
    const std::vector<sched::TaskObservation> obs = {
        make_obs(1, 0, -1, kExactFractions), make_obs(2, 0, -1, {0.5, 0.25, 0.25}),
        make_obs(3, 1, -1, {0.25, 0.5, 0.25}), make_obs(4, 1, -1, {0.125, 0.375, 0.5})};
    const sched::CoreAllocation first = policy.reallocate(obs);
    const std::uint64_t reuse_after_first = policy.weight_cache_stats().solve_reuse;
    const sched::CoreAllocation second = policy.reallocate(obs);
    EXPECT_GT(policy.weight_cache_stats().solve_reuse, reuse_after_first);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t g = 0; g < first.size(); ++g) {
        const auto a = first[g].members();
        const auto b = second[g].members();
        EXPECT_EQ(std::vector<int>(a.begin(), a.end()),
                  std::vector<int>(b.begin(), b.end()));
    }
}

TEST(PolicySolveMemo, PhaseAlarmInvalidatesTheMemo) {
    SynpaPolicy::Options opts;
    opts.weight_cache = true;
    SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
    const std::vector<sched::TaskObservation> obs = {
        make_obs(1, 0, -1, kExactFractions), make_obs(2, 0, -1, {0.5, 0.25, 0.25}),
        make_obs(3, 1, -1, {0.25, 0.5, 0.25}), make_obs(4, 1, -1, {0.125, 0.375, 0.5})};
    policy.reallocate(obs);
    policy.reallocate(obs);
    const std::uint64_t reuse = policy.weight_cache_stats().solve_reuse;
    const std::uint64_t epoch = policy.estimator().estimate_epoch(2);

    policy.on_phase_alarm(2);  // freshness revoked, value untouched
    EXPECT_EQ(policy.estimator().estimate_epoch(2), epoch + 1);
    policy.reallocate(obs);
    // The alarmed quantum may not reuse the memo (the epoch moved) ...
    EXPECT_EQ(policy.weight_cache_stats().solve_reuse, reuse);
    // ... but the estimate itself did not change, so the re-solve settles
    // straight back into reuse on the following quantum.
    policy.reallocate(obs);
    EXPECT_GT(policy.weight_cache_stats().solve_reuse, reuse);
}

TEST(PolicySolveMemo, TaskLifecycleInvalidatesTheMemo) {
    SynpaPolicy::Options opts;
    opts.weight_cache = true;
    SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
    const std::vector<sched::TaskObservation> obs = {
        make_obs(1, 0, -1, kExactFractions), make_obs(2, 0, -1, {0.5, 0.25, 0.25}),
        make_obs(3, 1, -1, {0.25, 0.5, 0.25}), make_obs(4, 1, -1, {0.125, 0.375, 0.5})};
    policy.reallocate(obs);
    policy.reallocate(obs);
    const std::uint64_t reuse = policy.weight_cache_stats().solve_reuse;

    const std::uint64_t old_epoch = policy.estimator().estimate_epoch(4);
    policy.on_task_replaced(4, 9);
    EXPECT_GT(policy.estimator().estimate_epoch(4), old_epoch);
    EXPECT_GT(policy.estimator().estimate_epoch(9), 0u);

    auto relaunched = obs;
    relaunched[3] = make_obs(9, 1, -1, {0.125, 0.375, 0.5});
    policy.reallocate(relaunched);  // new id: the memo key cannot match
    EXPECT_EQ(policy.weight_cache_stats().solve_reuse, reuse);
}

// --------------------------------------- cache on/off scenario identity --

uarch::SimConfig sweep_config(int num_chips, int smt_ways) {
    uarch::SimConfig cfg;
    cfg.num_chips = num_chips;
    cfg.cores = 2;
    cfg.smt_ways = smt_ways;
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

std::vector<sched::TaskSpec> sweep_closed_specs() {
    return {
        {.app_name = "nab_r", .seed = 1, .target_insts = 24'000, .isolated_ipc = 2.0},
        {.app_name = "mcf", .seed = 2, .target_insts = 24'000, .isolated_ipc = 0.6},
        {.app_name = "gobmk", .seed = 3, .target_insts = 24'000, .isolated_ipc = 1.0},
        {.app_name = "bwaves", .seed = 4, .target_insts = 24'000, .isolated_ipc = 1.7},
        {.app_name = "leela_r", .seed = 5, .target_insts = 24'000, .isolated_ipc = 1.1},
        {.app_name = "hmmer", .seed = 6, .target_insts = 24'000, .isolated_ipc = 1.9},
        {.app_name = "lbm_r", .seed = 7, .target_insts = 24'000, .isolated_ipc = 0.8},
        {.app_name = "astar", .seed = 8, .target_insts = 24'000, .isolated_ipc = 1.2},
    };
}

scenario::ScenarioSpec sweep_open_spec() {
    scenario::ScenarioSpec spec;
    spec.name = "weight-cache-open";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.initial_tasks = 4;
    spec.arrival_rate = 0.4;
    spec.service_quanta = 6;
    spec.horizon_quanta = 30;
    spec.seed = 5;
    return spec;
}


TEST(WeightCacheIdentity, CachedRunsMatchUncachedEverywhere) {
    // The tentpole's acceptance sweep: widths {2,4} x chips {1,4} x
    // closed/open.  The cached path must be bit-identical to the legacy
    // recompute in every cell — same quanta, same migrations, same exact
    // per-task finish times.
    for (const int width : {2, 4}) {
        for (const int chips : {1, 4}) {
            const uarch::SimConfig cfg = sweep_config(chips, width);
            // Closed scenarios must fill the platform: cycle the app list
            // out to one spec per hardware context.
            const std::vector<sched::TaskSpec> base = sweep_closed_specs();
            std::vector<sched::TaskSpec> specs;
            for (int i = 0; i < chips * 2 * width; ++i) {
                sched::TaskSpec spec = base[static_cast<std::size_t>(i) % base.size()];
                spec.seed = static_cast<std::uint64_t>(i + 1);
                specs.push_back(spec);
            }
            const scenario::ScenarioTrace closed =
                scenario::closed_trace("weight-cache-closed", specs);
            const scenario::ScenarioTrace open = scenario::build_trace(sweep_open_spec(), cfg);
            for (const scenario::ScenarioTrace* trace : {&closed, &open}) {
                std::vector<std::string> signatures;
                std::uint64_t cached_lookups = 0;
                for (const bool cached : {false, true}) {
                    uarch::Platform platform(cfg);
                    SynpaPolicy::Options opts;
                    opts.weight_cache = cached;
                    SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);
                    scenario::ScenarioRunner runner(platform, policy, *trace,
                                                    {.max_quanta = 3'000});
                    const scenario::ScenarioResult result = runner.run();
                    EXPECT_TRUE(result.completed)
                        << "width " << width << " chips " << chips;
                    signatures.push_back(testsig::signature(result));
                    const WeightCache::Stats& stats = policy.weight_cache_stats();
                    if (cached) {
                        cached_lookups = stats.hits + stats.misses + stats.solve_reuse;
                    } else {
                        EXPECT_EQ(stats.hits + stats.misses + stats.solve_reuse, 0u);
                    }
                }
                EXPECT_EQ(signatures[0], signatures[1])
                    << "cache changed the schedule at width " << width << " chips "
                    << chips;
                EXPECT_GT(cached_lookups, 0u);  // the cached run really cached
            }
        }
    }
}

// ----------------------------------------------- 512-context steady state --

TEST(WeightCacheScale, SteadyStateHitRateAtFiveTwelveContexts) {
    // The CI-gated acceptance metric: on a 512-hardware-context platform
    // (4 chips x 64 cores x SMT-2 — Step 2 builds the complete pair
    // matrix, so the query set repeats verbatim every quantum) under a
    // saturated long-running closed load, the post-warmup window must
    // answer >= 90% of its cost lookups from the cache — or issue no
    // lookups at all because the whole-chip solve memo absorbed the
    // quantum.
    uarch::SimConfig cfg;
    cfg.num_chips = 4;
    cfg.cores = 64;
    cfg.smt_ways = 2;
    cfg.cycles_per_quantum = 1'000;

    const std::vector<std::string> apps = {"mcf",    "leela_r", "gobmk", "nab_r",
                                           "bwaves", "hmmer",   "lbm_r", "astar"};
    std::vector<sched::TaskSpec> specs;
    specs.reserve(512);
    for (int i = 0; i < 512; ++i) {
        sched::TaskSpec spec;
        spec.app_name = apps[static_cast<std::size_t>(i) % apps.size()];
        spec.seed = static_cast<std::uint64_t>(i + 1);
        spec.target_insts = 500'000;  // outlives the measurement window
        spec.isolated_ipc = 1.0;
        specs.push_back(spec);
    }
    const scenario::ScenarioTrace trace = scenario::closed_trace("wc-512", specs);

    uarch::Platform platform(cfg);
    ASSERT_EQ(platform.hw_contexts(), 512);
    SynpaPolicy::Options opts;
    opts.weight_cache = true;
    // The platform is stochastic at the event level, so raw EMA estimates
    // never reach a bitwise fixed point (with deadband 0 this scenario's
    // hit rate is exactly 0%) — the incremental configuration pairs the
    // cache with a slower EMA and its noise deadband (the documented
    // SYNPA_EMA_DEADBAND setting for steady-state workloads).  Measured
    // here: ~98% window hit rate, with ~70% of chip-quanta skipping their
    // solve outright through the whole-chip memo.
    opts.estimator.ema_alpha = 0.2;
    opts.estimator.ema_deadband = 0.1;
    SynpaPolicy policy(model::InterferenceModel::paper_table4(), opts);

    constexpr std::uint64_t kWarmupQuanta = 100;
    std::uint64_t quantum = 0;
    WeightCache::Stats warm{};
    scenario::ScenarioRunner::Options ropts;
    ropts.max_quanta = 160;
    ropts.record_timeline = false;
    ropts.on_quantum = [&](const uarch::Platform&) {
        if (++quantum == kWarmupQuanta) warm = policy.weight_cache_stats();
    };
    scenario::ScenarioRunner runner(platform, policy, trace, ropts);
    runner.run();
    ASSERT_GT(quantum, kWarmupQuanta);

    const WeightCache::Stats& total = policy.weight_cache_stats();
    const std::uint64_t hits = total.hits - warm.hits;
    const std::uint64_t misses = total.misses - warm.misses;
    if (hits + misses > 0) {
        const double rate = static_cast<double>(hits) / static_cast<double>(hits + misses);
        EXPECT_GE(rate, 0.9) << hits << " hits / " << misses
                             << " misses after warmup";
    } else {
        // Zero lookups post-warmup means every quantum reused its chip
        // solve outright — stronger than any hit rate.
        EXPECT_GT(total.solve_reuse, warm.solve_reuse);
    }
}

}  // namespace
