// Tests for the dynamic-scenario engine: trace sampling (arrival processes,
// load profiles, fingerprints), the open-system runner (admission/queueing,
// retirement, partial allocations), the closed-mode bit-identity with the
// classic ThreadManager, the acceptance load sweep, and the scenario grid's
// thread-count determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/synpa_policy.hpp"
#include "exp/scenario_grid.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/baselines.hpp"
#include "sched/thread_manager.hpp"
#include "signatures.hpp"
#include "uarch/platform.hpp"
#include "workloads/groups.hpp"

namespace {

using namespace synpa;

uarch::SimConfig chip4x2_config() {
    uarch::SimConfig cfg;
    cfg.cores = 4;  // the paper's 4-core / 2-way evaluation shape
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

scenario::ScenarioSpec poisson_spec(double rate, std::uint64_t seed = 11) {
    scenario::ScenarioSpec spec;
    spec.name = "poisson";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.arrival_rate = rate;
    spec.service_quanta = 6;
    spec.horizon_quanta = 40;
    spec.seed = seed;
    return spec;
}

// ---------- trace sampling ----------

TEST(ScenarioTrace, DeterministicAndSeedSensitive) {
    const uarch::SimConfig cfg = chip4x2_config();
    const scenario::ScenarioTrace a = scenario::build_trace(poisson_spec(0.5, 1), cfg);
    const scenario::ScenarioTrace b = scenario::build_trace(poisson_spec(0.5, 1), cfg);
    const scenario::ScenarioTrace c = scenario::build_trace(poisson_spec(0.5, 2), cfg);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].arrival_quantum, b.tasks[i].arrival_quantum);
        EXPECT_EQ(a.tasks[i].app_name, b.tasks[i].app_name);
        EXPECT_EQ(a.tasks[i].seed, b.tasks[i].seed);
        EXPECT_EQ(a.tasks[i].service_insts, b.tasks[i].service_insts);
    }
    // A different arrival seed samples a different trace.
    bool differs = a.tasks.size() != c.tasks.size();
    for (std::size_t i = 0; !differs && i < a.tasks.size(); ++i)
        differs = a.tasks[i].arrival_quantum != c.tasks[i].arrival_quantum ||
                  a.tasks[i].app_name != c.tasks[i].app_name;
    EXPECT_TRUE(differs);
}

TEST(ScenarioTrace, TasksAreArrivalSortedWithServiceDemands) {
    const scenario::ScenarioTrace trace =
        scenario::build_trace(poisson_spec(0.8), chip4x2_config());
    ASSERT_FALSE(trace.tasks.empty());
    for (std::size_t i = 1; i < trace.tasks.size(); ++i)
        EXPECT_LE(trace.tasks[i - 1].arrival_quantum, trace.tasks[i].arrival_quantum);
    std::set<std::uint64_t> seeds;
    for (const scenario::PlannedTask& t : trace.tasks) {
        EXPECT_GT(t.service_insts, 0u);
        EXPECT_GT(t.isolated_ipc, 0.0);
        seeds.insert(t.seed);  // every instance gets its own behaviour seed
    }
    EXPECT_EQ(seeds.size(), trace.tasks.size());
}

TEST(ScenarioTrace, LoadProfileScalesArrivals) {
    scenario::ScenarioSpec spec = poisson_spec(0.5);
    spec.horizon_quanta = 120;
    spec.load_profile = {{0, 1.0}, {60, 4.0}};
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, chip4x2_config());
    std::size_t low = 0, high = 0;
    for (const scenario::PlannedTask& t : trace.tasks)
        (t.arrival_quantum < 60 ? low : high) += 1;
    EXPECT_GT(high, 2 * low);  // the surge window is 4x the base rate
}

TEST(ScenarioTrace, BurstProcessArrivesInWaves) {
    scenario::ScenarioSpec spec;
    spec.name = "burst";
    spec.process = scenario::ArrivalProcess::kBurst;
    spec.app_mix = {"mcf", "leela_r"};
    spec.burst_period = 10;
    spec.burst_size = 3;
    spec.horizon_quanta = 30;
    spec.service_quanta = 4;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, chip4x2_config());
    ASSERT_EQ(trace.tasks.size(), 9u);  // bursts at 0, 10, 20
    for (const scenario::PlannedTask& t : trace.tasks)
        EXPECT_EQ(t.arrival_quantum % 10, 0u);
}

/// build_trace must reject `spec` with an invalid_argument naming `field`.
void expect_rejected(const scenario::ScenarioSpec& spec, const std::string& field) {
    try {
        (void)scenario::build_trace(spec, chip4x2_config());
        ADD_FAILURE() << "build_trace accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ScenarioTrace, RejectsNegativeOrNonFiniteArrivalRate) {
    for (const double rate : {-0.5, kInf, std::nan("")})
        expect_rejected(poisson_spec(rate), "arrival_rate");
}

TEST(ScenarioTrace, RejectsNegativeOrNonFiniteRateScale) {
    for (const double scale : {-1.0, kInf, std::nan("")}) {
        scenario::ScenarioSpec spec = poisson_spec(0.5);
        spec.load_profile = {{0, 1.0}, {20, scale}};
        expect_rejected(spec, "rate_scale");
    }
}

TEST(ScenarioTrace, RejectsZeroServiceQuanta) {
    scenario::ScenarioSpec spec = poisson_spec(0.5);
    spec.service_quanta = 0;
    expect_rejected(spec, "service_quanta");
}

TEST(ScenarioTrace, RejectsZeroHorizonForEveryOpenProcess) {
    for (const scenario::ArrivalProcess process :
         {scenario::ArrivalProcess::kPoisson, scenario::ArrivalProcess::kBurst,
          scenario::ArrivalProcess::kTrace}) {
        scenario::ScenarioSpec spec = poisson_spec(0.5);
        spec.process = process;
        spec.burst_period = 10;
        spec.burst_size = 2;
        spec.horizon_quanta = 0;
        EXPECT_THROW((void)scenario::build_trace(spec, chip4x2_config()),
                     std::invalid_argument)
            << scenario::arrival_process_name(process);
        expect_rejected(spec, "horizon_quanta");
    }
}

TEST(ScenarioTrace, RejectsZeroBurstSize) {
    scenario::ScenarioSpec spec = poisson_spec(0.5);
    spec.process = scenario::ArrivalProcess::kBurst;
    spec.burst_period = 10;
    spec.burst_size = 0;
    EXPECT_THROW((void)scenario::build_trace(spec, chip4x2_config()), std::invalid_argument);
    expect_rejected(spec, "burst_size");
}

TEST(ScenarioTrace, FingerprintSeparatesSeedAndShape) {
    const scenario::ScenarioSpec base = poisson_spec(0.5, 1);
    scenario::ScenarioSpec reseeded = base;
    reseeded.seed = 2;
    scenario::ScenarioSpec reshaped = base;
    reshaped.load_profile = {{10, 2.0}};
    EXPECT_EQ(scenario::scenario_fingerprint(base), scenario::scenario_fingerprint(base));
    EXPECT_NE(scenario::scenario_fingerprint(base), scenario::scenario_fingerprint(reseeded));
    EXPECT_NE(scenario::scenario_fingerprint(base), scenario::scenario_fingerprint(reshaped));
}

// ---------- closed mode: bit-identical with the classic manager ----------

std::vector<sched::TaskSpec> classic_workload() {
    return {
        {.app_name = "nab_r", .seed = 1, .target_insts = 30'000, .isolated_ipc = 2.0},
        {.app_name = "mcf", .seed = 2, .target_insts = 30'000, .isolated_ipc = 0.6},
        {.app_name = "gobmk", .seed = 3, .target_insts = 30'000, .isolated_ipc = 1.0},
        {.app_name = "bwaves", .seed = 4, .target_insts = 30'000, .isolated_ipc = 1.7},
        {.app_name = "leela_r", .seed = 5, .target_insts = 30'000, .isolated_ipc = 1.1},
        {.app_name = "hmmer", .seed = 6, .target_insts = 30'000, .isolated_ipc = 1.9},
        {.app_name = "lbm_r", .seed = 7, .target_insts = 30'000, .isolated_ipc = 0.8},
        {.app_name = "astar", .seed = 8, .target_insts = 30'000, .isolated_ipc = 1.2},
    };
}

template <class MakePolicy>
void expect_closed_matches_classic(const uarch::SimConfig& cfg, MakePolicy make_policy) {
    const std::vector<sched::TaskSpec> specs = classic_workload();

    uarch::Platform classic_platform(cfg);
    auto classic_policy = make_policy();
    sched::ThreadManager manager(classic_platform, *classic_policy, specs);
    const sched::RunResult classic = manager.run();

    uarch::Platform scenario_platform(cfg);
    auto scenario_policy = make_policy();
    const scenario::ScenarioTrace trace = scenario::closed_trace("classic", specs);
    scenario::ScenarioRunner runner(scenario_platform, *scenario_policy, trace);
    const scenario::ScenarioResult result = runner.run();

    // Bit-identical reproduction of the classic methodology results.
    ASSERT_TRUE(classic.completed);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.turnaround_quanta, classic.turnaround_quanta);
    EXPECT_EQ(result.quanta_executed, classic.quanta_executed);
    EXPECT_EQ(result.migrations, classic.migrations);
    ASSERT_EQ(result.tasks.size(), classic.outcomes.size());
    for (const sched::TaskOutcome& out : classic.outcomes) {
        const scenario::TaskRecord& rec =
            result.tasks[static_cast<std::size_t>(out.slot_index)];
        EXPECT_EQ(rec.finish_quantum, out.finish_quantum);  // exact doubles
        EXPECT_EQ(rec.turnaround_quanta, out.finish_quantum);
        EXPECT_TRUE(rec.completed);
    }
}

TEST(ScenarioRunner, ClosedModeMatchesThreadManagerUnderLinux) {
    expect_closed_matches_classic(chip4x2_config(),
                                  [] { return std::make_unique<sched::LinuxPolicy>(); });
}

TEST(ScenarioRunner, ClosedModeMatchesThreadManagerUnderSynpa) {
    expect_closed_matches_classic(chip4x2_config(), [] {
        return std::make_unique<core::SynpaPolicy>(model::InterferenceModel::paper_table4());
    });
}

uarch::SimConfig chip2x4_config() {
    uarch::SimConfig cfg;
    cfg.cores = 2;     // same 8 hardware threads as the paper's shape...
    cfg.smt_ways = 4;  // ...but packed four to a core (TX2 SMT-4 BIOS mode)
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

TEST(ScenarioRunner, ClosedModeMatchesThreadManagerAtSmt4) {
    // The closed-mode delegation contract holds at every width: the same
    // 8-task workload on a 2-core SMT-4 chip reproduces a direct
    // ThreadManager run bit-identically under both drivers.
    expect_closed_matches_classic(chip2x4_config(),
                                  [] { return std::make_unique<sched::LinuxPolicy>(); });
    expect_closed_matches_classic(chip2x4_config(), [] {
        return std::make_unique<core::SynpaPolicy>(model::InterferenceModel::paper_table4());
    });
}

// ---------- open system ----------

/// Explicit-trace scenario with `n` tasks all arriving at quantum 0.
scenario::ScenarioTrace flat_trace(int n, const uarch::SimConfig& cfg) {
    scenario::ScenarioSpec spec;
    spec.name = "flat-" + std::to_string(n);
    spec.process = scenario::ArrivalProcess::kTrace;
    const std::vector<std::string> apps = {"mcf", "leela_r", "gobmk", "nab_r", "bwaves"};
    for (int i = 0; i < n; ++i)
        spec.trace.push_back({0, apps[static_cast<std::size_t>(i) % apps.size()]});
    spec.service_quanta = 5;
    spec.horizon_quanta = 10;
    spec.seed = 5;
    return scenario::build_trace(spec, cfg);
}

TEST(ScenarioRunner, PartialLoadRunsSinglesAndCompletes) {
    const uarch::SimConfig cfg = chip4x2_config();
    for (const int n : {1, 3, 5, 7}) {  // odd and under-subscribed counts
        uarch::Platform platform(cfg);
        core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
        const scenario::ScenarioTrace trace = flat_trace(n, cfg);
        scenario::ScenarioRunner runner(platform, policy, trace);
        const scenario::ScenarioResult result = runner.run();
        EXPECT_TRUE(result.completed) << n << " tasks";
        EXPECT_EQ(result.completed_tasks, static_cast<std::size_t>(n));
        ASSERT_FALSE(result.timeline.empty());
        for (const scenario::QuantumSample& s : result.timeline) {
            EXPECT_LE(s.live, n);
            EXPECT_LE(s.utilization, static_cast<double>(n) / 8.0 + 1e-9);
        }
        EXPECT_EQ(platform.bound_tasks().size(), 0u);  // everything retired
    }
}

TEST(ScenarioRunner, OverloadQueuesFifoAndDrains) {
    const uarch::SimConfig cfg = chip4x2_config();
    uarch::Platform platform(cfg);
    sched::LinuxPolicy policy;
    const scenario::ScenarioTrace trace = flat_trace(11, cfg);  // 8 slots + 3 queued
    scenario::ScenarioRunner runner(platform, policy, trace);
    const scenario::ScenarioResult result = runner.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.completed_tasks, 11u);
    ASSERT_FALSE(result.timeline.empty());
    EXPECT_EQ(result.timeline.front().live, 8);    // chip full...
    EXPECT_EQ(result.timeline.front().queued, 3);  // ...the rest waiting
    // FIFO admission: the queued tasks (plan order 8..10) start later.
    for (std::size_t i = 8; i < 11; ++i) {
        EXPECT_GT(result.tasks[i].admit_quantum, 0u);
        EXPECT_GT(result.tasks[i].queue_quanta, 0.0);
    }
}

TEST(ScenarioRunner, SamplingPolicySurvivesLiveSetGrowth) {
    // Regression: a pairing sampled while few tasks were live must not be
    // replayed after arrivals grow the set (it used to overflow the core
    // count).  Start with 2 tasks, then a burst of 6 more.
    const uarch::SimConfig cfg = chip4x2_config();
    scenario::ScenarioSpec spec;
    spec.name = "growth";
    spec.process = scenario::ArrivalProcess::kBurst;
    spec.app_mix = {"mcf", "leela_r", "gobmk"};
    spec.initial_tasks = 2;
    spec.burst_period = 12;
    spec.burst_size = 6;
    spec.horizon_quanta = 13;  // one burst after the quiet start
    spec.service_quanta = 6;
    spec.seed = 21;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);

    uarch::Platform platform(cfg);
    sched::SamplingPolicy policy(5, {.explore_quanta = 3, .exploit_quanta = 6});
    scenario::ScenarioRunner runner(platform, policy, trace);
    const scenario::ScenarioResult result = runner.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.completed_tasks, trace.tasks.size());
}

TEST(ScenarioRunner, OpenSystemIsDeterministic) {
    const uarch::SimConfig cfg = chip4x2_config();
    const auto run_once = [&cfg] {
        uarch::Platform platform(cfg);
        core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
        const scenario::ScenarioTrace trace =
            scenario::build_trace(poisson_spec(0.9), cfg);
        return scenario::ScenarioRunner(platform, policy, trace).run();
    };
    const scenario::ScenarioResult a = run_once();
    const scenario::ScenarioResult b = run_once();
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.quanta_executed, b.quanta_executed);
    for (std::size_t i = 0; i < a.tasks.size(); ++i)
        EXPECT_EQ(a.tasks[i].finish_quantum, b.tasks[i].finish_quantum);
}

/// A bursty open run on 2 chips x 2 cores: bursts of 10 overfill the SMT-2
/// platform (queueing) and drain before the next wave (idle quanta).  The
/// signature covers every task record and every timeline sample.
std::string pinned_open_run(int smt_ways) {
    uarch::SimConfig cfg;
    cfg.cores = 2;
    cfg.num_chips = 2;
    cfg.smt_ways = smt_ways;
    cfg.cycles_per_quantum = 4'000;
    scenario::ScenarioSpec spec;
    spec.name = "pinned-burst";
    spec.process = scenario::ArrivalProcess::kBurst;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.burst_period = 12;
    spec.burst_size = 10;
    spec.service_quanta = 3;
    spec.horizon_quanta = 36;
    spec.seed = 3;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    uarch::Platform platform(cfg);
    core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
    const scenario::ScenarioResult r = scenario::ScenarioRunner(platform, policy, trace).run();
    EXPECT_TRUE(r.completed);
    std::string sig = testsig::signature(r);
    for (const scenario::QuantumSample& q : r.timeline) {
        sig += "|";
        sig += std::to_string(q.quantum) + ":" + std::to_string(q.live) + ":" +
               std::to_string(q.queued) + ":" + std::to_string(testsig::bits(q.utilization)) +
               ":" + std::to_string(testsig::bits(q.aggregate_ipc)) + ":" +
               std::to_string(q.migrations);
    }
    return sig;
}

TEST(ScenarioPins, OpenRunDigestsAtSmt2AndSmt4) {
    // Captured before the three quantum drivers merged into one loop.
    EXPECT_EQ(testsig::digest(pinned_open_run(2)), 0xd9b58312573e5ba0ull);
    EXPECT_EQ(testsig::digest(pinned_open_run(4)), 0xc324d55f6d68e551ull);
}

// ---------- oracle pins ----------
// The oracle's width-2 Step 3 solves with SubsetDpMatcher, whose tie-breaks
// differ from Blossom's; these digests pin its choices (including the exact
// ties duplicated apps create) for the closed and the partial-load paths.

/// Every oracle pin calibrates the suite the same way first, so a pin's
/// result does not depend on which test ran before it.
void calibrate_for_oracle_pins() { workloads::calibrate_suite(chip4x2_config(), 6, 1); }

std::string oracle_closed_run(const std::vector<sched::TaskSpec>& specs) {
    calibrate_for_oracle_pins();
    uarch::Platform platform(chip4x2_config());
    sched::OraclePolicy policy{model::InterferenceModel::paper_table4()};
    sched::ThreadManager manager(platform, policy, specs);
    const sched::RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    return testsig::signature(r);
}

/// A Poisson open run on one SMT-2 chip of `cores` cores whose live set
/// moves between partial load (the padded solve) and full load (the
/// hysteresis solve); the signature covers every task record and every
/// timeline sample.
std::string oracle_open_run(int cores) {
    calibrate_for_oracle_pins();
    uarch::SimConfig cfg = chip4x2_config();
    cfg.cores = cores;
    scenario::ScenarioSpec spec = poisson_spec(0.25 * cores, 17);
    spec.horizon_quanta = 30;
    spec.service_quanta = 4;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    uarch::Platform platform(cfg);
    sched::OraclePolicy policy{model::InterferenceModel::paper_table4()};
    const scenario::ScenarioResult r = scenario::ScenarioRunner(platform, policy, trace).run();
    EXPECT_TRUE(r.completed);
    std::string sig = testsig::signature(r);
    for (const scenario::QuantumSample& q : r.timeline) {
        sig += "|";
        sig += std::to_string(q.quantum) + ":" + std::to_string(q.live) + ":" +
               std::to_string(q.queued) + ":" + std::to_string(testsig::bits(q.utilization)) +
               ":" + std::to_string(q.migrations);
    }
    return sig;
}

TEST(OraclePins, ClosedGoldenWorkloadAtFourCores) {
    EXPECT_EQ(testsig::digest(oracle_closed_run(classic_workload())), 0xe43720111a903cbeull);
}

TEST(OraclePins, ClosedRunWithDuplicatedApps) {
    // 4x nab_r + 4x mcf in slot order nab, nab, mcf, mcf, ...: the arrival
    // layout (slot k with k + 4) pairs like with like, so the oracle
    // regroups, and every copy of an app shares one truth vector — the
    // solver's tie-breaks pick which nab_r meets which mcf.
    std::vector<sched::TaskSpec> specs;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const bool nab = (i / 2) % 2 == 0;
        specs.push_back({.app_name = nab ? "nab_r" : "mcf", .seed = 1 + i, .target_insts = 60'000,
                         .isolated_ipc = nab ? 2.0 : 0.6});
    }
    EXPECT_EQ(testsig::digest(oracle_closed_run(specs)), 0xe324f1b94b39dbd0ull);
}

TEST(OraclePins, OpenPartialLoadDigestsAtFourAndEightCores) {
    EXPECT_EQ(testsig::digest(oracle_open_run(4)), 0xab821e6108f09816ull);
    EXPECT_EQ(testsig::digest(oracle_open_run(8)), 0x6bb4947b1188b8a9ull);
}

TEST(ScenarioRunner, Smt4OpenSystemCompletesAndConservesTasks) {
    // Open-system SMT-4: arrivals above the 2-core count force real 3- and
    // 4-way groups; every planned task must finish exactly once, the live
    // count must respect the widened capacity, and nothing may stay bound.
    const uarch::SimConfig cfg = chip2x4_config();
    for (const int n : {3, 6, 9, 11}) {  // partial, saturated, oversubscribed
        uarch::Platform platform(cfg);
        core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
        const scenario::ScenarioTrace trace = flat_trace(n, cfg);
        scenario::ScenarioRunner runner(platform, policy, trace);
        const scenario::ScenarioResult result = runner.run();
        EXPECT_TRUE(result.completed) << n << " tasks";
        EXPECT_EQ(result.completed_tasks, static_cast<std::size_t>(n));
        std::size_t finished = 0;
        for (const scenario::TaskRecord& rec : result.tasks) finished += rec.completed;
        EXPECT_EQ(finished, static_cast<std::size_t>(n));  // each exactly once
        for (const scenario::QuantumSample& s : result.timeline)
            EXPECT_LE(s.live, 8);  // 2 cores x 4 ways
        EXPECT_EQ(platform.bound_tasks().size(), 0u);
    }
}

// ---------- multi-chip acceptance ----------

TEST(Multichip, FourChipThirtyTwoCoreScenarioCompletesAtScale) {
    // The PR's scale unlock: 4 chips x 32 cores x SMT-4 = 512 hardware
    // contexts, open-system Poisson arrivals, the topology-aware SYNPA
    // policy — with every platform invariant re-validated after every
    // quantum.  Every planned task must finish exactly once, and the
    // benefit-gated balancer must keep cross-chip churn a tiny fraction of
    // total migrations.
    uarch::SimConfig cfg;
    cfg.num_chips = 4;
    cfg.cores = 32;
    cfg.smt_ways = 4;
    cfg.cycles_per_quantum = 1'000;

    scenario::ScenarioSpec spec;
    spec.name = "4x32x4";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r", "bwaves"};
    spec.service_quanta = 4;
    spec.horizon_quanta = 10;
    spec.seed = 3;
    const double capacity = 4.0 * 32.0 * 4.0;
    spec.arrival_rate = 0.5 * capacity / 4.0;
    spec.initial_tasks = 128;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    ASSERT_GT(trace.tasks.size(), 300u);  // genuinely large

    uarch::Platform platform(cfg);
    EXPECT_EQ(platform.hw_contexts(), 512);
    core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
    scenario::ScenarioRunner::Options opts;
    opts.max_quanta = 2'000;
    opts.record_timeline = false;
    opts.on_quantum = [](const uarch::Platform& p) { uarch::validate_platform(p); };
    scenario::ScenarioRunner runner(platform, policy, trace, opts);
    const scenario::ScenarioResult result = runner.run();

    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.completed_tasks, trace.tasks.size());
    std::size_t finished = 0;
    for (const scenario::TaskRecord& rec : result.tasks) {
        finished += rec.completed;
        if (rec.completed) {
            EXPECT_GE(rec.chip_id, 0);
            EXPECT_LT(rec.chip_id, 4);
        }
    }
    EXPECT_EQ(finished, trace.tasks.size());  // no task lost or duplicated
    EXPECT_EQ(platform.bound_tasks().size(), 0u);
    EXPECT_GT(result.migrations, 0u);
    // Benefit-gated cross-chip moves: rare relative to total migrations.
    EXPECT_LT(static_cast<double>(result.cross_chip_migrations),
              0.05 * static_cast<double>(result.migrations));
}

// ---------- the acceptance load sweep ----------

TEST(ScenarioRunner, LoadSweepCompletesUnderEveryPolicy) {
    // Arrival rates yielding average runnable threads of 4, 6, 7, 8 and 10
    // on the 4-core/2-way chip (runnable = rate x isolated service time;
    // 10 oversubscribes the 8 hardware threads, exercising the queue).
    const uarch::SimConfig cfg = chip4x2_config();
    const double service = 6.0;  // spec.service_quanta below
    for (const double runnable : {4.0, 6.0, 7.0, 8.0, 10.0}) {
        scenario::ScenarioSpec spec = poisson_spec(runnable / service);
        spec.name = "runnable-" + std::to_string(runnable);
        spec.service_quanta = static_cast<std::uint64_t>(service);
        spec.initial_tasks = static_cast<std::uint64_t>(std::min(runnable, 8.0));
        spec.horizon_quanta = 30;
        const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);

        const auto policies = std::vector<std::function<
            std::unique_ptr<sched::AllocationPolicy>()>>{
            [] {
                return std::make_unique<core::SynpaPolicy>(
                    model::InterferenceModel::paper_table4());
            },
            [] { return std::make_unique<sched::RandomPolicy>(3); },
            [] { return std::make_unique<sched::LinuxPolicy>(); },  // no migration
        };
        for (const auto& make_policy : policies) {
            uarch::Platform platform(cfg);
            auto policy = make_policy();
            scenario::ScenarioRunner runner(platform, *policy, trace, {.max_quanta = 10'000});
            const scenario::ScenarioResult result = runner.run();
            EXPECT_TRUE(result.completed)
                << spec.name << " under " << result.policy_name;
            EXPECT_EQ(result.completed_tasks, trace.tasks.size());
        }
    }
}

// ---------- scenario grid ----------

TEST(ScenarioGrid, DeterministicAcrossThreadCounts) {
    exp::ScenarioCampaign campaign;
    campaign.name = "grid-test";
    campaign.configs = {chip4x2_config()};
    campaign.scenarios = {poisson_spec(0.6, 3), poisson_spec(1.2, 4)};
    campaign.scenarios[1].name = "poisson-heavy";
    campaign.policies = {
        exp::policy("linux",
                    [](std::uint64_t) { return std::make_unique<sched::LinuxPolicy>(); }),
        exp::policy("random",
                    [](std::uint64_t s) { return std::make_unique<sched::RandomPolicy>(s); }),
    };
    campaign.reps = 2;

    exp::ArtifactCache cache_serial, cache_parallel;
    exp::ScenarioGridRunner serial({.threads = 1}, &cache_serial);
    exp::ScenarioGridRunner parallel({.threads = 8}, &cache_parallel);
    const exp::ScenarioGridResult a = serial.run(campaign);
    const exp::ScenarioGridResult b = parallel.run(campaign);

    ASSERT_EQ(a.cells.size(), 4u);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].scenario, b.cells[i].scenario);
        EXPECT_EQ(a.cells[i].policy, b.cells[i].policy);
        EXPECT_EQ(a.cells[i].summary.completed_tasks, b.cells[i].summary.completed_tasks);
        EXPECT_EQ(a.cells[i].summary.mean_turnaround, b.cells[i].summary.mean_turnaround);
        EXPECT_EQ(a.cells[i].summary.p95_turnaround, b.cells[i].summary.p95_turnaround);
        EXPECT_EQ(a.cells[i].summary.mean_utilization, b.cells[i].summary.mean_utilization);
    }
    // Each scenario's trace is memoized once and shared by both policy
    // columns; rep > 0 re-samples with a derived seed.
    EXPECT_EQ(cache_serial.stats().scenario_builds, 4u);  // 2 scenarios x 2 reps
}

TEST(ScenarioGrid, AggregatorsStreamInGridOrder) {
    exp::ScenarioCampaign campaign;
    campaign.name = "agg-test";
    campaign.configs = {chip4x2_config()};
    campaign.scenarios = {poisson_spec(0.8, 9)};
    campaign.policies = {
        exp::policy("linux",
                    [](std::uint64_t) { return std::make_unique<sched::LinuxPolicy>(); }),
        exp::policy("random",
                    [](std::uint64_t s) { return std::make_unique<sched::RandomPolicy>(s); }),
    };

    std::ostringstream csv;
    exp::ScenarioCsvAggregator csv_agg(csv);
    exp::UtilizationSeriesAggregator util_agg(8);
    exp::SlowdownAggregator slow_agg;
    exp::TurnaroundTailAggregator tail_agg;
    exp::ArtifactCache cache;
    exp::ScenarioGridRunner runner({.threads = 4}, &cache);
    runner.run(campaign, {&csv_agg, &util_agg, &slow_agg, &tail_agg});

    const std::string text = csv.str();
    std::size_t lines = 0;
    for (char c : text) lines += c == '\n';
    EXPECT_EQ(lines, 3u);  // header + 2 cells
    EXPECT_NE(text.find("poisson,linux"), std::string::npos);
    EXPECT_NE(text.find("poisson,random"), std::string::npos);

    ASSERT_EQ(util_agg.series().size(), 2u);
    EXPECT_EQ(util_agg.series()[0].policy, "linux");
    EXPECT_EQ(util_agg.series()[0].mean_utilization.size(), 8u);
    for (double u : util_agg.series()[0].mean_utilization) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }

    ASSERT_EQ(slow_agg.stats().size(), 2u);
    for (const auto& [key, stats] : slow_agg.stats()) {
        EXPECT_GT(stats.count(), 0u);
        EXPECT_GE(stats.mean(), 1.0);  // sharing can only slow tasks down
    }

    ASSERT_EQ(tail_agg.rows().size(), 2u);
    for (const auto& row : tail_agg.rows()) {
        EXPECT_GT(row.samples, 0u);
        EXPECT_LE(row.p50, row.p95);
        EXPECT_LE(row.p95, row.p99);
        EXPECT_LE(row.p99, row.max);
    }
}

}  // namespace
