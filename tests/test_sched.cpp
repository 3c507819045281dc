// Tests for the scheduling framework: CoreGroup/CoreAllocation, the policy
// interface defaults, the baseline policies, group placement, the thread
// manager's measurement methodology (targets, relaunch, turnaround, traces,
// migrations), the SMT-1/SMT-2 golden regressions, SMT-4 task conservation,
// and the multi-chip platform path (topology-aware policies, cross-chip
// migration penalties).
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "core/synpa_policy.hpp"
#include "sched/baselines.hpp"
#include "sched/node_loop.hpp"
#include "sched/policy.hpp"
#include "sched/thread_manager.hpp"
#include "sched/topology.hpp"
#include "uarch/platform.hpp"
#include "workloads/groups.hpp"

namespace {

using namespace synpa;
using namespace synpa::sched;

TaskObservation make_obs(int task, int core, int partner, int total_cores = 4,
                         int smt_ways = 2) {
    TaskObservation o;
    o.task_id = task;
    o.core = core;
    if (partner >= 0) o.corunner_task_ids.push_back(partner);
    o.total_cores = total_cores;
    o.smt_ways = smt_ways;
    return o;
}

// ---------- CoreGroup & converters ----------

TEST(CoreGroupTest, OccupancyAndMembers) {
    const CoreGroup empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.occupancy(), 0);

    CoreGroup g{7, 9};
    EXPECT_EQ(g.occupancy(), 2);
    EXPECT_TRUE(g.contains(7));
    EXPECT_FALSE(g.contains(8));
    EXPECT_FALSE(g.contains(kNoTask));
    g.add(11);
    EXPECT_EQ(g.occupancy(), 3);
    ASSERT_EQ(g.members().size(), 3u);
    EXPECT_EQ(g.members()[2], 11);
    g.add(12);
    EXPECT_THROW(g.add(13), std::length_error);  // kMaxSmtWays slots
    EXPECT_THROW((CoreGroup{1, 2, 3, 4, 5}), std::length_error);
}

TEST(CoreGroupTest, GroupsFromPairsSpellsPartialEntries) {
    // The deprecated PairAllocation alias and its converters are gone; the
    // pair solvers reach place_groups through groups_from_pairs.
    const std::vector<CoreGroup> entries =
        groups_from_pairs({{1, 2}, {3, kNoTask}, {kNoTask, kNoTask}});
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0], (CoreGroup{1, 2}));
    EXPECT_EQ(entries[1], (CoreGroup{3}));
    EXPECT_TRUE(entries[2].empty());
}

// ---------- policy interface defaults ----------

TEST(Policy, DefaultInitialAllocationIsArrivalOrder) {
    LinuxPolicy linux_policy;
    const std::vector<int> ids = {10, 11, 12, 13, 14, 15, 16, 17};
    const CoreAllocation a = linux_policy.initial_allocation(ids);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0], (CoreGroup{10, 14}));  // paper: task k with task k+4
    EXPECT_EQ(a[3], (CoreGroup{13, 17}));
}

TEST(Policy, InitialAllocationSpreadsAcrossWidths) {
    LinuxPolicy linux_policy;
    const std::vector<int> ids = {1, 2, 3, 4, 5, 6, 7, 8};
    // SMT-4: 8 tasks spread over ceil(8/4) = 2 cores, column-major.
    const CoreAllocation a = linux_policy.initial_allocation(ids, 4);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], (CoreGroup{1, 3, 5, 7}));
    EXPECT_EQ(a[1], (CoreGroup{2, 4, 6, 8}));
    // Partial last groups stay occupied-slots-first.
    const CoreAllocation b = linux_policy.initial_allocation(std::vector<int>{1, 2, 3, 4, 5}, 4);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0], (CoreGroup{1, 3, 5}));
    EXPECT_EQ(b[1], (CoreGroup{2, 4}));
    EXPECT_THROW(linux_policy.initial_allocation(ids, 0), std::invalid_argument);
    EXPECT_THROW(linux_policy.initial_allocation(ids, 5), std::invalid_argument);
}

TEST(Policy, OddTaskCountRunsMiddleTaskAlone) {
    // The partial-allocation contract: odd N spreads like even N (task k
    // with task k + ceil(N/2)) and the unmatched middle task gets a core of
    // its own.
    LinuxPolicy linux_policy;
    const std::vector<int> ids = {1, 2, 3};
    const CoreAllocation a = linux_policy.initial_allocation(ids);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], (CoreGroup{1, 3}));
    EXPECT_EQ(a[1], (CoreGroup{2}));
    EXPECT_THROW(linux_policy.initial_allocation(std::vector<int>{}), std::invalid_argument);
}

TEST(Policy, CoreAlignedCurrentAllocationKeepsIdleCores) {
    // Tasks on cores 0 and 2 of a 4-core chip: the core-aligned result
    // reports idle cores in place, so re-applying it migrates nothing.
    std::vector<TaskObservation> obs = {make_obs(1, 0, 2), make_obs(2, 0, 1),
                                        make_obs(3, 2, -1)};
    const CoreAllocation a = current_allocation(obs, 4);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[0], (CoreGroup{1, 2}));
    EXPECT_TRUE(a[1].empty());
    EXPECT_EQ(a[2], (CoreGroup{3}));
    EXPECT_TRUE(a[3].empty());
    // The legacy "driver predates total_cores" compact form is gone: the
    // core count is required.
    EXPECT_THROW(current_allocation(obs, 0), std::invalid_argument);
    EXPECT_THROW(current_allocation(obs, -1), std::invalid_argument);
}

TEST(Policy, PlaceGroupsHandlesSinglesAndIdleCores) {
    const std::vector<TaskObservation> obs = {make_obs(1, 0, 2), make_obs(2, 0, 1),
                                              make_obs(3, 1, -1)};
    const CoreAllocation a = place_groups({CoreGroup{3}, CoreGroup{1, 2}}, obs, 4);
    ASSERT_EQ(a.size(), 4u);
    EXPECT_EQ(a[1], (CoreGroup{3}));      // single kept its core
    EXPECT_EQ(a[0], (CoreGroup{1, 2}));   // pair kept its core
    EXPECT_TRUE(a[2].empty());
    EXPECT_THROW(place_groups({CoreGroup{1, 2}, CoreGroup{3}}, obs, 1),
                 std::invalid_argument);
    // The pair spelling routes through the same placement.
    EXPECT_EQ(place_groups(groups_from_pairs({{3, kNoTask}, {1, 2}}), obs, 4), a);
}

TEST(Policy, CurrentAllocationReconstruction) {
    const std::vector<TaskObservation> obs = {make_obs(1, 0, 2, 2), make_obs(2, 0, 1, 2),
                                              make_obs(3, 1, 4, 2), make_obs(4, 1, 3, 2)};
    const CoreAllocation a = current_allocation(obs, 2);
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0], (CoreGroup{1, 2}));
    EXPECT_EQ(a[1], (CoreGroup{3, 4}));
}

TEST(Policy, LinuxKeepsCurrentGroups) {
    LinuxPolicy linux_policy;
    const std::vector<TaskObservation> obs = {make_obs(1, 0, 2, 2), make_obs(2, 0, 1, 2),
                                              make_obs(3, 1, 4, 2), make_obs(4, 1, 3, 2)};
    const CoreAllocation a = linux_policy.reallocate(obs);
    EXPECT_EQ(a, current_allocation(obs, 2));
}

TEST(Policy, PlacePairsPrefersIncumbentCores) {
    const std::vector<TaskObservation> obs = {make_obs(1, 0, 2, 2), make_obs(2, 0, 1, 2),
                                              make_obs(3, 1, 4, 2), make_obs(4, 1, 3, 2)};
    // Regroup (1,3) and (2,4): each pair should land on a core one of its
    // members already occupies.
    const CoreAllocation a = place_groups(groups_from_pairs({{1, 3}, {2, 4}}), obs, 2);
    ASSERT_EQ(a.size(), 2u);
    std::set<int> placed;
    for (const CoreGroup& g : a)
        for (int id : g.members()) placed.insert(id);
    EXPECT_EQ(placed, (std::set<int>{1, 2, 3, 4}));
    // Group containing task 1 stays on core 0 (task 1 was there).
    EXPECT_TRUE(a[0].contains(1));
}

TEST(Policy, RandomPolicyProducesValidPermutations) {
    RandomPolicy random_policy(7);
    const std::vector<TaskObservation> obs = {make_obs(1, 0, 2, 2), make_obs(2, 0, 1, 2),
                                              make_obs(3, 1, 4, 2), make_obs(4, 1, 3, 2)};
    bool changed = false;
    for (int round = 0; round < 16; ++round) {
        const CoreAllocation a = random_policy.reallocate(obs);
        ASSERT_EQ(a.size(), 2u);
        std::set<int> seen;
        for (const CoreGroup& g : a) {
            EXPECT_EQ(g.occupancy(), 2);
            for (int id : g.members()) seen.insert(id);
        }
        EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4}));
        if (a != current_allocation(obs, 2)) changed = true;
    }
    EXPECT_TRUE(changed);  // random must actually shuffle sometimes
}

TEST(Policy, RandomPolicySpreadsAtWidthFour) {
    // 6 tasks on a 2-core SMT-4 chip: the even spread forces 3+3, never 4+2.
    RandomPolicy random_policy(11);
    std::vector<TaskObservation> obs;
    for (int t = 1; t <= 6; ++t)
        obs.push_back(make_obs(t, (t - 1) / 3, -1, /*total_cores=*/2, /*smt_ways=*/4));
    for (int round = 0; round < 8; ++round) {
        const CoreAllocation a = random_policy.reallocate(obs);
        ASSERT_EQ(a.size(), 2u);
        std::set<int> seen;
        for (const CoreGroup& g : a) {
            EXPECT_EQ(g.occupancy(), 3);
            for (int id : g.members()) seen.insert(id);
        }
        EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4, 5, 6}));
    }
}

TEST(Policy, SamplingPolicyHandlesLeftoversAtWidthFour) {
    // Regression: 6 live tasks on a 2-core SMT-4 chip used to sample
    // floor(6/4) = 1 full group plus 2 leftover singles = 3 entries for 2
    // cores, and place_groups threw.  The even spread keeps it at 3+3.
    SamplingPolicy policy(3, {.explore_quanta = 2, .exploit_quanta = 4});
    std::vector<TaskObservation> obs;
    for (int t = 1; t <= 6; ++t)
        obs.push_back(make_obs(t, (t - 1) / 3, -1, /*total_cores=*/2, /*smt_ways=*/4));
    for (int round = 0; round < 12; ++round) {
        const CoreAllocation a = policy.reallocate(obs);
        ASSERT_EQ(a.size(), 2u);
        std::set<int> seen;
        for (const CoreGroup& g : a) {
            EXPECT_LE(g.occupancy(), 4);
            for (int id : g.members()) seen.insert(id);
        }
        EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4, 5, 6}));
    }
}

TEST(Policy, PoliciesRejectUnpopulatedTotalCores) {
    // total_cores is required now: a driver that forgets it gets a clear
    // diagnostic, not a division by zero.
    std::vector<TaskObservation> obs = {make_obs(1, 0, -1, /*total_cores=*/0)};
    EXPECT_THROW(observed_total_cores(obs), std::invalid_argument);
    RandomPolicy random_policy(1);
    EXPECT_THROW(random_policy.reallocate(obs), std::invalid_argument);
    SamplingPolicy sampling_policy(1);
    EXPECT_THROW(sampling_policy.reallocate(obs), std::invalid_argument);
}

// ---------- thread manager ----------

uarch::SimConfig manager_config() {
    uarch::SimConfig cfg;
    cfg.cores = 2;  // 4 hardware threads
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

std::vector<TaskSpec> small_workload(std::uint64_t target_insts) {
    return {
        {.app_name = "nab_r", .seed = 1, .target_insts = target_insts, .isolated_ipc = 2.0},
        {.app_name = "mcf", .seed = 2, .target_insts = target_insts, .isolated_ipc = 0.6},
        {.app_name = "gobmk", .seed = 3, .target_insts = target_insts, .isolated_ipc = 1.0},
        {.app_name = "bwaves", .seed = 4, .target_insts = target_insts, .isolated_ipc = 1.7},
    };
}

TEST(ThreadManager, RequiresFullChip) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    const std::vector<TaskSpec> three(3);
    EXPECT_THROW(ThreadManager(platform, policy, three), std::invalid_argument);
}

TEST(ThreadManager, RunsToCompletionAndReports) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    const auto specs = small_workload(30'000);
    ThreadManager manager(platform, policy, specs);
    const RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.policy_name, "linux");
    ASSERT_EQ(r.outcomes.size(), 4u);
    double max_finish = 0.0;
    for (const TaskOutcome& out : r.outcomes) {
        EXPECT_GT(out.finish_quantum, 0.0);
        EXPECT_GT(out.ipc_smt, 0.0);
        EXPECT_GT(out.individual_speedup, 0.0);
        // SMT cannot beat isolated execution in this contended setup.
        EXPECT_LT(out.individual_speedup, 1.15);
        const auto& f = out.mean_fractions;
        EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-6);
        max_finish = std::max(max_finish, out.finish_quantum);
    }
    EXPECT_DOUBLE_EQ(r.turnaround_quanta, max_finish);
    EXPECT_EQ(r.migrations, 0u);  // linux never migrates
}

TEST(ThreadManager, TracesCoverEveryQuantum) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    ThreadManager manager(platform, policy, small_workload(20'000),
                          {.max_quanta = 10'000, .record_traces = true});
    const RunResult r = manager.run();
    ASSERT_EQ(r.traces.size(), 4u);
    for (const auto& trace : r.traces) {
        ASSERT_EQ(trace.size(), r.quanta_executed);
        for (const QuantumTrace& t : trace) {
            EXPECT_GE(t.corunner_slot, 0);  // fully loaded chip
            EXPECT_LT(t.corunner_slot, 4);
            EXPECT_NEAR(t.fractions[0] + t.fractions[1] + t.fractions[2], 1.0, 1e-6);
        }
    }
}

TEST(ThreadManager, RelaunchKeepsLoadConstant) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    // Very different targets force early finishers to be relaunched.
    std::vector<TaskSpec> specs = small_workload(10'000);
    specs[1].target_insts = 200'000;  // mcf finishes last
    ThreadManager manager(platform, policy, specs);
    const RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(platform.bound_tasks().size(), 4u);  // still fully loaded at the end
    // The slow task defines the turnaround.
    double mcf_finish = 0.0;
    for (const auto& out : r.outcomes)
        if (out.app_name == "mcf") mcf_finish = out.finish_quantum;
    EXPECT_DOUBLE_EQ(r.turnaround_quanta, mcf_finish);
}

TEST(ThreadManager, SafetyCapReportsIncomplete) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    ThreadManager manager(platform, policy, small_workload(100'000'000),
                          {.max_quanta = 5, .record_traces = false});
    const RunResult r = manager.run();
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.quanta_executed, 5u);
}

TEST(ThreadManager, RejectsZeroMaxQuanta) {
    uarch::Platform platform(manager_config());
    LinuxPolicy policy;
    try {
        ThreadManager manager(platform, policy, small_workload(20'000), {.max_quanta = 0});
        ADD_FAILURE() << "ThreadManager accepted max_quanta = 0";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("max_quanta"), std::string::npos) << e.what();
    }
}

TEST(ThreadManager, DeterministicAcrossRuns) {
    auto run_once = [] {
        uarch::Platform platform(manager_config());
        LinuxPolicy policy;
        ThreadManager manager(platform, policy, small_workload(25'000));
        return manager.run().turnaround_quanta;
    };
    EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(ThreadManager, RandomPolicyCountsMigrations) {
    uarch::Platform platform(manager_config());
    RandomPolicy policy(3);
    ThreadManager manager(platform, policy, small_workload(25'000));
    const RunResult r = manager.run();
    EXPECT_GT(r.migrations, 0u);
}

TEST(OraclePolicyTest, RejectsSmt2ChipsAboveTwelveCores) {
    // Its exact matcher pads an SMT-2 chip to 2 x cores vertices and stops
    // at 24: twelve cores solve, thirteen must fail naming the policy, the
    // chip's core count and the cap.
    OraclePolicy policy{model::InterferenceModel::paper_table4()};
    const apps::AppInstance mcf(0, apps::find_app("mcf"), 1);
    const auto full_chip = [&mcf](int cores) {
        std::vector<TaskObservation> obs;
        for (int c = 0; c < cores; ++c) {
            obs.push_back(make_obs(2 * c, c, 2 * c + 1, cores));
            obs.push_back(make_obs(2 * c + 1, c, 2 * c, cores));
        }
        for (TaskObservation& o : obs) o.instance = &mcf;
        return obs;
    };
    EXPECT_EQ(policy.reallocate(full_chip(12)).size(), 12u);
    try {
        (void)policy.reallocate(full_chip(13));
        ADD_FAILURE() << "oracle accepted a 13-core SMT-2 chip";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("oracle"), std::string::npos) << what;
        EXPECT_NE(what.find("13 cores"), std::string::npos) << what;
        EXPECT_NE(what.find("12-core cap"), std::string::npos) << what;
    }
}

TEST(OraclePolicyTest, ProducesValidAllocationsInManager) {
    workloads::calibrate_suite(manager_config(), 6, 1);
    uarch::Platform platform(manager_config());
    OraclePolicy policy{model::InterferenceModel::paper_table4()};
    ThreadManager manager(platform, policy, small_workload(20'000));
    const RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.outcomes.size(), 4u);
}

}  // namespace

namespace {

using synpa::sched::SamplingPolicy;

TEST(SamplingPolicyTest, ExploresThenSettles) {
    synpa::uarch::Platform platform(manager_config());
    SamplingPolicy policy(5, {.explore_quanta = 3, .exploit_quanta = 10});
    synpa::sched::ThreadManager manager(platform, policy, small_workload(40'000));
    const synpa::sched::RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.policy_name, "sampling");
    // It must migrate during exploration but far less than pure random.
    EXPECT_GT(r.migrations, 0u);
    EXPECT_LT(static_cast<double>(r.migrations) /
                  static_cast<double>(r.quanta_executed),
              2.0);
}

TEST(SamplingPolicyTest, OptionsRejectPhasesShorterThanOneQuantum) {
    // An exploit phase of 0 quanta used to drive the phase counter negative,
    // so the first winner was exploited for the rest of the run; an explore
    // phase below 1 silently behaved as 1.
    const std::pair<SamplingPolicy::Options, const char*> bad[] = {
        {{.explore_quanta = 3, .exploit_quanta = 0}, "SamplingPolicy::Options::exploit_quanta"},
        {{.explore_quanta = 3, .exploit_quanta = -5}, "SamplingPolicy::Options::exploit_quanta"},
        {{.explore_quanta = 0, .exploit_quanta = 10}, "SamplingPolicy::Options::explore_quanta"},
        {{.explore_quanta = -1, .exploit_quanta = 10}, "SamplingPolicy::Options::explore_quanta"},
    };
    for (const auto& [opts, field] : bad) {
        try {
            SamplingPolicy policy(5, opts);
            ADD_FAILURE() << "accepted a bad " << field;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }
    EXPECT_NO_THROW(SamplingPolicy(5, {.explore_quanta = 1, .exploit_quanta = 1}));
}

TEST(SamplingPolicyTest, ProducesValidAllocationsEveryQuantum) {
    synpa::uarch::Platform platform(manager_config());
    SamplingPolicy policy(9);
    synpa::sched::ThreadManager manager(platform, policy, small_workload(20'000));
    const synpa::sched::RunResult r = manager.run();
    EXPECT_TRUE(r.completed);  // manager validates every allocation it applies
    ASSERT_EQ(r.outcomes.size(), 4u);
}

}  // namespace

// ---------- golden regression: SMT-2 is bit-identical pre/post redesign --

namespace {

using namespace synpa;
using namespace synpa::sched;

std::vector<TaskSpec> golden_workload() {
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

struct GoldenRun {
    double turnaround;
    std::uint64_t quanta;
    std::uint64_t migrations;
    std::array<double, 8> finish;  ///< per-slot fractional finish quantum
};

RunResult golden_run(AllocationPolicy& policy) {
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.cycles_per_quantum = 4'000;
    uarch::Platform platform(cfg);
    ThreadManager manager(platform, policy, golden_workload());
    return manager.run();
}

void expect_golden(const RunResult& r, const GoldenRun& want) {
    ASSERT_TRUE(r.completed);
    // Exact double comparisons on purpose: the values below were captured
    // from the pre-redesign (PairAllocation) engine, and the width-generic
    // rewrite must not perturb a single bit of the SMT-2 simulation.
    EXPECT_EQ(r.turnaround_quanta, want.turnaround);
    EXPECT_EQ(r.quanta_executed, want.quanta);
    EXPECT_EQ(r.migrations, want.migrations);
    ASSERT_EQ(r.outcomes.size(), want.finish.size());
    for (const TaskOutcome& out : r.outcomes)
        EXPECT_EQ(out.finish_quantum, want.finish[static_cast<std::size_t>(out.slot_index)])
            << "slot " << out.slot_index;
}

TEST(GoldenSmt2, LinuxBitIdenticalToPreRedesignEngine) {
    LinuxPolicy policy;
    expect_golden(golden_run(policy),
                  {.turnaround = 18.498396407953816,
                   .quanta = 19,
                   .migrations = 0,
                   .finish = {3.7516593613024423, 16.542796005706133, 12.192352711666016,
                              5.6086633203197618, 9.3313414998506126, 18.498396407953816,
                              12.242548217416715, 10.50165990409443}});
}

TEST(GoldenSmt2, SynpaBitIdenticalToPreRedesignEngine) {
    core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
    expect_golden(golden_run(policy),
                  {.turnaround = 18.498396407953816,
                   .quanta = 19,
                   .migrations = 0,
                   .finish = {3.7516593613024423, 16.542796005706133, 12.192352711666016,
                              5.6086633203197618, 9.3313414998506126, 18.498396407953816,
                              12.242548217416715, 10.50165990409443}});
}

TEST(GoldenSmt2, MigratingSynpaBitIdenticalToPreRedesignEngine) {
    // The workload above never tempts SYNPA away from the Linux layout
    // (hysteresis keeps the incumbent pairing; migrations == 0), so it
    // cannot catch a regression in the decision path itself.  This variant
    // pairs the memory hogs together at t=0 (Linux pairs slot k with k+4)
    // and runs the paper's plain re-solve configuration (no hysteresis):
    // the pre-redesign engine migrated 82 times, exercising the estimator
    // inversion, the weight matrix, the matcher, and incumbent placement
    // every quantum.
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.cycles_per_quantum = 4'000;
    const std::vector<TaskSpec> specs = {
        {.app_name = "mcf", .seed = 1, .target_insts = 60'000, .isolated_ipc = 0.6},
        {.app_name = "lbm_r", .seed = 2, .target_insts = 60'000, .isolated_ipc = 0.8},
        {.app_name = "leela_r", .seed = 3, .target_insts = 60'000, .isolated_ipc = 1.1},
        {.app_name = "gobmk", .seed = 4, .target_insts = 60'000, .isolated_ipc = 1.0},
        {.app_name = "bwaves", .seed = 5, .target_insts = 60'000, .isolated_ipc = 1.7},
        {.app_name = "mcf", .seed = 6, .target_insts = 60'000, .isolated_ipc = 0.6},
        {.app_name = "exchange2_r", .seed = 7, .target_insts = 60'000, .isolated_ipc = 2.0},
        {.app_name = "nab_r", .seed = 8, .target_insts = 60'000, .isolated_ipc = 2.0},
    };
    core::SynpaPolicy::Options opts;
    opts.stability_bias = 0.0;
    opts.keep_threshold = 0.0;
    core::SynpaPolicy policy{model::InterferenceModel::paper_table4(), opts};
    uarch::Platform platform(cfg);
    ThreadManager manager(platform, policy, specs);
    expect_golden(manager.run(),
                  {.turnaround = 35.397286821705428,
                   .quanta = 36,
                   .migrations = 82,
                   .finish = {33.638052530429214, 24.728987993138936, 21.223791821561338,
                              24.095081967213115, 16.841225626740947, 35.397286821705428,
                              11.57241082939407, 11.000177967609895}});
}

TEST(GoldenSmt2, RandomBitIdenticalToPreRedesignEngine) {
    // Random regroups every quantum, exercising the shuffle, the forced-
    // sharing split, and incumbent-core placement — the paths most reworked
    // by the width generalization.
    RandomPolicy policy(7);
    expect_golden(golden_run(policy),
                  {.turnaround = 20.423059255856682,
                   .quanta = 21,
                   .migrations = 71,
                   .finish = {4.1899877526025717, 18.29414951245937, 12.073105298457412,
                              6.2467710909590544, 10.201826045170591, 20.423059255856682,
                              16.856540084388186, 11.159541188738269}});
}

// ---------- SMT-4 ----------

TEST(Smt4, ClosedSystemConservesTasksAcrossPolicies) {
    // A 2-core SMT-4 chip running 8 threads: every quantum's allocation is
    // validated as a permutation of the live set (NodeLoop::bind throws
    // otherwise), and the chip must stay saturated to the finish line.
    uarch::SimConfig cfg;
    cfg.cores = 2;
    cfg.smt_ways = 4;
    cfg.cycles_per_quantum = 4'000;

    const auto run_with = [&](AllocationPolicy& policy) {
        uarch::Platform platform(cfg);
        std::vector<TaskSpec> specs;
        for (const TaskSpec& s : golden_workload()) specs.push_back(s);
        ThreadManager manager(platform, policy, specs);
        const RunResult r = manager.run();
        EXPECT_TRUE(r.completed) << policy.name();
        EXPECT_EQ(r.outcomes.size(), 8u) << policy.name();
        EXPECT_EQ(platform.bound_tasks().size(), 8u) << policy.name();  // still full
        for (const TaskOutcome& out : r.outcomes)
            EXPECT_GT(out.finish_quantum, 0.0) << policy.name();
        return r;
    };

    LinuxPolicy linux_policy;
    run_with(linux_policy);
    RandomPolicy random_policy(5);
    const RunResult random_run = run_with(random_policy);
    EXPECT_GT(random_run.migrations, 0u);
    core::SynpaPolicy synpa_policy{model::InterferenceModel::paper_table4()};
    run_with(synpa_policy);
    SamplingPolicy sampling_policy(7, {.explore_quanta = 2, .exploit_quanta = 6});
    run_with(sampling_policy);
}

TEST(Smt1, ClosedSystemRunsWithoutCorunners) {
    // SMT disabled in BIOS: one thread per core, no pairs to train against
    // at eval width (the trainer widens its own co-run chip), no grouping
    // decision, and never a reason to migrate.
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.smt_ways = 1;
    cfg.cycles_per_quantum = 4'000;
    uarch::Platform platform(cfg);
    core::SynpaPolicy policy{model::InterferenceModel::paper_table4()};
    std::vector<TaskSpec> specs = golden_workload();
    specs.resize(4);  // 4 cores x 1 way
    ThreadManager manager(platform, policy, specs);
    const RunResult r = manager.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.migrations, 0u);
    for (const auto& trace : r.traces)
        for (const QuantumTrace& t : trace) EXPECT_EQ(t.corunner_slot, -1);
}

TEST(GoldenSmt1, ClosedRunBitIdenticalAcrossPolicies) {
    // Width-1 determinism golden: the PR-3 goldens cover widths 2 and 4
    // only.  With SMT off there is no grouping decision, so linux and synpa
    // must agree bit-for-bit — and both must stay pinned to the captured
    // engine values (exact doubles on purpose).
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.smt_ways = 1;
    cfg.cycles_per_quantum = 4'000;
    const std::vector<TaskSpec> specs = {
        {.app_name = "nab_r", .seed = 1, .target_insts = 30'000, .isolated_ipc = 2.0},
        {.app_name = "mcf", .seed = 2, .target_insts = 30'000, .isolated_ipc = 0.6},
        {.app_name = "gobmk", .seed = 3, .target_insts = 30'000, .isolated_ipc = 1.0},
        {.app_name = "bwaves", .seed = 4, .target_insts = 30'000, .isolated_ipc = 1.7},
    };
    const std::array<double, 4> want_finish = {3.017916456970307, 9.7104734576757537,
                                               8.7401021711366536, 3.7727873183619551};
    const auto run_with = [&](AllocationPolicy& policy) {
        uarch::Platform platform(cfg);
        ThreadManager manager(platform, policy, specs);
        const RunResult r = manager.run();
        ASSERT_TRUE(r.completed) << policy.name();
        EXPECT_EQ(r.turnaround_quanta, 9.7104734576757537) << policy.name();
        EXPECT_EQ(r.quanta_executed, 10u) << policy.name();
        EXPECT_EQ(r.migrations, 0u) << policy.name();
        ASSERT_EQ(r.outcomes.size(), 4u) << policy.name();
        for (const TaskOutcome& out : r.outcomes)
            EXPECT_EQ(out.finish_quantum,
                      want_finish[static_cast<std::size_t>(out.slot_index)])
                << policy.name() << " slot " << out.slot_index;
    };
    LinuxPolicy linux_policy;
    run_with(linux_policy);
    core::SynpaPolicy synpa_policy{model::InterferenceModel::paper_table4()};
    run_with(synpa_policy);
}

TEST(Smt4, SingleThreadKeepsFullRobShare) {
    // Satellite fix: the ROB partitions by *active* threads, so one thread
    // on an SMT-4 core sees the whole window, and width does not matter.
    uarch::SimConfig cfg;
    cfg.smt_ways = 4;
    EXPECT_EQ(cfg.rob_share(1), cfg.rob_size);
    EXPECT_EQ(cfg.rob_share(2), cfg.rob_size / 2);
    EXPECT_EQ(cfg.rob_share(4), cfg.rob_size / 4);
    cfg.smt_ways = 2;
    EXPECT_EQ(cfg.rob_share(1), cfg.rob_size);
}

}  // namespace

// ---------- multi-chip platform ----------

namespace {

using namespace synpa;
using namespace synpa::sched;

TEST(Multichip, ObservedTopologyAndBalancing) {
    // Four tasks crowded onto chip 0 of a 2-chip/2-core platform: with a
    // negligible migration penalty the balancer must ship enough of them to
    // chip 1 to close the gap; with a prohibitive penalty it must not move
    // anything.
    std::vector<TaskObservation> obs;
    for (int t = 1; t <= 4; ++t) {
        TaskObservation o;
        o.task_id = t;
        o.core = (t - 1) / 2;  // chip 0 cores 0 and 1
        o.chip = 0;
        o.smt_ways = 2;
        o.num_chips = 2;
        o.total_cores = 4;
        obs.push_back(o);
    }
    const TopologyView topo = observed_topology(obs);
    EXPECT_EQ(topo.chips, 2);
    EXPECT_EQ(topo.cores_per_chip, 2);
    EXPECT_EQ(topo.capacity_per_chip(), 4);

    const matching::GroupCost costs = [](std::span<const int> group) {
        return group.size() == 1 ? 1.0 : 3.0;  // solo 1, any pair 3
    };
    const std::vector<int> moved = balance_across_chips(obs, topo, costs, 0.01);
    int on_chip1 = 0;
    for (const int c : moved) on_chip1 += c == 1;
    EXPECT_EQ(on_chip1, 2);  // 4/0 balances to 2/2

    const std::vector<int> kept = balance_across_chips(obs, topo, costs, 100.0);
    for (const int c : kept) EXPECT_EQ(c, 0);  // penalty forbids every move
}

TEST(Multichip, BalancerLeavesSoloCapableChipAlone) {
    // Regression: 4 tasks on the 4 cores of chip 0 of a 2-chip platform,
    // one per core — nobody co-runs, so there is no benefit to shipping
    // anyone across the socket.  The source-chip cost must count the task
    // itself as a resident (4 residents on 4 cores = everyone solo), not
    // price it at a phantom SMT pairing.
    std::vector<TaskObservation> obs;
    for (int t = 1; t <= 4; ++t) {
        TaskObservation o;
        o.task_id = t;
        o.core = t - 1;  // chip 0, one task per core
        o.chip = 0;
        o.smt_ways = 2;
        o.num_chips = 2;
        o.total_cores = 8;
        obs.push_back(o);
    }
    const TopologyView topo = observed_topology(obs);
    const matching::GroupCost costs = [](std::span<const int> group) {
        return group.size() == 1 ? 1.0 : 3.0;  // solo 1, any pair 3
    };
    const std::vector<int> target = balance_across_chips(obs, topo, costs, 0.01);
    for (const int c : target) EXPECT_EQ(c, 0);  // solo everywhere; no move pays
}

TEST(Multichip, ClosedSystemConservesTasksAcrossPolicies) {
    // 2 chips x 2 cores x 2 ways = 8 hardware threads: every policy must
    // drive the full platform to completion through the chip-qualified
    // global core ids, and the closed system must keep it saturated.
    uarch::SimConfig cfg;
    cfg.num_chips = 2;
    cfg.cores = 2;
    cfg.cycles_per_quantum = 4'000;

    const auto run_with = [&](AllocationPolicy& policy) {
        uarch::Platform platform(cfg);
        ThreadManager manager(platform, policy, golden_workload());
        const RunResult r = manager.run();
        EXPECT_TRUE(r.completed) << policy.name();
        EXPECT_EQ(r.outcomes.size(), 8u) << policy.name();
        EXPECT_EQ(platform.bound_tasks().size(), 8u) << policy.name();
        uarch::validate_platform(platform);
        return r;
    };

    LinuxPolicy linux_policy;
    const RunResult linux_run = run_with(linux_policy);
    EXPECT_EQ(linux_run.migrations, 0u);
    EXPECT_EQ(linux_run.cross_chip_migrations, 0u);

    RandomPolicy random_policy(5);
    const RunResult random_run = run_with(random_policy);
    EXPECT_GT(random_run.migrations, 0u);
    // Random shuffles the whole global core space, so some of its churn
    // crosses the chip boundary and pays the big penalty.
    EXPECT_GT(random_run.cross_chip_migrations, 0u);

    core::SynpaPolicy synpa_policy{model::InterferenceModel::paper_table4()};
    const RunResult synpa_run = run_with(synpa_policy);
    // The topology-aware decomposition keeps a balanced closed system's
    // regrouping within chips: informed migrations never pay cross-chip.
    EXPECT_EQ(synpa_run.cross_chip_migrations, 0u);
}

TEST(Multichip, CrossChipRebindDegradesIpcForConfiguredQuanta) {
    // The acceptance contract of the migration-cost model: after a
    // cross-chip rebind the task runs visibly slower for about
    // cross_chip_warmup_quanta quanta, then recovers; a same-chip rebind
    // of the control task costs (much) less.
    uarch::SimConfig cfg;
    cfg.num_chips = 2;
    cfg.cores = 2;
    cfg.cycles_per_quantum = 4'000;
    cfg.cross_chip_warmup_quanta = 2;
    cfg.cross_chip_miss_multiplier = 3.0;
    uarch::Platform platform(cfg);

    apps::AppInstance task(1, apps::find_app("mcf"), 7);
    platform.bind(task, {.core = 0, .slot = 0});
    const auto ipc_of_quantum = [&] {
        const std::uint64_t before = task.insts_retired();
        platform.run_quantum();
        return static_cast<double>(task.insts_retired() - before) /
               static_cast<double>(cfg.cycles_per_quantum);
    };
    double warm_ipc = 0.0;
    for (int q = 0; q < 6; ++q) warm_ipc = ipc_of_quantum();  // settle

    platform.unbind(1);
    platform.bind(task, {.core = 2, .slot = 0});  // chip 0 -> chip 1
    EXPECT_EQ(platform.cross_chip_migrations(), 1u);
    EXPECT_DOUBLE_EQ(task.warmup_multiplier(), 3.0);  // cold at peak

    // Regression: a cheap same-chip core move must not truncate the live
    // cross-chip window (caches are no warmer for having moved again).
    platform.unbind(1);
    platform.bind(task, {.core = 3, .slot = 0});  // another core of chip 1
    EXPECT_EQ(platform.cross_chip_migrations(), 1u);  // still only one
    EXPECT_DOUBLE_EQ(task.warmup_multiplier(), 3.0);  // window kept

    const double cold_ipc = ipc_of_quantum();
    EXPECT_LT(cold_ipc, 0.9 * warm_ipc);  // visibly degraded
    double recovered = 0.0;
    for (int q = 0; q < 6; ++q) recovered = ipc_of_quantum();
    EXPECT_DOUBLE_EQ(task.warmup_multiplier(), 1.0);  // window over
    EXPECT_GT(recovered, cold_ipc);

    platform.unbind(1);
}

// ---------- NodeLoop::bind validation ----------

/// One bind() input against six residents (ids 1..6) placed as
/// {1,2} {3,4} {5,6} {} on 2 chips x 2 cores x SMT-2.
struct BindRow {
    const char* name;
    bool full_groups;
    CoreAllocation alloc;
    const char* error;  ///< the exact std::runtime_error message, or nullptr
};

TEST(NodeLoopBind, RejectsEachMalformedAllocationByMessage) {
    uarch::SimConfig cfg;
    cfg.num_chips = 2;
    cfg.cores = 2;
    cfg.cycles_per_quantum = 2'000;

    CoreGroup gap;
    gap.tasks[1] = 5;  // {kNoTask, 5}: a task behind an empty slot
    const std::vector<BindRow> rows = {
        {"placed twice", false, {{1, 2}, {3, 4}, {5, 1}, {6}}, "bind: task placed twice"},
        {"live task missing", false, {{1, 2}, {3, 4}, {5, 7}, {}},
         "bind: allocation missing a live task"},
        {"too few placements", false, {{1, 2}, {3, 4}, {5}, {}},
         "bind: allocation must place every task once"},
        {"gap group", false, {{1, 2}, {3, 4}, gap, {6}}, "bind: malformed group"},
        {"negative id", false, {{1, 2}, {3, 4}, {5, -2}, {6}}, "bind: malformed group"},
        {"wider than SMT", false, {{1, 2, 3}, {4}, {5, 6}, {}},
         "bind: group exceeds the chip's SMT width"},
        {"underfilled closed core", true, {{1, 2}, {3, 4}, {5, 6}, {}},
         "bind: idle or underfilled core in a closed system"},
        {"more groups than cores", false, {{1, 2}, {3, 4}, {5, 6}, {}, {}},
         "bind: allocation exceeds core count"},
        // 5 moves chip 1 -> 0, 3 and 4 chip 0 -> 1, 6 to another core of
        // chip 1; 1 and 2 stay.
        {"valid", false, {{1, 2}, {5}, {3, 4}, {6}}, nullptr},
    };

    for (const BindRow& row : rows) {
        SCOPED_TRACE(row.name);
        uarch::Platform platform(cfg);
        LinuxPolicy policy;
        NodeLoop loop(platform, policy, nullptr, row.full_groups);
        for (int id = 1; id <= 6; ++id) {
            auto task = std::make_unique<apps::AppInstance>(id, apps::find_app("mcf"), 7);
            platform.bind(*task, {.core = (id - 1) / 2, .slot = (id - 1) % 2});
            loop.add({.task = std::move(task), .app_name = "mcf", .slot_index = id - 1});
        }
        if (row.error == nullptr) {
            const BindStats stats = loop.bind(row.alloc);
            EXPECT_EQ(stats.migrations, 4u);
            EXPECT_EQ(stats.cross_chip, 3u);
            EXPECT_EQ(platform.placement(5).core, 1);
            EXPECT_EQ(platform.placement(4).core, 2);
            EXPECT_EQ(platform.placement(6).core, 3);
            continue;
        }
        try {
            loop.bind(row.alloc);
            ADD_FAILURE() << "bind accepted the allocation";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), row.error);
        }
    }
}

}  // namespace

// ---------- Step-3 knob validation ----------

namespace {

using namespace synpa;
using namespace synpa::sched;

/// The knobs SYNPA's and the oracle's Step 3 run on, one row at a time.
struct Step3Knobs {
    core::SynpaPolicy::Options synpa;
    double oracle_penalty = kDefaultCrossChipPenalty;
};

struct KnobRow {
    const char* field;  ///< what the error must name
    double value;
    bool valid;
    void (*set)(Step3Knobs&, double);
};

void set_ema_alpha(Step3Knobs& k, double v) { k.synpa.estimator.ema_alpha = v; }
void set_stability_bias(Step3Knobs& k, double v) { k.synpa.stability_bias = v; }
void set_keep_threshold(Step3Knobs& k, double v) { k.synpa.keep_threshold = v; }
void set_synpa_penalty(Step3Knobs& k, double v) { k.synpa.cross_chip_penalty = v; }
void set_oracle_penalty(Step3Knobs& k, double v) { k.oracle_penalty = v; }
void set_inversion_iterations(Step3Knobs& k, double v) {
    k.synpa.estimator.inversion.max_iterations = static_cast<int>(v);
}
void set_inversion_tolerance(Step3Knobs& k, double v) {
    k.synpa.estimator.inversion.tolerance = v;
}
void set_inversion_damping(Step3Knobs& k, double v) { k.synpa.estimator.inversion.damping = v; }

TEST(Step3KnobValidation, BadValuesThrowNamingTheFieldAndBoundaryValuesRun) {
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kTiny = std::numeric_limits<double>::min();
    const KnobRow rows[] = {
        {"SynpaEstimator::Options::ema_alpha", kNan, false, set_ema_alpha},
        {"SynpaEstimator::Options::ema_alpha", 3.0, false, set_ema_alpha},
        {"SynpaEstimator::Options::ema_alpha", 0.0, false, set_ema_alpha},
        {"SynpaEstimator::Options::ema_alpha", 1.0, true, set_ema_alpha},
        {"SynpaPolicy::Options::stability_bias", -1.0, false, set_stability_bias},
        {"SynpaPolicy::Options::stability_bias", kInf, false, set_stability_bias},
        {"SynpaPolicy::Options::stability_bias", 0.0, true, set_stability_bias},
        {"SynpaPolicy::Options::keep_threshold", kNan, false, set_keep_threshold},
        {"SynpaPolicy::Options::keep_threshold", -0.5, false, set_keep_threshold},
        {"SynpaPolicy::Options::keep_threshold", 0.0, true, set_keep_threshold},
        {"SynpaPolicy::Options::cross_chip_penalty", kNan, false, set_synpa_penalty},
        {"SynpaPolicy::Options::cross_chip_penalty", -0.5, false, set_synpa_penalty},
        {"SynpaPolicy::Options::cross_chip_penalty", 0.0, true, set_synpa_penalty},
        {"SynpaPolicy::Options::cross_chip_penalty", kInf, true, set_synpa_penalty},
        {"OraclePolicy: cross_chip_penalty", kNan, false, set_oracle_penalty},
        {"OraclePolicy: cross_chip_penalty", -0.5, false, set_oracle_penalty},
        {"OraclePolicy: cross_chip_penalty", 0.0, true, set_oracle_penalty},
        {"OraclePolicy: cross_chip_penalty", kInf, true, set_oracle_penalty},
        {"ModelInverter::Options::max_iterations", 0.0, false, set_inversion_iterations},
        {"ModelInverter::Options::max_iterations", -3.0, false, set_inversion_iterations},
        {"ModelInverter::Options::max_iterations", 1.0, true, set_inversion_iterations},
        {"ModelInverter::Options::tolerance", 0.0, false, set_inversion_tolerance},
        {"ModelInverter::Options::tolerance", -1e-7, false, set_inversion_tolerance},
        {"ModelInverter::Options::tolerance", kNan, false, set_inversion_tolerance},
        {"ModelInverter::Options::tolerance", kInf, false, set_inversion_tolerance},
        {"ModelInverter::Options::tolerance", kTiny, true, set_inversion_tolerance},
        {"ModelInverter::Options::damping", 0.0, false, set_inversion_damping},
        {"ModelInverter::Options::damping", -0.5, false, set_inversion_damping},
        {"ModelInverter::Options::damping", kNan, false, set_inversion_damping},
        {"ModelInverter::Options::damping", 1.5, false, set_inversion_damping},
        {"ModelInverter::Options::damping", 1.0, true, set_inversion_damping},
        {"ModelInverter::Options::damping", kTiny, true, set_inversion_damping},
    };
    // Two chips, so the penalty rows reach the balancing pass.
    uarch::SimConfig cfg;
    cfg.num_chips = 2;
    cfg.cores = 2;
    cfg.cycles_per_quantum = 4'000;
    const char* apps[] = {"nab_r", "mcf", "gobmk", "bwaves"};
    std::vector<TaskSpec> specs;
    specs.reserve(8);
    for (std::uint64_t i = 0; i < 8; ++i)
        specs.push_back({.app_name = apps[i % 4], .seed = 1 + i, .target_insts = 20'000});
    const auto build_and_run = [&](const Step3Knobs& k) {
        const model::InterferenceModel m = model::InterferenceModel::paper_table4();
        core::SynpaPolicy synpa(m, k.synpa);
        OraclePolicy oracle(m, k.oracle_penalty);
        for (AllocationPolicy* policy : {static_cast<AllocationPolicy*>(&synpa),
                                         static_cast<AllocationPolicy*>(&oracle)}) {
            uarch::Platform platform(cfg);
            EXPECT_TRUE(ThreadManager(platform, *policy, specs).run().completed);
        }
    };
    for (const KnobRow& row : rows) {
        Step3Knobs knobs;
        row.set(knobs, row.value);
        const std::string label = std::string(row.field) + " = " + std::to_string(row.value);
        if (row.valid) {
            EXPECT_NO_THROW(build_and_run(knobs)) << label;
            continue;
        }
        try {
            build_and_run(knobs);
            ADD_FAILURE() << label << " did not throw";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos)
                << label << ": " << e.what();
        }
    }
}

}  // namespace
