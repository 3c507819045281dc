// Tests for the string-keyed policy registry (sched/registry.hpp): lookup
// and error behaviour, plus a parameterized sweep instantiating *every*
// registered policy by name and driving it through a small closed run
// (ThreadManager) and open scenario at SMT widths 2 and 4, checking task
// conservation and run determinism.  A policy that can be named can be run — nothing in the
// registry is allowed to be wiring-only.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "model/interference_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/thread_manager.hpp"
#include "signatures.hpp"
#include "uarch/platform.hpp"
#include "workloads/groups.hpp"

namespace {

using namespace synpa;

uarch::SimConfig test_config(int smt_ways) {
    uarch::SimConfig cfg;
    cfg.cores = smt_ways == 4 ? 2 : 4;  // 8 hardware threads either way
    cfg.smt_ways = smt_ways;
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

sched::PolicyConfig test_policy_config(std::uint64_t seed = 11) {
    sched::PolicyConfig config;
    config.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    config.seed = seed;
    return config;
}

std::vector<sched::TaskSpec> closed_specs() {
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

scenario::ScenarioSpec open_spec() {
    scenario::ScenarioSpec spec;
    spec.name = "registry-open";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.initial_tasks = 4;
    spec.arrival_rate = 0.4;
    spec.service_quanta = 6;
    spec.horizon_quanta = 30;
    spec.seed = 5;
    return spec;
}

/// The oracle policy needs calibrated per-phase categories.  Phase truth is
/// process-wide and the first calibrate_suite call wins, so the suite is
/// calibrated once, at SMT-2, for both widths.
void ensure_calibrated() {
    static std::once_flag once;
    std::call_once(once, [] { workloads::calibrate_suite(test_config(2), 4, 1); });
}


class RegistryPolicyTest : public ::testing::TestWithParam<sched::PolicyInfo> {};

TEST(PolicyRegistry, TableAndLookup) {
    const auto policies = sched::registered_policies();
    ASSERT_FALSE(policies.empty());
    std::set<std::string> names;
    for (const sched::PolicyInfo& info : policies) {
        EXPECT_TRUE(names.insert(std::string(info.name)).second)
            << "duplicate registry entry: " << info.name;
        EXPECT_EQ(sched::find_policy(info.name), &info);
        EXPECT_FALSE(info.objective.empty());
    }
    EXPECT_NE(sched::find_policy("synpa"), nullptr);
    EXPECT_EQ(sched::find_policy("definitely-not-a-policy"), nullptr);
}

TEST(PolicyRegistry, UnknownNameThrowsWithInventory) {
    try {
        sched::make_policy("nope", test_policy_config());
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        // The message must teach the caller the valid names.
        EXPECT_NE(std::string(e.what()).find("synpa-adaptive"), std::string::npos);
    }
}

TEST(PolicyRegistry, ModelRequiredForModelBasedPolicies) {
    sched::PolicyConfig no_model;
    for (const sched::PolicyInfo& info : sched::registered_policies()) {
        if (info.needs_model) {
            EXPECT_THROW(sched::make_policy(info.name, no_model), std::invalid_argument)
                << info.name;
        } else {
            EXPECT_NE(sched::make_policy(info.name, no_model), nullptr) << info.name;
        }
    }
}

TEST(PolicyRegistry, AdaptiveFlagMatchesOnlineInterface) {
    for (const sched::PolicyInfo& info : sched::registered_policies()) {
        const auto policy = sched::make_policy(info.name, test_policy_config());
        const bool online = dynamic_cast<sched::OnlinePolicy*>(policy.get()) != nullptr;
        EXPECT_EQ(online, info.adaptive) << info.name;
    }
}

TEST_P(RegistryPolicyTest, RunsClosedAndOpenAtBothWidthsDeterministically) {
    const sched::PolicyInfo info = GetParam();
    for (const int width : {2, 4}) {
        const uarch::SimConfig cfg = test_config(width);
        ensure_calibrated();

        // Closed: the paper's methodology shape (full chip, relaunches).
        const std::vector<sched::TaskSpec> specs = closed_specs();
        std::vector<std::string> closed_signatures;
        for (int run = 0; run < 2; ++run) {
            uarch::Platform platform(cfg);
            const auto policy = sched::make_policy(info.name, test_policy_config());
            sched::ThreadManager manager(platform, *policy, specs, {.max_quanta = 3'000});
            const sched::RunResult result = manager.run();

            // Conservation: every slot reports its original task once.
            ASSERT_EQ(result.outcomes.size(), specs.size()) << info.name << " width " << width;
            EXPECT_TRUE(result.completed) << info.name << " width " << width;
            std::set<int> slots;
            for (const sched::TaskOutcome& out : result.outcomes) {
                EXPECT_TRUE(slots.insert(out.slot_index).second)
                    << "duplicate slot under " << info.name;
                EXPECT_GE(out.finish_quantum, 0.0);
            }
            closed_signatures.push_back(testsig::signature(result));
        }
        EXPECT_EQ(closed_signatures[0], closed_signatures[1])
            << info.name << " width " << width << " is nondeterministic (closed)";

        // Open: Poisson arrivals with queueing and partial allocations.
        const scenario::ScenarioTrace open = scenario::build_trace(open_spec(), cfg);
        std::vector<std::string> signatures;
        for (int run = 0; run < 2; ++run) {
            uarch::Platform platform(cfg);
            const auto policy = sched::make_policy(info.name, test_policy_config());
            scenario::ScenarioRunner runner(platform, *policy, open, {.max_quanta = 3'000});
            const scenario::ScenarioResult result = runner.run();

            // Conservation: every planned task is accounted for, and
            // completed tasks carry consistent bookkeeping.
            ASSERT_EQ(result.tasks.size(), open.tasks.size()) << info.name << " width " << width;
            EXPECT_TRUE(result.completed) << info.name << " width " << width;
            std::set<int> ids;
            for (const scenario::TaskRecord& rec : result.tasks) {
                if (!rec.completed) continue;
                EXPECT_TRUE(ids.insert(rec.task_id).second)
                    << "duplicate task id under " << info.name;
                EXPECT_GE(rec.finish_quantum, 0.0);
                EXPECT_GE(rec.turnaround_quanta, 0.0);
            }
            EXPECT_EQ(ids.size(), result.completed_tasks);
            EXPECT_EQ(result.adaptive, info.adaptive) << info.name;
            signatures.push_back(testsig::signature(result));
        }
        // Determinism: identical trace + fresh policy => identical run.
        EXPECT_EQ(signatures[0], signatures[1])
            << info.name << " width " << width << " is nondeterministic (open)";
    }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredPolicies, RegistryPolicyTest,
                         ::testing::ValuesIn(sched::registered_policies().begin(),
                                             sched::registered_policies().end()),
                         [](const ::testing::TestParamInfo<sched::PolicyInfo>& info) {
                             std::string name(info.param.name);
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });

}  // namespace
