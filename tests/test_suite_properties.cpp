// Property tests over the whole 28-application suite: per-application
// invariants that must hold for any profile (counter identities, IPC
// bounds, SMT costs), parameterized so every application is checked
// individually.
#include <gtest/gtest.h>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "model/categories.hpp"
#include "model/trainer.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

uarch::SimConfig prop_config() {
    uarch::SimConfig cfg;
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

std::vector<std::string> suite_names() {
    std::vector<std::string> names;
    for (const auto& app : apps::spec_suite()) names.push_back(app.name);
    return names;
}

class PerApplication : public ::testing::TestWithParam<std::string> {};

TEST_P(PerApplication, IsolatedCounterIdentity) {
    uarch::SimConfig cfg = prop_config();
    cfg.cores = 1;
    uarch::Platform platform(cfg);
    apps::AppInstance task(1, apps::find_app(GetParam()), 3);
    platform.bind(task, {.core = 0, .slot = 0});
    for (int q = 0; q < 6; ++q) platform.run_quantum();

    const auto b = model::characterize(task.counters(), cfg.dispatch_width);
    // The three categories tile the execution exactly.
    EXPECT_NEAR(b.categories[0] + b.categories[1] + b.categories[2],
                static_cast<double>(b.cycles), 1e-6);
    // Stall counters never overlap past total cycles.
    EXPECT_LE(task.counters().value(pmu::Event::kStallFrontend) +
                  task.counters().value(pmu::Event::kStallBackend),
              task.counters().value(pmu::Event::kCpuCycles));
    // INST_SPEC includes wrong-path work, so it can only exceed retirement.
    EXPECT_GE(task.counters().value(pmu::Event::kInstSpec),
              task.counters().value(pmu::Event::kInstRetired) -
                  0);  // spec >= retired by construction
    EXPECT_EQ(task.counters().value(pmu::Event::kInstRetired), task.insts_retired());
}

TEST_P(PerApplication, IsolatedIpcWithinDispatchBounds) {
    const model::IsolatedProfile prof =
        model::profile_isolated(apps::find_app(GetParam()), prop_config(), 8, 5);
    EXPECT_GT(prof.ipc(), 0.05);
    EXPECT_LE(prof.ipc(), 4.0);  // dispatch width is the hard ceiling
}

TEST_P(PerApplication, SmtWithSelfCostsThroughput) {
    // Running two instances of the same application on one core must cost
    // each of them throughput relative to isolated execution.
    uarch::SimConfig cfg = prop_config();
    cfg.cores = 1;
    const model::IsolatedProfile prof =
        model::profile_isolated(apps::find_app(GetParam()), cfg, 10, 7);

    uarch::Platform platform(cfg);
    apps::AppInstance a(1, apps::find_app(GetParam()), 7);
    apps::AppInstance b(2, apps::find_app(GetParam()), 8);
    platform.bind(a, {.core = 0, .slot = 0});
    platform.bind(b, {.core = 0, .slot = 1});
    for (int q = 0; q < 10; ++q) platform.run_quantum();

    const double ipc_a = model::characterize(a.counters(), cfg.dispatch_width).ipc();
    EXPECT_LT(ipc_a, prof.ipc() * 1.01) << "SMT should not beat isolated";
    // And the slowdown stays within the physically sensible range.
    EXPECT_GT(ipc_a, prof.ipc() * 0.2) << "SMT should not be 5x slower either";
}

INSTANTIATE_TEST_SUITE_P(AllSuiteApps, PerApplication, ::testing::ValuesIn(suite_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (c == '-' || c == '.') c = '_';
                             return name;
                         });

}  // namespace
