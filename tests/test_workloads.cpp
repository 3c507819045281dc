// Tests for workload construction and the measurement methodology,
// including the Table III calibration of the whole suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "apps/spec_suite.hpp"
#include "common/thread_pool.hpp"
#include "sched/baselines.hpp"
#include "workloads/groups.hpp"
#include "workloads/methodology.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace synpa;
using namespace synpa::workloads;

uarch::SimConfig test_config() {
    uarch::SimConfig cfg;
    cfg.cycles_per_quantum = 5'000;
    return cfg;
}

TEST(Groups, ClassifyThresholds) {
    EXPECT_EQ(classify({0.2, 0.1, 0.7}), Group::kBackendBound);
    EXPECT_EQ(classify({0.3, 0.4, 0.3}), Group::kFrontendBound);
    EXPECT_EQ(classify({0.5, 0.2, 0.3}), Group::kOther);
    // Boundary: exactly at threshold is NOT in the bound group.
    EXPECT_EQ(classify({0.0, 0.35, 0.65}), Group::kOther);
}

TEST(Groups, GroupNames) {
    EXPECT_STREQ(group_name(Group::kBackendBound), "backend-bound");
    EXPECT_STREQ(group_name(Group::kFrontendBound), "frontend-bound");
    EXPECT_STREQ(group_name(Group::kOther), "others");
}

TEST(Groups, TrainingSplitIsTwentyTwoPlusSix) {
    const auto train = training_apps();
    const auto hold = holdout_apps();
    EXPECT_EQ(train.size(), 22u);
    EXPECT_EQ(hold.size(), 6u);
    std::set<std::string> all(train.begin(), train.end());
    for (const auto& h : hold) EXPECT_TRUE(all.insert(h).second) << h << " in both sets";
    EXPECT_EQ(all.size(), 28u);
    for (const auto& name : all) EXPECT_TRUE(apps::has_app(name)) << name;
}

// The calibration test: the suite's isolated characterization must land in
// the paper's Table III groups, app by app.
TEST(Calibration, SuiteMatchesPaperTableThree) {
    const std::map<std::string, Group> expected = {
        {"cactuBSSN_r", Group::kBackendBound}, {"lbm_r", Group::kBackendBound},
        {"mcf", Group::kBackendBound},         {"milc", Group::kBackendBound},
        {"xalancbmk_r", Group::kBackendBound}, {"wrf_r", Group::kBackendBound},
        {"astar", Group::kFrontendBound},      {"gobmk", Group::kFrontendBound},
        {"leela_r", Group::kFrontendBound},    {"mcf_r", Group::kFrontendBound},
        {"perlbench", Group::kFrontendBound},
    };
    const auto chars = characterize_suite(test_config(), 40, 42);
    ASSERT_EQ(chars.size(), 28u);
    for (const auto& c : chars) {
        const auto it = expected.find(c.name);
        const Group want = it == expected.end() ? Group::kOther : it->second;
        EXPECT_EQ(c.group, want) << c.name << " FD/FE/BE = " << c.fractions[0] << "/"
                                 << c.fractions[1] << "/" << c.fractions[2];
        EXPECT_GT(c.ipc, 0.0);
    }
}

TEST(Calibration, OthersFullDispatchSpreadMatchesPaper) {
    // Paper: Others range from ~20% (hmmer) to ~61.4% (nab_r) full dispatch.
    const auto chars = characterize_suite(test_config(), 40, 42);
    double hmmer_fd = 0, nab_fd = 0;
    for (const auto& c : chars) {
        if (c.name == "hmmer") hmmer_fd = c.fractions[0];
        if (c.name == "nab_r") nab_fd = c.fractions[0];
    }
    EXPECT_NEAR(hmmer_fd, 0.20, 0.05);
    EXPECT_NEAR(nab_fd, 0.614, 0.06);
    for (const auto& c : chars)
        if (c.group == Group::kOther) {
            EXPECT_GE(c.fractions[0], hmmer_fd - 0.03) << c.name;
            EXPECT_LE(c.fractions[0], nab_fd + 0.03) << c.name;
        }
}

TEST(Calibration, CalibrateSuiteFillsPhaseCategories) {
    calibrate_suite(test_config(), 6, 1);
    for (const auto& app : apps::spec_suite()) {
        ASSERT_EQ(app.phase_categories.size(), app.phases.size()) << app.name;
        for (const auto& cats : app.phase_categories)
            EXPECT_NEAR(cats[0] + cats[1] + cats[2], 1.0, 1e-6) << app.name;
    }
}

TEST(Workloads, PinnedSpecsMatchThePaper) {
    const WorkloadSpec fb2 = paper_fb2();
    const std::vector<std::string> expected = {"lbm_r",   "mcf",     "cactuBSSN_r", "mcf",
                                               "leela_r", "leela_r", "astar",       "mcf_r"};
    EXPECT_EQ(fb2.app_names, expected);
    EXPECT_EQ(paper_be1().app_names.size(), 8u);
    EXPECT_EQ(paper_fe2().app_names.size(), 8u);
    // fe2 contains leela_r three times (sampling with replacement).
    int leelas = 0;
    for (const auto& a : paper_fe2().app_names) leelas += a == "leela_r";
    EXPECT_EQ(leelas, 3);
}

TEST(Workloads, TwentyWorkloadsWithCorrectComposition) {
    const auto chars = characterize_suite(test_config(), 40, 42);
    const auto specs = paper_workloads(chars, 42);
    ASSERT_EQ(specs.size(), 20u);

    std::map<std::string, Group> group_of;
    for (const auto& c : chars) group_of[c.name] = c.group;

    int be_count = 0, fe_count = 0, fb_count = 0;
    for (const auto& spec : specs) {
        ASSERT_EQ(spec.app_names.size(), 8u) << spec.name;
        for (const auto& a : spec.app_names) EXPECT_TRUE(apps::has_app(a));
        int be = 0, fe = 0;
        for (const auto& a : spec.app_names) {
            be += group_of[a] == Group::kBackendBound;
            fe += group_of[a] == Group::kFrontendBound;
        }
        if (spec.name.starts_with("be")) {
            ++be_count;
            EXPECT_GE(be, 5) << spec.name;  // 5-6 backend-bound apps
            EXPECT_LE(be, 6) << spec.name;
        } else if (spec.name.starts_with("fe")) {
            ++fe_count;
            EXPECT_GE(fe, 5) << spec.name;
            EXPECT_LE(fe, 6) << spec.name;
        } else {
            ++fb_count;
            EXPECT_EQ(be, 4) << spec.name;  // mixed: half and half
            EXPECT_EQ(fe, 4) << spec.name;
        }
    }
    EXPECT_EQ(be_count, 5);
    EXPECT_EQ(fe_count, 5);
    EXPECT_EQ(fb_count, 10);
}

TEST(Workloads, GenerationIsDeterministicInSeed) {
    const auto chars = characterize_suite(test_config(), 40, 42);
    const auto a = paper_workloads(chars, 7);
    const auto b = paper_workloads(chars, 7);
    const auto c = paper_workloads(chars, 8);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].app_names, b[i].app_names);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].app_names != c[i].app_names) any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(Workloads, LookupByName) {
    const auto chars = characterize_suite(test_config(), 40, 42);
    const auto specs = paper_workloads(chars, 42);
    EXPECT_EQ(workload_by_name(specs, "fb2").name, "fb2");
    EXPECT_THROW(workload_by_name(specs, "zz9"), std::out_of_range);
}

TEST(Methodology, PrepareFillsTargetsAndIpc) {
    uarch::SimConfig cfg = test_config();
    MethodologyOptions opts;
    opts.target_isolated_quanta = 12;
    const PreparedWorkload prepared = prepare_workload(paper_fb2(), cfg, opts, 0);
    ASSERT_EQ(prepared.tasks.size(), 8u);
    for (const auto& t : prepared.tasks) {
        EXPECT_GT(t.target_insts, 0u);
        EXPECT_GT(t.isolated_ipc, 0.0);
        EXPECT_LT(t.isolated_ipc, 4.0);
    }
    // The two leela_r slots have different seeds, hence different targets.
    EXPECT_NE(prepared.tasks[4].seed, prepared.tasks[5].seed);
}

TEST(Methodology, WorkloadSizeMustFillChip) {
    uarch::SimConfig cfg = test_config();
    cfg.cores = 2;  // 4 threads, but the workload has 8 apps
    MethodologyOptions opts;
    EXPECT_THROW(prepare_workload(paper_fb2(), cfg, opts, 0), std::invalid_argument);
}

TEST(Methodology, RunWorkloadAggregatesRepetitions) {
    uarch::SimConfig cfg = test_config();
    MethodologyOptions opts;
    opts.reps = 2;
    opts.target_isolated_quanta = 10;
    opts.record_traces = false;
    const PolicyFactory linux_factory = [](std::uint64_t) {
        return std::make_unique<sched::LinuxPolicy>();
    };
    const RepeatedResult r = run_workload(paper_fb2(), cfg, linux_factory, opts);
    EXPECT_EQ(r.workload, "fb2");
    EXPECT_EQ(r.policy, "linux");
    EXPECT_GE(r.turnaround_samples.size(), 1u);
    EXPECT_LE(r.turnaround_samples.size(), 2u);
    EXPECT_GT(r.mean_metrics.turnaround_quanta, 10.0);
    EXPECT_GT(r.mean_metrics.fairness, 0.0);
    EXPECT_LE(r.mean_metrics.fairness, 1.0);
    EXPECT_TRUE(r.exemplar.completed);
}

TEST(Methodology, OptionsRejectBadValuesByFieldName) {
    // One row per bad value: it throws naming the field from every entry
    // point that takes the options, before any simulation; the row's
    // boundary-good value runs a whole (tiny) repetition.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    struct Row {
        const char* field;
        void (*bad)(MethodologyOptions&);
        void (*good)(MethodologyOptions&);
    };
    const Row rows[] = {
        {"reps", [](MethodologyOptions& o) { o.reps = 0; },
         [](MethodologyOptions& o) { o.reps = 1; }},
        {"target_isolated_quanta", [](MethodologyOptions& o) { o.target_isolated_quanta = 0; },
         [](MethodologyOptions& o) { o.target_isolated_quanta = 1; }},
        {"max_quanta", [](MethodologyOptions& o) { o.max_quanta = 0; },
         [](MethodologyOptions& o) { o.max_quanta = 1; }},
        // A negative knob value cast to the unsigned field.
        {"target_isolated_quanta",
         [](MethodologyOptions& o) { o.target_isolated_quanta = static_cast<std::uint64_t>(-1); },
         [](MethodologyOptions& o) { o.target_isolated_quanta = 1; }},
        {"max_quanta",
         [](MethodologyOptions& o) { o.max_quanta = static_cast<std::uint64_t>(-5); },
         [](MethodologyOptions& o) { o.max_quanta = 1; }},
        {"cv_limit", [](MethodologyOptions& o) { o.cv_limit = kNaN; },
         [](MethodologyOptions& o) { o.cv_limit = 0.0; }},
        {"cv_limit", [](MethodologyOptions& o) { o.cv_limit = -0.01; },
         [](MethodologyOptions& o) { o.cv_limit = std::numeric_limits<double>::infinity(); }},
    };
    uarch::SimConfig cfg = test_config();
    cfg.cycles_per_quantum = 1'000;
    const PolicyFactory linux_factory = [](std::uint64_t) {
        return std::make_unique<sched::LinuxPolicy>();
    };
    const auto small = [] {
        MethodologyOptions o;
        o.reps = 1;
        o.target_isolated_quanta = 4;
        o.max_quanta = 200;
        o.record_traces = false;
        return o;
    };
    const PreparedWorkload prepared = prepare_workload(paper_fb2(), cfg, small(), 0);
    for (const Row& row : rows) {
        const std::string field = std::string("MethodologyOptions::") + row.field;
        MethodologyOptions bad = small();
        row.bad(bad);
        const auto expect_rejected = [&](const char* entry, auto&& call) {
            try {
                call();
                ADD_FAILURE() << entry << " accepted a bad " << field;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                    << entry << ": " << e.what();
            }
        };
        expect_rejected("prepare_workload", [&] { prepare_workload(paper_fb2(), cfg, bad, 0); });
        expect_rejected("run_workload_once", [&] {
            sched::LinuxPolicy policy;
            run_workload_once(prepared, cfg, policy, bad);
        });
        expect_rejected("run_workload",
                        [&] { run_workload(paper_fb2(), cfg, linux_factory, bad); });

        MethodologyOptions good = small();
        row.good(good);
        const RepeatedResult r = run_workload(paper_fb2(), cfg, linux_factory, good);
        EXPECT_GE(r.turnaround_samples.size(), 1u) << field;
    }

    // `threads` (and SYNPA_BENCH_THREADS, the benches' source for it) is
    // checked through validate() and the env reader only: a run at the
    // ceiling would start that many pool threads.
    const auto expect_named = [](const std::string& name, auto&& call) {
        try {
            call();
            ADD_FAILURE() << "accepted a bad " << name;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
        }
    };
    constexpr std::size_t kMax = synpa::common::kMaxThreads;
    for (const std::size_t threads : {kMax + 1, static_cast<std::size_t>(-1)}) {
        MethodologyOptions bad = small();
        bad.threads = threads;
        expect_named("MethodologyOptions::threads", [&] { bad.validate(); });
    }
    MethodologyOptions good = small();
    good.threads = kMax;
    EXPECT_NO_THROW(good.validate());
    for (const std::string& value : {std::string("-1"), std::to_string(kMax + 1)}) {
        ::setenv("SYNPA_BENCH_THREADS", value.c_str(), 1);
        expect_named("SYNPA_BENCH_THREADS", [] { bench_threads_from_env(); });
    }
    ::setenv("SYNPA_BENCH_THREADS", std::to_string(kMax).c_str(), 1);
    EXPECT_EQ(bench_threads_from_env(), kMax);
    ::unsetenv("SYNPA_BENCH_THREADS");
    EXPECT_EQ(bench_threads_from_env(), 0u);
}

}  // namespace
