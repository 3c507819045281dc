// Campaign-engine tests: thread-count determinism, artifact memoization
// (the trainer runs exactly once), grid-order aggregator streaming, the
// methodology wrappers' equivalence with a hand-built campaign, and per-rep
// flight recording on every grid runner.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/thread_pool.hpp"
#include "exp/aggregators.hpp"
#include "exp/artifact_cache.hpp"
#include "exp/campaign.hpp"
#include "exp/fleet_grid.hpp"
#include "exp/scenario_grid.hpp"
#include "fleet/metrics.hpp"
#include "obs/export.hpp"
#include "scenario/scenario.hpp"
#include "sched/baselines.hpp"
#include "uarch/platform.hpp"
#include "workloads/methodology.hpp"

namespace {

using namespace synpa;

uarch::SimConfig small_config() {
    uarch::SimConfig cfg;
    cfg.cores = 2;                   // 4-slot workloads
    cfg.cycles_per_quantum = 4'000;  // short quanta keep the grid fast
    return cfg;
}

workloads::MethodologyOptions fast_methodology() {
    workloads::MethodologyOptions opts;
    opts.reps = 2;
    opts.seed = 7;
    opts.target_isolated_quanta = 10;
    opts.max_quanta = 2'000;
    return opts;
}

/// 2 workloads x 2 policies x 2 reps, no training needed.
exp::Campaign small_campaign() {
    exp::Campaign campaign;
    campaign.name = "test-grid";
    campaign.configs = {small_config()};
    campaign.workloads = {
        {"wa", {"mcf", "leela_r", "hmmer", "astar"}},
        {"wb", {"lbm_r", "gobmk", "nab_r", "mcf_r"}},
    };
    campaign.policies = {
        exp::policy("linux",
                    [](std::uint64_t) { return std::make_unique<sched::LinuxPolicy>(); }),
        exp::policy("random",
                    [](std::uint64_t s) { return std::make_unique<sched::RandomPolicy>(s); }),
    };
    campaign.methodology = fast_methodology();
    return campaign;
}

TEST(Campaign, ResultsAreIdenticalForOneAndManyThreads) {
    const exp::Campaign campaign = small_campaign();

    exp::ArtifactCache cache_serial, cache_parallel;
    exp::CampaignRunner serial({.threads = 1}, &cache_serial);
    exp::CampaignRunner parallel({.threads = 8}, &cache_parallel);
    const exp::CampaignResult a = serial.run(campaign);
    const exp::CampaignResult b = parallel.run(campaign);

    ASSERT_EQ(a.cells.size(), 4u);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const exp::CellResult& ca = a.cells[i];
        const exp::CellResult& cb = b.cells[i];
        EXPECT_EQ(ca.workload, cb.workload);
        EXPECT_EQ(ca.policy, cb.policy);
        ASSERT_EQ(ca.result.turnaround_samples.size(), cb.result.turnaround_samples.size());
        for (std::size_t s = 0; s < ca.result.turnaround_samples.size(); ++s)
            EXPECT_EQ(ca.result.turnaround_samples[s], cb.result.turnaround_samples[s]);
        EXPECT_EQ(ca.result.mean_metrics.turnaround_quanta,
                  cb.result.mean_metrics.turnaround_quanta);
        EXPECT_EQ(ca.result.mean_metrics.fairness, cb.result.mean_metrics.fairness);
        EXPECT_EQ(ca.result.mean_metrics.ipc_geomean, cb.result.mean_metrics.ipc_geomean);
        EXPECT_EQ(ca.result.mean_metrics.antt, cb.result.mean_metrics.antt);
        EXPECT_EQ(ca.result.exemplar.turnaround_quanta, cb.result.exemplar.turnaround_quanta);
        EXPECT_EQ(ca.result.exemplar.migrations, cb.result.exemplar.migrations);
    }
}

TEST(Campaign, CellsArriveInGridOrder) {
    struct Recorder final : exp::Aggregator {
        std::vector<std::string> seen;
        bool finished = false;
        void on_cell(const exp::CellResult& cell) override {
            seen.push_back(cell.workload + "/" + cell.policy);
        }
        void finish() override { finished = true; }
    };
    Recorder recorder;
    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 8}, &cache);
    runner.run(small_campaign(), {&recorder});
    const std::vector<std::string> expected = {"wa/linux", "wa/random", "wb/linux",
                                               "wb/random"};
    EXPECT_EQ(recorder.seen, expected);
    EXPECT_TRUE(recorder.finished);
}

TEST(Campaign, PreparedWorkloadsAreMemoizedAcrossPoliciesAndRuns) {
    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 4}, &cache);
    const exp::Campaign campaign = small_campaign();
    runner.run(campaign);
    // 2 workloads x 2 reps distinct (spec, rep) keys; the two policy columns
    // share them.
    EXPECT_EQ(cache.stats().prepared_builds, 4u);
    runner.run(campaign);
    EXPECT_EQ(cache.stats().prepared_builds, 4u);  // second run: all hits
    EXPECT_GT(cache.stats().hits, 0u);
}

TEST(ArtifactCache, TrainerRunsExactlyOnceAcrossRepeatedRequests) {
    const uarch::SimConfig cfg = small_config();
    model::TrainerOptions topts;
    topts.isolated_quanta = 16;
    topts.pair_quanta = 6;
    topts.warmup_quanta = 1;
    topts.seed = 3;
    const std::vector<std::string> apps = {"mcf", "leela_r", "hmmer"};

    exp::ArtifactCache cache;
    const auto first = cache.training(cfg, topts, apps);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.stats().trainer_runs, 1u);

    // Same key again — cached, including via a campaign that needs training.
    const auto second = cache.training(cfg, topts, apps);
    EXPECT_EQ(first.get(), second.get());

    exp::Campaign campaign = small_campaign();
    campaign.needs_training = true;
    campaign.trainer = topts;
    campaign.training_apps = apps;
    campaign.workloads.resize(1);
    campaign.policies = {exp::policy("linux", [](std::uint64_t) {
        return std::make_unique<sched::LinuxPolicy>();
    })};
    campaign.methodology.reps = 1;
    exp::CampaignRunner runner({.threads = 2}, &cache);
    runner.run(campaign);
    runner.run(campaign);
    EXPECT_EQ(cache.stats().trainer_runs, 1u);

    // A different key does retrain.
    topts.seed = 4;
    (void)cache.training(cfg, topts, apps);
    EXPECT_EQ(cache.stats().trainer_runs, 2u);
}

TEST(ArtifactCache, ScenarioArrivalSeedsDoNotAlias) {
    const uarch::SimConfig cfg = small_config();
    scenario::ScenarioSpec spec;
    spec.name = "alias-check";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r"};
    spec.arrival_rate = 0.4;
    spec.service_quanta = 4;
    spec.horizon_quanta = 20;
    spec.seed = 1;
    scenario::ScenarioSpec reseeded = spec;
    reseeded.seed = 2;  // differs ONLY in the arrival seed

    exp::ArtifactCache cache;
    const auto a = cache.scenario_trace(spec, cfg);
    const auto b = cache.scenario_trace(reseeded, cfg);
    EXPECT_EQ(cache.stats().scenario_builds, 2u);  // distinct keys, no aliasing
    EXPECT_NE(a.get(), b.get());

    // Same spec again is a pure cache hit.
    const auto c = cache.scenario_trace(spec, cfg);
    EXPECT_EQ(cache.stats().scenario_builds, 2u);
    EXPECT_EQ(a.get(), c.get());

    // And the traces genuinely differ (different sampled arrivals/seeds).
    bool differs = a->tasks.size() != b->tasks.size();
    for (std::size_t i = 0; !differs && i < a->tasks.size(); ++i)
        differs = a->tasks[i].arrival_quantum != b->tasks[i].arrival_quantum ||
                  a->tasks[i].seed != b->tasks[i].seed;
    EXPECT_TRUE(differs);
}

TEST(Campaign, RunWorkloadWrapperMatchesEngineCell) {
    const exp::Campaign campaign = small_campaign();
    const workloads::WorkloadSpec& spec = campaign.workloads.front();
    const workloads::MethodologyOptions opts = fast_methodology();
    const workloads::PolicyFactory make_linux = [](std::uint64_t) {
        return std::make_unique<sched::LinuxPolicy>();
    };

    const workloads::RepeatedResult direct =
        workloads::run_workload(spec, small_config(), make_linux, opts);

    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 1}, &cache);
    const exp::CampaignResult engine = runner.run(campaign);
    const exp::CellResult* cell = engine.find(spec.name, "linux");
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(direct.turnaround_samples, cell->result.turnaround_samples);
    EXPECT_EQ(direct.mean_metrics.turnaround_quanta,
              cell->result.mean_metrics.turnaround_quanta);
    EXPECT_EQ(direct.mean_metrics.fairness, cell->result.mean_metrics.fairness);
}

TEST(Campaign, PairedSpeedupAndComparisonAgree) {
    exp::PairedSpeedupAggregator paired("linux");
    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 4}, &cache);
    const exp::CampaignResult result = runner.run(small_campaign(), {&paired});

    const auto streamed = paired.comparisons("random");
    const auto batch = exp::compare_to_baseline(result, 0, 1);
    ASSERT_EQ(streamed.size(), 2u);
    ASSERT_EQ(batch.size(), 2u);
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].workload, batch[i].workload);
        EXPECT_EQ(streamed[i].tt_speedup, batch[i].tt_speedup);
        EXPECT_EQ(streamed[i].ipc_speedup, batch[i].ipc_speedup);
        EXPECT_EQ(streamed[i].fairness_delta, batch[i].fairness_delta);
    }
    for (const auto& c : batch) {
        EXPECT_GT(c.baseline.turnaround_quanta, 0.0);
        EXPECT_GT(c.treatment.turnaround_quanta, 0.0);
        EXPECT_GT(c.tt_speedup, 0.0);
    }
}

TEST(Campaign, CsvAndJsonExportEveryCell) {
    std::ostringstream csv, json;
    exp::CsvAggregator csv_agg(csv);
    exp::JsonAggregator json_agg(json);
    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 4}, &cache);
    runner.run(small_campaign(), {&csv_agg, &json_agg});

    const std::string csv_text = csv.str();
    std::size_t lines = 0;
    for (char c : csv_text) lines += c == '\n';
    EXPECT_EQ(lines, 5u);  // header + 4 cells
    EXPECT_NE(csv_text.find("wa,linux"), std::string::npos);
    EXPECT_NE(csv_text.find("wb,random"), std::string::npos);

    const std::string json_text = json.str();
    EXPECT_EQ(json_text.front(), '[');
    std::size_t objects = 0;
    for (std::size_t pos = 0; (pos = json_text.find("\"workload\"", pos)) != std::string::npos;
         ++pos)
        ++objects;
    EXPECT_EQ(objects, 4u);
}

/// With SYNPA_TRACE and SYNPA_TRACE_FILE set, every grid runner writes one
/// trace (and its registry CSV) per repetition, tagged by grid point, and the
/// rep really records into it — and a traced fleet cell stays bit-identical
/// to the untraced one.
TEST(GridTracing, EveryRunnerWritesOneTracePerRep) {
    const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                      ("synpa-grid-trace-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const auto expect_traces = [&](const std::string& base, const std::string& cell) {
        for (const char* rep : {"r0", "r1"}) {
            const std::string path = (dir / (base + "-" + cell + rep + ".json")).string();
            EXPECT_TRUE(std::filesystem::exists(path)) << path;
            std::ifstream registry(obs::registry_csv_path(path));
            std::size_t rows = 0;
            for (std::string line; std::getline(registry, line);) ++rows;
            EXPECT_GT(rows, 1u) << "no metrics recorded beside " << path;
        }
        EXPECT_FALSE(std::filesystem::exists(dir / (base + "-" + cell + "r2.json")));
    };
    const auto trace_to = [&](const std::string& base) {
        ::setenv("SYNPA_TRACE_FILE", (dir / (base + ".json")).string().c_str(), 1);
    };
    const auto linux_policy = exp::policy(
        "linux", [](std::uint64_t) { return std::make_unique<sched::LinuxPolicy>(); });
    scenario::ScenarioSpec spec;
    spec.name = "traced";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r"};
    spec.arrival_rate = 0.4;
    spec.service_quanta = 4;
    spec.horizon_quanta = 12;
    spec.seed = 5;
    exp::ArtifactCache cache;
    ::setenv("SYNPA_TRACE", "1", 1);

    exp::Campaign campaign = small_campaign();
    campaign.workloads.resize(1);
    campaign.policies = {linux_policy};
    trace_to("campaign");
    exp::CampaignRunner({.threads = 2}, &cache).run(campaign);
    expect_traces("campaign", "c0w0p0");

    exp::ScenarioCampaign scenarios;
    scenarios.configs = {small_config()};
    scenarios.scenarios = {spec};
    scenarios.policies = {linux_policy};
    scenarios.reps = 2;
    trace_to("scenario");
    exp::ScenarioGridRunner({.threads = 2}, &cache).run(scenarios);
    expect_traces("scenario", "c0s0p0");

    exp::FleetCampaign fleets;
    fleets.node_configs = {small_config()};
    fleets.scenarios = {spec};
    fleets.fleet_policies = {"fleet-least-loaded"};
    fleets.node_policy = "linux";
    fleets.nodes = 2;
    fleets.reps = 2;
    fleets.max_quanta = 2'000;
    trace_to("fleet");
    const exp::FleetGridResult traced = exp::FleetGridRunner({.threads = 2}, &cache).run(fleets);
    expect_traces("fleet", "c0s0p0");

    ::unsetenv("SYNPA_TRACE");
    ::unsetenv("SYNPA_TRACE_FILE");
    const exp::FleetGridResult untraced =
        exp::FleetGridRunner({.threads = 2}, &cache).run(fleets);
    ASSERT_EQ(traced.cells.size(), 1u);
    ASSERT_EQ(untraced.cells.size(), 1u);
    for (std::size_t rep = 0; rep < 2; ++rep)
        EXPECT_EQ(fleet::run_signature(traced.cells[0].runs[rep]),
                  fleet::run_signature(untraced.cells[0].runs[rep]))
            << "tracing perturbed fleet rep " << rep;
    std::filesystem::remove_all(dir);
}

TEST(Campaign, RepFailuresSurfaceAsExceptions) {
    exp::Campaign campaign = small_campaign();
    campaign.workloads = {{"bad", {"mcf", "mcf"}}};  // wrong size for 2 cores
    exp::ArtifactCache cache;
    exp::CampaignRunner runner({.threads = 2}, &cache);
    EXPECT_THROW(runner.run(campaign), std::invalid_argument);
}

/// A fleet grid that validates except, perhaps, for its node-stepping threads.
exp::FleetCampaign fleet_campaign(std::size_t fleet_threads) {
    exp::FleetCampaign c;
    c.node_configs = {small_config()};
    c.scenarios = {scenario::ScenarioSpec{}};
    c.fleet_policies = {"fleet-least-loaded"};
    c.fleet_threads = fleet_threads;
    return c;
}

TEST(GridOptions, ThreadCountsRejectBadValuesByFieldName) {
    // One row per entry point that takes a pool size.  Each bad count
    // throws naming the field before any pool exists, so this test starts
    // no threads; the boundary counts pass validate() alone, since running
    // them would start that many workers.
    constexpr std::size_t kMax = common::kMaxThreads;
    struct Row {
        const char* field;
        void (*start)(std::size_t threads);
    };
    const Row rows[] = {
        {"GridOptions::threads", [](std::size_t t) { exp::GridEngine({.threads = t}); }},
        {"GridOptions::threads", [](std::size_t t) { exp::CampaignRunner({.threads = t}); }},
        {"GridOptions::threads", [](std::size_t t) { exp::ScenarioGridRunner({.threads = t}); }},
        {"GridOptions::threads", [](std::size_t t) { exp::FleetGridRunner({.threads = t}); }},
        {"FleetCampaign::fleet_threads", [](std::size_t t) { fleet_campaign(t).validate(); }},
        {"SYNPA_SIM_THREADS",
         [](std::size_t t) {
             uarch::SimConfig cfg = small_config();
             cfg.sim_threads = static_cast<int>(t);
             uarch::Platform platform(cfg);
         }},
        {"TrainerOptions::threads",
         [](std::size_t t) {
             const std::vector<std::string> apps = {"mcf", "hmmer"};
             model::Trainer(small_config(), {.threads = t}).train(apps);
         }},
        {"FleetOptions::threads",
         [](std::size_t t) {
             const scenario::ScenarioTrace trace;
             fleet::FleetOptions opts;
             opts.threads = t;
             (void)fleet::FleetRunner(trace, opts);
         }},
    };
    for (const Row& row : rows)
        for (const std::size_t bad : {kMax + 1, static_cast<std::size_t>(-1)}) {
            try {
                row.start(bad);
                ADD_FAILURE() << row.field << " accepted " << bad;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos) << e.what();
            }
        }
    for (const std::size_t good : {std::size_t{0}, kMax}) {
        EXPECT_NO_THROW(exp::GridOptions{.threads = good}.validate());
        EXPECT_NO_THROW(fleet_campaign(good).validate());
    }
    uarch::SimConfig widest = small_config();
    widest.sim_threads = static_cast<int>(kMax);
    EXPECT_NO_THROW(widest.validate());
}

}  // namespace
