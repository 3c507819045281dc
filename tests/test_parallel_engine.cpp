// The chip fork/join's two contracts:
//
//  1. Coverage — common::parallel_for runs every index exactly once on
//     every pool size (and inline on a null pool), failures surface at the
//     caller after the whole batch has run, and a Platform forks over
//     min(sim_threads, chips) threads.
//  2. Bit-identity — a Platform with sim_threads=N reproduces the
//     sim_threads=1 run EXACTLY (every double compared by bit pattern),
//     for closed and open scenarios, SMT widths 2 and 4, 1-4 chips, and
//     N in {1, 2, 4}; and a scenario grid nested inside its own thread
//     pool stays deterministic when cells themselves request sim threads.
//
// These tests are also the TSan surface for the parallel region: the CI
// thread-sanitizer job runs this binary, so any cross-chip data race the
// fork/join might introduce is caught structurally even on hosts where the
// interleaving never corrupts a result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "exp/artifact_cache.hpp"
#include "exp/scenario_grid.hpp"
#include "model/interference_model.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/thread_manager.hpp"
#include "signatures.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

// ------------------------------------------------------------- coverage --

/// A pool of `threads` threads (the caller and threads - 1 workers), or
/// null (the inline path) for 0.
std::unique_ptr<common::ThreadPool> make_pool(std::size_t threads) {
    if (threads == 0) return nullptr;
    return std::make_unique<common::ThreadPool>(threads);
}

TEST(ParallelFor, EveryIndexRunsExactlyOnce) {
    for (const std::size_t threads : {0, 1, 2, 4, 8}) {
        const auto pool = make_pool(threads);
        for (const std::size_t n : {0, 1, 3, 4, 7}) {
            std::vector<std::atomic<int>> runs(n);
            common::parallel_for(pool.get(), n, [&runs](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "n=" << n << " threads=" << threads << " index=" << i;
        }
    }
}

TEST(ParallelFor, ReusableAcrossCalls) {
    common::ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int q = 0; q < 50; ++q)
        pool.parallel_for(4, [&total](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    EXPECT_EQ(total.load(), 200);
}

TEST(ParallelFor, ExceptionReachesTheCallerAfterTheWholeBatch) {
    for (const std::size_t threads : {0, 4}) {
        const auto pool = make_pool(threads);
        std::vector<std::atomic<int>> runs(8);
        EXPECT_THROW(common::parallel_for(pool.get(), runs.size(),
                                          [&runs](std::size_t i) {
                                              runs[i].fetch_add(1, std::memory_order_relaxed);
                                              if (i == 3) throw std::runtime_error("index 3");
                                          }),
                     std::runtime_error)
            << "threads=" << threads;
        for (std::size_t i = 0; i < runs.size(); ++i)
            EXPECT_EQ(runs[i].load(), 1) << "threads=" << threads << " index=" << i;
        // The pool survives a failed batch.
        std::atomic<int> total{0};
        common::parallel_for(pool.get(), 4, [&total](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(total.load(), 4) << "threads=" << threads;
    }
}

TEST(ParallelFor, PlatformShardsAreMinOfSimThreadsAndChips) {
    for (const int chips : {1, 2, 3, 4})
        for (const int threads : {1, 2, 4, 8}) {
            uarch::SimConfig cfg;
            cfg.cores = 1;
            cfg.num_chips = chips;
            cfg.sim_threads = threads;
            EXPECT_EQ(uarch::Platform(cfg).sim_shards(), std::min(threads, chips))
                << "chips=" << chips << " threads=" << threads;
        }
}

// --------------------------------------------------------- bit-identity --

using testsig::signature;

uarch::SimConfig shape_config(int chips, int smt_ways, int sim_threads) {
    uarch::SimConfig cfg;
    cfg.cores = 2;
    cfg.smt_ways = smt_ways;
    cfg.num_chips = chips;
    cfg.sim_threads = sim_threads;
    cfg.cycles_per_quantum = 2'000;
    return cfg;
}

sched::PolicyConfig policy_config(std::uint64_t seed = 17) {
    sched::PolicyConfig config;
    config.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    config.seed = seed;
    return config;
}

std::vector<sched::TaskSpec> closed_specs(int count) {
    const std::vector<std::string> apps = {"mcf",     "leela_r", "nab_r", "bwaves",
                                           "gobmk",   "hmmer",   "lbm_r", "astar",
                                           "povray_r"};
    std::vector<sched::TaskSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({.app_name = apps[static_cast<std::size_t>(i) % apps.size()],
                         .seed = static_cast<std::uint64_t>(i + 1),
                         .target_insts = 12'000,
                         .isolated_ipc = 1.0});
    return specs;
}

std::string run_closed(int chips, int smt_ways, int sim_threads,
                       const std::string& policy_name) {
    const uarch::SimConfig cfg = shape_config(chips, smt_ways, sim_threads);
    uarch::Platform platform(cfg);
    const auto policy = sched::make_policy(policy_name, policy_config());
    const auto specs = closed_specs(platform.hw_contexts());
    sched::ThreadManager manager(platform, *policy, specs,
                                 {.max_quanta = 400, .record_traces = false});
    return signature(manager.run());
}

TEST(ParallelBitIdentity, ClosedRunsMatchSerialAtEveryThreadCount) {
    for (const int smt_ways : {2, 4}) {
        for (const int chips : {1, 2, 3, 4}) {
            const std::string want = run_closed(chips, smt_ways, 1, "synpa");
            for (const int threads : {2, 4}) {
                EXPECT_EQ(run_closed(chips, smt_ways, threads, "synpa"), want)
                    << "chips=" << chips << " ways=" << smt_ways
                    << " threads=" << threads;
            }
        }
    }
}

TEST(ParallelBitIdentity, ClosedRandomPolicyChurnMatchesSerial) {
    // Random regroups every quantum — maximal migration churn across chips,
    // so the cross-chip warmup bookkeeping gets exercised hard.
    const std::string want = run_closed(4, 2, 1, "random");
    EXPECT_EQ(run_closed(4, 2, 2, "random"), want);
    EXPECT_EQ(run_closed(4, 2, 4, "random"), want);
}

scenario::ScenarioSpec open_spec() {
    scenario::ScenarioSpec spec;
    spec.name = "parallel-open";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.initial_tasks = 8;
    spec.arrival_rate = 0.8;
    spec.service_quanta = 5;
    spec.horizon_quanta = 25;
    spec.seed = 9;
    return spec;
}

TEST(ParallelBitIdentity, OpenScenarioMatchesSerialAtEveryThreadCount) {
    for (const int smt_ways : {2, 4}) {
        const uarch::SimConfig base = shape_config(4, smt_ways, 1);
        const scenario::ScenarioTrace trace = scenario::build_trace(open_spec(), base);

        std::string want;
        for (const int threads : {1, 2, 4}) {
            const uarch::SimConfig cfg = shape_config(4, smt_ways, threads);
            uarch::Platform platform(cfg);
            const auto policy = sched::make_policy("synpa", policy_config());
            scenario::ScenarioRunner runner(platform, *policy, trace,
                                            {.max_quanta = 400, .record_timeline = false});
            const std::string sig = signature(runner.run());
            if (threads == 1)
                want = sig;
            else
                EXPECT_EQ(sig, want) << "ways=" << smt_ways << " threads=" << threads;
        }
        ASSERT_FALSE(want.empty());
    }
}

TEST(ParallelBitIdentity, ConfigFingerprintIgnoresSimThreads) {
    // Cached artifacts must be shared across thread counts — the results
    // they key are identical by the contract this file pins.
    const uarch::SimConfig serial = shape_config(4, 2, 1);
    uarch::SimConfig parallel = serial;
    parallel.sim_threads = 4;
    EXPECT_EQ(uarch::config_fingerprint(serial), uarch::config_fingerprint(parallel));
    uarch::SimConfig other = serial;
    other.num_chips = 2;
    EXPECT_NE(uarch::config_fingerprint(serial), uarch::config_fingerprint(other));
}

TEST(ParallelBitIdentity, NestedSimThreadsCapsAgainstOuterPool) {
    EXPECT_EQ(common::nested_sim_threads(1, 8), 1);   // serial request stays serial
    EXPECT_EQ(common::nested_sim_threads(4, 1), 4);   // no outer fan-out: keep all
    EXPECT_EQ(common::nested_sim_threads(4, 0), 4);
    // With outer fan-out, the inner request is capped to the host's fair
    // share — min(requested, max(1, hw / outer)) — so campaign workers never
    // oversubscribe the machine with nested sim shards.
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    for (const std::size_t outer : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
        const int capped = common::nested_sim_threads(4, outer);
        EXPECT_EQ(capped,
                  std::min(4, std::max(1, hw / static_cast<int>(outer))))
            << "outer=" << outer;
    }
}

TEST(ParallelBitIdentity, ScenarioGridNestedInPoolStaysDeterministic) {
    // A grid fanning out over its own pool while every cell's config asks
    // for sim threads: the composition rule (nested_sim_threads capping)
    // plus the reorder buffer must keep results bit-identical to the
    // all-serial run.
    const auto run_grid = [](std::size_t grid_threads, int sim_threads) {
        exp::ScenarioCampaign campaign;
        campaign.name = "nested-determinism";
        uarch::SimConfig cfg = shape_config(2, 2, sim_threads);
        campaign.configs = {cfg};
        scenario::ScenarioSpec spec = open_spec();
        spec.initial_tasks = 4;
        spec.horizon_quanta = 15;
        campaign.scenarios = {spec};
        campaign.policy_names = {"random"};
        campaign.reps = 3;
        campaign.max_quanta = 300;
        campaign.record_timelines = false;

        exp::ArtifactCache cache;
        exp::ScenarioGridRunner runner({.threads = grid_threads}, &cache);
        const exp::ScenarioGridResult result = runner.run(campaign);
        std::string sig;
        for (const exp::ScenarioCellResult& cell : result.cells)
            for (const scenario::ScenarioResult& run : cell.runs)
                sig += signature(run) + "|";
        return sig;
    };

    const std::string serial = run_grid(1, 1);
    EXPECT_EQ(run_grid(4, 1), serial);
    EXPECT_EQ(run_grid(4, 4), serial);  // nested request composes, same bits
    EXPECT_EQ(run_grid(1, 4), serial);  // parallel platform under a serial grid
}

}  // namespace
