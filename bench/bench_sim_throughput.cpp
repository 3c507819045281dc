// Micro-benchmark for the simulator substrate itself: simulated core-cycles
// per second for isolated and SMT execution, which bounds how fast the
// evaluation sweeps can run.
//
// The BM_ChipQuantum* families run one chip (a one-chip Platform); the
// BM_PlatformQuantum* families measure the chip-sharded parallel path:
// the same fully-populated platform at sim_threads 1/2/4, so the ratio of
// items_per_second rows IS the parallel speedup (results are bit-identical
// across thread counts by the engine's determinism contract, so only time
// changes).  items_per_second = simulated core-cycles per wall second.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

void BM_ChipQuantumIsolated(benchmark::State& state) {
    uarch::SimConfig cfg;
    cfg.cores = 1;
    cfg.cycles_per_quantum = static_cast<std::uint64_t>(state.range(0));
    uarch::Platform platform(cfg);
    apps::AppInstance task(1, apps::find_app("mcf"), 1);
    platform.bind(task, {.core = 0, .slot = 0});
    for (auto _ : state) platform.run_quantum();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.cycles_per_quantum));
}

void BM_ChipQuantumSmtPair(benchmark::State& state) {
    uarch::SimConfig cfg;
    cfg.cores = 1;
    cfg.cycles_per_quantum = static_cast<std::uint64_t>(state.range(0));
    uarch::Platform platform(cfg);
    apps::AppInstance a(1, apps::find_app("mcf"), 1);
    apps::AppInstance b(2, apps::find_app("leela_r"), 2);
    platform.bind(a, {.core = 0, .slot = 0});
    platform.bind(b, {.core = 0, .slot = 1});
    for (auto _ : state) platform.run_quantum();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.cycles_per_quantum));
}

void BM_ChipQuantumFullWorkload(benchmark::State& state) {
    uarch::SimConfig cfg;  // 4 cores, 8 tasks: the evaluation shape
    cfg.cycles_per_quantum = static_cast<std::uint64_t>(state.range(0));
    uarch::Platform platform(cfg);
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    const auto& suite = apps::spec_suite();
    for (int i = 0; i < 8; ++i) {
        tasks.push_back(std::make_unique<apps::AppInstance>(
            i + 1, suite[static_cast<std::size_t>(i * 3)], static_cast<std::uint64_t>(i)));
        platform.bind(*tasks.back(), {.core = i / 2, .slot = i % 2});
    }
    for (auto _ : state) platform.run_quantum();
    // items = core-cycles simulated
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.cycles_per_quantum) * 4);
}

/// Fully-populated platform: one task per hardware thread, spread across
/// every chip/core/slot.  Returns the tasks so they outlive the bindings.
std::vector<std::unique_ptr<apps::AppInstance>> populate(uarch::Platform& platform) {
    const auto& suite = apps::spec_suite();
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    tasks.reserve(static_cast<std::size_t>(platform.hw_contexts()));
    for (int core = 0; core < platform.core_count(); ++core) {
        for (int slot = 0; slot < platform.config().smt_ways; ++slot) {
            const int id = static_cast<int>(tasks.size()) + 1;
            tasks.push_back(std::make_unique<apps::AppInstance>(
                id, suite[static_cast<std::size_t>(id * 3) % suite.size()],
                static_cast<std::uint64_t>(id)));
            platform.bind(*tasks.back(), {.core = core, .slot = slot});
        }
    }
    return tasks;
}

void run_platform_bench(benchmark::State& state, const uarch::SimConfig& cfg) {
    uarch::Platform platform(cfg);
    const auto tasks = populate(platform);
    for (auto _ : state) platform.run_quantum();
    // items = simulated core-cycles across every chip
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.cycles_per_quantum) *
                            platform.core_count());
    state.counters["sim_shards"] = platform.sim_shards();
}

/// chips x sim_threads sweep at the evaluation shape (4 cores, SMT-2 per
/// chip).  Rows with equal chips and different sim_threads divide to the
/// parallel speedup.
void BM_PlatformQuantum(benchmark::State& state) {
    uarch::SimConfig cfg;  // 4 cores, SMT-2 per chip
    cfg.num_chips = static_cast<int>(state.range(0));
    cfg.sim_threads = static_cast<int>(state.range(1));
    cfg.cycles_per_quantum = 50'000;
    run_platform_bench(state, cfg);
}

/// The acceptance shape: 4 chips x 32 cores x SMT-4 = 512 hardware
/// contexts, the largest platform the sweeps drive.
void BM_PlatformQuantum512Contexts(benchmark::State& state) {
    uarch::SimConfig cfg;
    cfg.num_chips = 4;
    cfg.cores = 32;
    cfg.smt_ways = 4;
    cfg.sim_threads = static_cast<int>(state.range(0));
    cfg.cycles_per_quantum = 50'000;
    run_platform_bench(state, cfg);
}

}  // namespace

BENCHMARK(BM_ChipQuantumIsolated)->Arg(50'000);
BENCHMARK(BM_ChipQuantumSmtPair)->Arg(50'000);
BENCHMARK(BM_ChipQuantumFullWorkload)->Arg(50'000);
// ->UseRealTime(): the parallel path spends its time in pool workers, so
// per-process CPU time would hide the wall-clock speedup being measured.
BENCHMARK(BM_PlatformQuantum)
    ->ArgNames({"chips", "threads"})
    ->ArgsProduct({{1, 2, 4}, {1, 2, 4}})
    ->UseRealTime();
BENCHMARK(BM_PlatformQuantum512Contexts)
    ->ArgNames({"threads"})
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->UseRealTime();
