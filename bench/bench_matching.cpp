// Micro-benchmark for the pair-selection step (paper §IV-B Step 3): the
// Blossom algorithm vs the exact subset DP vs greedy, across thread counts.
// The paper's motivation: the number of combinations explodes with cores,
// so the selection must stay cheap.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "matching/matching.hpp"

namespace {

using namespace synpa;

matching::WeightMatrix random_matrix(std::size_t n, std::uint64_t seed) {
    common::Rng rng(seed, 0xbe9c);
    matching::WeightMatrix w(n);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) w.set(u, v, rng.uniform(2.0, 4.0));
    return w;
}

void BM_BlossomMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::BlossomMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

void BM_SubsetDpMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::SubsetDpMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

void BM_BruteForceMinPerfect(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const matching::WeightMatrix w = random_matrix(n, 42);
    const matching::BruteForceMatcher matcher;
    for (auto _ : state) benchmark::DoNotOptimize(matcher.min_weight_perfect(w).total_weight);
}

// ------------------------------------------------- k-way grouping --
// The SMT-4 grouping heuristic's cold solve, the one the policy runs.  The
// oracle is a cheap closed-form pairwise sum so the timing isolates solver
// work; the oracle_calls counter is the machine-independent cost measure
// tools/bench_snapshot.py records.

double synthetic_group_cost(std::span<const int> g) {
    double w = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i)
        for (std::size_t j = i + 1; j < g.size(); ++j) {
            const auto u = static_cast<unsigned>(g[i]);
            const auto v = static_cast<unsigned>(g[j]);
            w += static_cast<double>((u * 31u + v * 17u + u * v) % 97u) / 97.0 + 0.5;
        }
    return w;
}

void BM_GroupingColdResolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t cores = n / 4;
    std::uint64_t calls = 0;
    const matching::GroupCost cost = [&calls](std::span<const int> g) {
        ++calls;
        return synthetic_group_cost(g);
    };
    for (auto _ : state)
        benchmark::DoNotOptimize(
            matching::min_weight_grouping_heuristic(n, cores, 4, cost).total_weight);
    state.counters["oracle_calls"] =
        static_cast<double>(calls) / static_cast<double>(state.iterations());
}

}  // namespace

// 8 = the paper's workloads (4 cores), 16/56 = one-socket scale-out,
// 112 = every hardware thread of the CN9975.
BENCHMARK(BM_BlossomMinPerfect)->Arg(8)->Arg(16)->Arg(56)->Arg(112);
BENCHMARK(BM_SubsetDpMinPerfect)->Arg(8)->Arg(16)->Arg(20);
BENCHMARK(BM_BruteForceMinPerfect)->Arg(8)->Arg(10);
// 128 = one fully loaded 32-core SMT-4 chip, 512 = the four-chip platform.
BENCHMARK(BM_GroupingColdResolve)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);
