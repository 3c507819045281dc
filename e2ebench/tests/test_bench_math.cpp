// Self-tests for the benchmark's own arithmetic (src/bench_math.hpp): the
// tail-percentile rule, core-cycle accounting per workload shape, failure
// accounting and the exact-bit signature.  Exits non-zero on any failure.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_math.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
}

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
    return v;
}

void tail_rule() {
    using e2e::tail_per_mille;
    // Fewer than 20 samples: not even the median leaves ten beyond it.
    expect(tail_per_mille(0) == 1000, "n=0 falls back to the maximum");
    expect(tail_per_mille(8) == 1000, "n=8 falls back to the maximum");
    expect(tail_per_mille(19) == 1000, "n=19 falls back to the maximum");
    expect(tail_per_mille(20) == 500, "n=20 -> p50 (10 beyond)");
    expect(tail_per_mille(99) == 500, "n=99 -> p50 (p90 leaves 9)");
    expect(tail_per_mille(100) == 900, "n=100 -> p90 (10 beyond)");
    expect(tail_per_mille(209) == 900, "n=209 -> p90 (p99 leaves 2)");
    expect(tail_per_mille(999) == 900, "n=999 -> p90 (p99 leaves 9)");
    expect(tail_per_mille(1000) == 990, "n=1000 -> p99 (10 beyond)");
    expect(tail_per_mille(10000) == 999, "n=10000 -> p99.9 (10 beyond)");

    // Sample counts beyond the chosen percentile, over a range of n.
    for (std::size_t n = 20; n < 5000; n += 7) {
        const int pm = tail_per_mille(n);
        expect(e2e::samples_beyond(n, pm) >= e2e::kMinBeyond,
               "chosen percentile leaves >= 10 beyond at n=" + std::to_string(n));
    }

    expect(e2e::percentile(one_to(100), 900) == 90.0, "p90 of 1..100 is 90");
    expect(e2e::percentile(one_to(1000), 990) == 990.0, "p99 of 1..1000 is 990");
    expect(e2e::percentile(one_to(8), 1000) == 8.0, "max of 1..8 is 8");
    expect(e2e::median(one_to(5)) == 3.0, "median of 1..5 is 3");
    expect(e2e::percentile({}, 500) == 0.0, "empty percentile is 0");
    expect(e2e::per_mille_label(999) == "p99.9", "label p99.9");
    expect(e2e::per_mille_label(900) == "p90", "label p90");
    expect(e2e::per_mille_label(1000) == "max", "label max");
}

void core_cycles() {
    const e2e::Shape paper{.nodes = 1, .chips = 1, .cores = 4, .smt_ways = 2,
                           .cycles_per_quantum = 50'000};
    const e2e::Shape open{.nodes = 1, .chips = 2, .cores = 32, .smt_ways = 4,
                          .cycles_per_quantum = 5'000};
    const e2e::Shape fleet{.nodes = 8, .chips = 1, .cores = 4, .smt_ways = 2,
                           .cycles_per_quantum = 2'000};
    expect(paper.core_cycles(1) == 200'000, "paper: 4 cores x 50k cycles per quantum");
    expect(paper.core_cycles(210) == 42'000'000, "paper: 210 quanta");
    expect(paper.contexts() == 8, "paper: 8 contexts");
    expect(open.core_cycles(1) == 320'000, "open: 2 chips x 32 cores x 5k cycles");
    expect(open.contexts() == 256, "open: 256 contexts");
    expect(fleet.core_cycles(1) == 64'000, "fleet: 8 nodes x 4 cores x 2k cycles");
    expect(fleet.core_cycles(0) == 0, "fleet: no quanta, no cycles");
    expect(fleet.contexts() == 64, "fleet: 64 contexts");
}

void failed_ratio() {
    e2e::TaskTally tally;
    expect(tally.failed_ratio() == 0.0, "empty tally has ratio 0");
    tally.add_run(8, 8, true);
    expect(tally.attempted == 8 && tally.failed == 0, "clean run fails nothing");
    tally.add_run(10, 7, true);
    expect(tally.attempted == 18 && tally.failed == 3, "unfinished tasks fail");
    tally.add_run(4, 4, false);
    expect(tally.attempted == 22 && tally.failed == 7, "a failed check fails every task");
    expect(std::abs(tally.failed_ratio() - 7.0 / 22.0) < 1e-15, "ratio is failed/attempted");
}

void signature() {
    const double x = 210.0625;
    const std::string base = e2e::BitSignature().add("synpa").add(x).add(32).str();
    expect(base == e2e::BitSignature().add("synpa").add(x).add(32).str(),
           "equal inputs give equal signatures");
    expect(base != e2e::BitSignature().add("synpa").add(std::nextafter(x, 1e9)).add(32).str(),
           "1-ULP difference changes the signature");
    expect(e2e::BitSignature().add(0.0).str() != e2e::BitSignature().add(-0.0).str(),
           "signed zeros differ");
    expect(e2e::BitSignature().add("ab").add("c").str() !=
               e2e::BitSignature().add("a").add("bc").str(),
           "string boundaries are part of the signature");
}

}  // namespace

int main() {
    tail_rule();
    core_cycles();
    failed_ratio();
    signature();
    if (failures != 0) {
        std::cerr << failures << " bench-math check(s) failed\n";
        return 1;
    }
    std::cout << "bench-math self-test passed\n";
    return 0;
}
