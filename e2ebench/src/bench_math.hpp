// Pure arithmetic of the end-to-end benchmark: the tail-percentile rule,
// core-cycle accounting, failure accounting and the exact-bit signature.
// Kept free of simulator types so tests/test_bench_math.cpp can pin it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Percentiles are expressed in per-mille so the ladder stays exact.
inline constexpr int kPerMilleLadder[] = {999, 990, 900, 500};
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
inline std::size_t nearest_rank(std::size_t n, int per_mille) noexcept {
    const std::size_t scaled = n * static_cast<std::size_t>(per_mille);
    const std::size_t rank = (scaled + 999) / 1000;
    return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile.
inline std::size_t samples_beyond(std::size_t n, int per_mille) noexcept {
    return n == 0 ? 0 : n - nearest_rank(n, per_mille);
}

/// The tail rule: the highest ladder percentile that leaves at least ten
/// samples beyond it; 1000 (the maximum) when even the median does not.
inline int tail_per_mille(std::size_t n) noexcept {
    for (int pm : kPerMilleLadder)
        if (samples_beyond(n, pm) >= kMinBeyond) return pm;
    return 1000;
}

/// Nearest-rank percentile of unsorted values (0 for an empty set).
inline double percentile(std::vector<double> values, int per_mille) {
    if (values.empty()) return 0.0;
    const std::size_t rank = nearest_rank(values.size(), per_mille);
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     values.end());
    return values[rank - 1];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 500); }

inline double sum(std::span<const double> values) {
    return std::accumulate(values.begin(), values.end(), 0.0);
}

/// Arithmetic mean (0 for an empty set).
inline double mean(std::span<const double> values) {
    return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

/// "p90", "p99.9", "max".
inline std::string per_mille_label(int per_mille) {
    if (per_mille >= 1000) return "max";
    std::ostringstream out;
    out << 'p' << per_mille / 10;
    if (per_mille % 10 != 0) out << '.' << per_mille % 10;
    return out.str();
}

/// Simulated core-cycles of `quanta` executed quanta: every core of every
/// chip of every node ticks each quantum, busy or idle.
struct Shape {
    int nodes = 1;
    int chips = 1;
    int cores = 4;
    int smt_ways = 2;
    std::uint64_t cycles_per_quantum = 50'000;

    std::uint64_t cores_total() const noexcept {
        return static_cast<std::uint64_t>(nodes) * static_cast<std::uint64_t>(chips) *
               static_cast<std::uint64_t>(cores);
    }
    std::uint64_t contexts() const noexcept {
        return cores_total() * static_cast<std::uint64_t>(smt_ways);
    }
    std::uint64_t core_cycles(std::uint64_t quanta) const noexcept {
        return quanta * cores_total() * cycles_per_quantum;
    }
};

/// Planned-versus-completed accounting of one run.  A run that fails any
/// correctness check counts every one of its tasks as failed.
struct TaskTally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void add_run(std::uint64_t planned, std::uint64_t completed, bool checks_passed) noexcept {
        attempted += planned;
        failed += checks_passed ? planned - std::min(planned, completed) : planned;
    }
    double failed_ratio() const noexcept {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) / static_cast<double>(attempted);
    }
};

/// Exact-bit signature: doubles are rendered through their bit patterns,
/// so two signatures match iff every recorded value is bit-identical.
class BitSignature {
public:
    BitSignature& add(double v) {
        out_ << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec << ';';
        return *this;
    }
    BitSignature& add(std::uint64_t v) {
        out_ << v << ';';
        return *this;
    }
    BitSignature& add(std::int64_t v) {
        out_ << v << ';';
        return *this;
    }
    BitSignature& add(int v) { return add(static_cast<std::int64_t>(v)); }
    BitSignature& add(bool v) { return add(static_cast<std::int64_t>(v ? 1 : 0)); }
    BitSignature& add(std::string_view s) {
        out_ << s.size() << ':' << s << ';';
        return *this;
    }
    /// Without it a string literal would pick the bool overload.
    BitSignature& add(const char* s) { return add(std::string_view(s)); }
    BitSignature& add(std::span<const double> values) {
        for (double v : values) add(v);
        return *this;
    }
    std::string str() const { return out_.str(); }

private:
    std::ostringstream out_;
};

}  // namespace e2e
