// Deterministic counter-based random number generation.
//
// Every stochastic draw in the simulator comes from a SplitMix64-based
// stream keyed by (seed, stream id).  Streams are cheap value types: copying
// one forks the sequence, and two streams with different keys are
// statistically independent.  This gives bit-reproducible simulations and,
// crucially, lets an application instance carry its *own* randomness so its
// intrinsic behaviour is identical under every scheduling policy.
#pragma once

#include <cstdint>
#include <cmath>
#include <string_view>

namespace synpa::common {

/// Mixes a 64-bit value through the SplitMix64 finalizer.  Used both as the
/// stream generator step and as a general-purpose hash for key derivation.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Deterministic 64-bit string hash (FNV-1a folded through SplitMix64);
/// used to key per-application RNG streams by name.
constexpr std::uint64_t hash_string(std::string_view s) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char ch : s) {
        h ^= static_cast<unsigned char>(ch);
        h *= 0x100000001b3ULL;
    }
    return splitmix64(h);
}

/// Derives an independent stream key from a seed and up to three salts.
constexpr std::uint64_t derive_key(std::uint64_t seed, std::uint64_t a,
                                   std::uint64_t b = 0, std::uint64_t c = 0) noexcept {
    std::uint64_t k = splitmix64(seed ^ 0x8ad6c1f4a527b9e3ULL);
    k = splitmix64(k ^ a);
    k = splitmix64(k ^ (b * 0x9e3779b97f4a7c15ULL));
    k = splitmix64(k ^ (c * 0xc2b2ae3d27d4eb4fULL));
    return k;
}

/// A small, fast, deterministic random stream (SplitMix64).
///
/// Satisfies UniformRandomBitGenerator, so it can also feed <random>
/// distributions, though the built-in helpers below are preferred in the
/// simulator hot path.
class Rng {
public:
    using result_type = std::uint64_t;

    Rng() = default;
    explicit Rng(std::uint64_t key) noexcept : state_(key) {}
    Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0) noexcept
        : state_(derive_key(seed, a, b, c)) {}

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    std::uint64_t operator()() noexcept {
        state_ += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [0, n).  n must be > 0.
    std::uint64_t below(std::uint64_t n) noexcept {
        // Lemire's multiply-shift rejection-free approximation is fine here:
        // bias is negligible for n << 2^64 and determinism is what we need.
        __extension__ using uint128 = unsigned __int128;
        return static_cast<std::uint64_t>((static_cast<uint128>((*this)()) * n) >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
        return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /// Bernoulli draw with probability p.
    bool chance(double p) noexcept { return uniform() < p; }

    /// Geometric draw: number of trials until first success (>= 1) for
    /// success probability p.  Used for "instructions until next event"
    /// draws; p is clamped away from 0 to keep results finite.
    std::uint64_t geometric(double p) noexcept { return geometric(p, geometric_log(p)); }

    /// geometric(p) with its denominator precomputed: `log_q` must be
    /// geometric_log(p).  Same value and same stream position as
    /// geometric(p), for callers that draw many times with one p.
    std::uint64_t geometric(double p, double log_q) noexcept {
        if (p >= 1.0) return 1;
        // Inverse-CDF sampling; log1p keeps precision for small p.
        const double u = uniform();
        const double n = std::log1p(-u) / log_q;
        const double v = n < 1.0 ? 1.0 : n;
        return static_cast<std::uint64_t>(v) + 1;
    }

    /// The denominator of geometric(p): log1p(-p), with p clamped away from
    /// 0 to keep results finite (unused when p >= 1, where no draw is made).
    static double geometric_log(double p) noexcept {
        if (p >= 1.0) return 0.0;
        if (p < 1e-12) p = 1e-12;
        return std::log1p(-p);
    }

    /// Exponential draw with the given mean.
    double exponential(double mean) noexcept {
        double u = uniform();
        if (u >= 1.0) u = 0.9999999999;
        return -mean * std::log1p(-u);
    }

private:
    std::uint64_t state_ = 0x123456789abcdef0ULL;
};

}  // namespace synpa::common
