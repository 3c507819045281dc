#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "matching/matching.hpp"

namespace synpa::matching {
namespace {

/// dp[mask] = lightest pairing of exactly the vertices in `mask`.
/// The lowest set bit is always paired first, which visits each matching
/// exactly once: O(2^n * n) time, O(2^n) space.
MatchingResult solve(const WeightMatrix& w) {
    const std::size_t n = w.size();
    if (n == 0 || n % 2 != 0)
        throw std::invalid_argument("SubsetDpMatcher: vertex count must be even and > 0");
    if (n > SubsetDpMatcher::kMaxVertices)
        throw std::invalid_argument("SubsetDpMatcher: instance too large (n > 24)");

    const std::uint32_t full = (n == 32) ? ~0u : ((1u << n) - 1u);
    const double worst = std::numeric_limits<double>::infinity();
    std::vector<double> dp(full + 1u, worst);
    std::vector<std::int8_t> choice(full + 1u, -1);  // partner of the lowest bit
    dp[0] = 0.0;

    for (std::uint32_t mask = 1; mask <= full; ++mask) {
        const int pop = std::popcount(mask);
        if (pop % 2 != 0) continue;
        const int u = std::countr_zero(mask);
        const std::uint32_t rest = mask & (mask - 1u);  // drop lowest bit
        for (std::uint32_t sub = rest; sub != 0; sub &= (sub - 1u)) {
            const int v = std::countr_zero(sub);
            const std::uint32_t prev = mask & ~(1u << u) & ~(1u << v);
            if (dp[prev] == worst) continue;
            const double cand = dp[prev] + w.get(static_cast<std::size_t>(u),
                                                 static_cast<std::size_t>(v));
            if (cand < dp[mask]) {
                dp[mask] = cand;
                choice[mask] = static_cast<std::int8_t>(v);
            }
        }
    }

    MatchingResult out;
    out.mate.assign(n, -1);
    std::uint32_t mask = full;
    while (mask != 0) {
        const int u = std::countr_zero(mask);
        const int v = choice[mask];
        out.mate[static_cast<std::size_t>(u)] = v;
        out.mate[static_cast<std::size_t>(v)] = u;
        out.pairs.emplace_back(u, v);
        mask &= ~(1u << u);
        mask &= ~(1u << v);
    }
    out.total_weight = matching_weight(w, out.pairs);
    return out;
}

}  // namespace

MatchingResult SubsetDpMatcher::min_weight_perfect(const WeightMatrix& w) const {
    return solve(w);
}

}  // namespace synpa::matching
