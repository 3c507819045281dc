// Cost-evaluation statistics of core::SynpaPolicy, in the shape the
// retired cross-quantum weight cache reported them.  The policy prices
// every candidate afresh each quantum, so `misses` counts cost evaluations
// and `hits` and `solve_reuse` are always 0.  The struct survives only
// because the end-to-end benchmark reads these fields; it goes with the
// benchmark change that retires the core.weight_cache.* rows.
#pragma once

#include <cstdint>

namespace synpa::core {

struct WeightCache {
    struct Stats {
        std::uint64_t hits = 0;         ///< always 0
        std::uint64_t misses = 0;       ///< cost evaluations
        std::uint64_t solve_reuse = 0;  ///< always 0
    };
};

}  // namespace synpa::core
