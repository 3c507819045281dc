// A running application: profile + architectural progress + private
// randomness + PMU counters.
//
// The instance owns everything that must *follow the task* across core
// migrations: its phase position, retired-instruction count, its RNG
// streams, its counter bank (perf counts per task), and the post-migration
// cache-warmup state.
//
// Randomness is split into three independent streams — phase dwell,
// frontend events, backend events — each consumed in instruction order.
// This guarantees that the *same* application (same seed) visits the same
// phase boundaries at the same instruction counts whether it runs isolated
// or in SMT, which is exactly the alignment property the paper's
// instruction-count mapping (§IV-C) relies on.  Streams are keyed by
// (seed, profile name), never by task id, so a profiling run and a
// workload run of the same app can share behaviour.
#pragma once

#include <cstdint>

#include "apps/profile.hpp"
#include "common/rng.hpp"
#include "pmu/counters.hpp"

namespace synpa::apps {

class AppInstance {
public:
    /// `id` must be unique within a simulation (used for task registry and
    /// placement); `seed` fully determines the behaviour streams.
    AppInstance(int id, const AppProfile& profile, std::uint64_t seed);

    int id() const noexcept { return id_; }
    const AppProfile& profile() const noexcept { return *profile_; }
    const PhaseParams& phase() const noexcept { return profile_->phases[phase_idx_]; }
    std::size_t phase_index() const noexcept { return phase_idx_; }
    std::uint64_t insts_retired() const noexcept { return insts_retired_; }

    /// Advances architectural state by `n` dispatched instructions,
    /// including the phase machine and warmup decay.  Additive:
    /// retire(a) then retire(b) leaves the state retire(a + b) does, which
    /// lets the SMT core retire once per run() call.
    void retire(std::uint64_t n) noexcept;

    /// Frontend event randomness (gap, branch/ICache split, miss level).
    common::Rng& fe_rng() noexcept { return fe_rng_; }
    /// Backend event randomness (gap, data miss level).
    common::Rng& be_rng() noexcept { return be_rng_; }

    pmu::CounterBank& counters() noexcept { return counters_; }
    const pmu::CounterBank& counters() const noexcept { return counters_; }

    /// Begins a cold-cache window after a migration: miss rates are
    /// multiplied by up to `multiplier`, decaying linearly over `insts`.
    /// Ignored while a stronger window — larger remaining penalized area —
    /// is still in effect (a cheap local move must not truncate a live
    /// cross-chip penalty, however far that window has decayed).
    void start_warmup(std::uint64_t insts, double multiplier) noexcept;

    /// Current cold-cache miss multiplier (1.0 once warm).
    double warmup_multiplier() const noexcept;

private:
    void enter_phase(std::size_t idx) noexcept;

    int id_;
    const AppProfile* profile_;
    common::Rng phase_rng_;
    common::Rng fe_rng_;
    common::Rng be_rng_;
    std::uint64_t insts_retired_ = 0;

    std::size_t phase_idx_ = 0;
    std::uint64_t phase_insts_left_ = 0;

    std::uint64_t warmup_total_ = 0;
    std::uint64_t warmup_left_ = 0;
    double warmup_peak_ = 1.0;

    pmu::CounterBank counters_;
};

}  // namespace synpa::apps
