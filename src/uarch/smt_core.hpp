// One SMT core of runtime width 1..kMaxSmtWays: per-cycle fetch-port
// arbitration, dispatch-slot sharing, and the stall accounting that feeds
// the PMU.
//
// Contention is mechanistic, never scripted:
//  * a single ICache fetch port rotates among threads that need it, and
//    ICache miss service is serialized (the paper's §VI-A observation that
//    "only a single thread can access the ICache at a given cycle");
//  * the four dispatch slots are arbitrated with rotating priority, so N
//    high-ILP threads each see roughly 1/N of the dispatch bandwidth;
//  * backend stall episodes hide less latency in SMT because the ROB is
//    partitioned among the *active* threads (headroom comes in via
//    EffectiveRates, computed by the chip).
//
// tick() is the one definition of a cycle.  run(n) equals n tick() calls bit
// for bit but applies idle stretches in one step: while no bound slot can
// fetch (each is frontend-stalled or holds a full fetch buffer) and none can
// dispatch (each is backend-stalled or has an empty fetch buffer), a cycle
// draws no random number and only moves stall timers, stall counters,
// dispatch credit and the dispatch-priority rotator, all of which advance
// in closed form.  A core with no bound slot is idle for the whole call.
#pragma once

#include <array>
#include <cstdint>

#include "uarch/sim_config.hpp"
#include "uarch/thread_context.hpp"

namespace synpa::uarch {

/// Core-cycles SmtCore::run executed through tick() and core-cycles it
/// applied in bulk as idle.  Deterministic work: both depend only on the
/// simulated state, never on the host.
struct CycleCounts {
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;

    CycleCounts& operator+=(const CycleCounts& o) noexcept {
        ticked += o.ticked;
        skipped += o.skipped;
        return *this;
    }
};

class SmtCore {
public:
    explicit SmtCore(const SimConfig& cfg) : cfg_(&cfg) {}

    ThreadContext& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }
    const ThreadContext& slot(int s) const { return slots_[static_cast<std::size_t>(s)]; }

    /// The configured SMT width: slots 0..smt_ways()-1 are usable.
    int smt_ways() const noexcept { return cfg_->smt_ways; }

    /// Number of SMT slots with a task bound.
    int active_threads() const noexcept {
        int n = 0;
        for (int s = 0; s < smt_ways(); ++s) n += slots_[static_cast<std::size_t>(s)].bound();
        return n;
    }

    /// True when the core actually multiplexes threads (>= 2 bound).
    bool smt_active() const noexcept { return active_threads() >= 2; }

    /// Advances the core one cycle.  Returns the number of chip-level memory
    /// accesses (LLC misses) triggered this cycle, for the bandwidth model.
    std::uint64_t tick() noexcept;

    /// Advances the core `cycles` cycles; identical to that many tick()
    /// calls (same state, counters and RNG streams afterwards) and returns
    /// the sum of their memory accesses.
    std::uint64_t run(std::uint64_t cycles) noexcept;

    /// Cycles run() has ticked and skipped so far.
    const CycleCounts& cycle_counts() const noexcept { return cycles_; }

private:
    /// How many cycles from now are certainly idle (see the file comment);
    /// 0 when the next cycle may fetch or dispatch, UINT64_MAX when no slot
    /// is bound.
    std::uint64_t idle_cycles() const noexcept;
    /// Applies `k` idle cycles, k <= idle_cycles().
    void skip(std::uint64_t k) noexcept;

    void fetch_stage() noexcept;
    std::uint64_t dispatch_stage() noexcept;
    void trigger_frontend_event(ThreadContext& t) noexcept;
    /// Returns the number of DRAM accesses caused by the episode (0 or batch).
    std::uint64_t trigger_backend_episode(ThreadContext& t) noexcept;
    int slot_index(const ThreadContext& t) const noexcept {
        return static_cast<int>(&t - slots_.data());
    }

    const SimConfig* cfg_;
    std::array<ThreadContext, kMaxSmtWays> slots_{};
    int fetch_rr_ = 0;      ///< fetch-port round-robin pointer
    int dispatch_pri_ = 0;  ///< dispatch-priority rotator
    int icache_busy_ = 0;   ///< cycles until the ICache miss port frees up
    CycleCounts cycles_;
};

}  // namespace synpa::uarch
