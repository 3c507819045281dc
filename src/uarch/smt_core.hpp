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
// tick() is one busy cycle, the reference.  run(n) equals n tick() calls
// bit for bit but takes three shortcuts.  Before each cycle it folds over
// the bound slots once: how many are busy (may fetch next cycle: not
// frontend-stalled past it and room in the fetch buffer; or may dispatch:
// not backend-stalled and a non-empty buffer), and how many cycles every
// other slot stays quiet.
//  * no busy slot: the idle stretch in one step.  An idle cycle draws no
//    random number and only moves stall timers, stall counters, dispatch
//    credit and the dispatch-priority rotator, all of which advance in
//    closed form.  A core with no bound slot is idle for the whole call;
//  * exactly one busy slot, in the steady class: its stretch in one
//    step, the other slots passing it as idle.  The slot qualifies with
//    no backend stall, a frontend stall that ends next cycle, both event
//    distances drawn and a credit c in [0, 1), with a demand d in [2, 3]
//    on a core that fetches, buffers and dispatches at least 3, or in
//    (3, 4) on one that does at least 4 (the most a cycle grants, so the
//    buffer never limits a grant).  In units of 2^-51 (the spacing of the
//    doubles in [2, 4)) c and d are integers.  For d in [2, 3] every
//    c + d < 4 is exact, so the n cycles' grants, fetches, buffer and
//    credit are closed formulas.  For d in (3, 4) a sum from 4 up rounds
//    to the 2^-50 spacing of [4, 8), ties to even, and stays below 5, so
//    each cycle grants 3 or 4 and leaves an integer credit: the stretch
//    steps that integer recurrence, a run of grant-3 cycles and its carry
//    at a time.  The stretch stops before any event (no random number is
//    drawn inside it), at the quiet horizon and at 4096 cycles;
//  * a core with exactly one bound slot runs on the width-1 loop, whose
//    rotators never move, and afterwards catches the rotators up to where
//    the configured width would have left them.
//
// Both run one loop, instantiated per width, that tallies each slot's
// cycle, dispatch and stall counts and hands them to the task when the
// call ends: a task's counters and insts_retired() are current only
// between calls.  Nothing inside a call reads them, and one retire of the
// sum equals a retire per cycle.
//
// The loop keeps its hot state in locals (SmtCore::LaneState): each lane's
// fetch buffer, stall timers, DRAM flag, event distances, dispatch credit
// and demand, and the core's ICache port, rotators and cycle tallies are
// copied in when a call starts.  Lanes are named only by compile-time
// constants, so none of this state has its address taken and it can live
// in registers.  The write-back contract: the trigger_* calls read the
// ThreadContexts of every slot and the ICache port, so every lane and the
// port are written back right before each of them, and the event lane and
// the port are read back right after it; everything is written back once
// more when the call ends.  Between calls the ThreadContexts and members
// are current.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "uarch/sim_config.hpp"
#include "uarch/thread_context.hpp"

namespace synpa::uarch {

/// Core-cycles SmtCore stepped as busy cycles and core-cycles it applied
/// in bulk as idle; `jumped` is the part of `ticked` run() applied in one
/// step as one lane's steady stretch.  Deterministic work: all three
/// depend only on the simulated state, never on the host.
struct CycleCounts {
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    std::uint64_t jumped = 0;

    CycleCounts& operator+=(const CycleCounts& o) noexcept {
        ticked += o.ticked;
        skipped += o.skipped;
        jumped += o.jumped;
        return *this;
    }
};

class SmtCore {
public:
    explicit SmtCore(const SimConfig& cfg)
        : cfg_(&cfg), fetch_buffer_entries_(cfg.fetch_buffer_entries),
          fetch_width_(cfg.fetch_width), dispatch_width_(cfg.dispatch_width),
          credit_cap_(2.0 * static_cast<double>(cfg.dispatch_width)) {}

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
    std::uint64_t tick() noexcept { return advance(1, false); }

    /// Advances the core `cycles` cycles; identical to that many tick()
    /// calls (same state, counters and RNG streams afterwards) and returns
    /// the sum of their memory accesses.
    std::uint64_t run(std::uint64_t cycles) noexcept { return advance(cycles, true); }

    /// Cycles run() and tick() have stepped and skipped so far.
    const CycleCounts& cycle_counts() const noexcept { return cycles_; }

private:
    /// The state of one advance_ways<W> call, kept in locals (see the file
    /// comment); `Lanes` is the index sequence 0..W-1.
    template <int W, class Lanes = std::make_integer_sequence<int, W>> struct LaneState;

    /// Advances `cycles` cycles, taking run()'s shortcuts only when `bulk`
    /// (tick() steps its cycle as a plain busy cycle at the configured width).
    std::uint64_t advance(std::uint64_t cycles, bool bulk) noexcept;
    /// The loop for `W` lanes; on the width-1 loop `fetched` receives
    /// whether the lane fetched during the call.
    template <int W>
    std::uint64_t advance_ways(std::uint64_t cycles, bool bulk,
                               bool* fetched = nullptr) noexcept;
    /// run() on a wider core with only `slot` bound: the width-1 loop on
    /// that slot, then the rotator catch-up.
    std::uint64_t run_lone_slot(int slot, std::uint64_t cycles) noexcept;
    /// Lane `s` of the loop for `W` lanes: slot `s`, or on the width-1
    /// loop the slot it steps.
    template <int W> ThreadContext& lane(int s) noexcept {
        return slots_[static_cast<std::size_t>(W == 1 ? solo_ : s)];
    }

    void trigger_frontend_event(ThreadContext& t, double fe_p, double fe_log) noexcept;
    /// Returns the number of DRAM accesses caused by the episode (0 or batch).
    std::uint64_t trigger_backend_episode(ThreadContext& t, double be_p, double be_log) noexcept;
    int slot_index(const ThreadContext& t) const noexcept {
        return static_cast<int>(&t - slots_.data());
    }

    const SimConfig* cfg_;
    // Hot config fields, copied so stores to slot state cannot force reloads.
    int fetch_buffer_entries_;
    int fetch_width_;
    int dispatch_width_;
    double credit_cap_;  ///< dispatch credit saturates at 2x the dispatch width
    std::array<ThreadContext, kMaxSmtWays> slots_{};
    int fetch_rr_ = 0;      ///< fetch-port round-robin pointer
    int dispatch_pri_ = 0;  ///< dispatch-priority rotator
    int icache_busy_ = 0;   ///< cycles until the ICache miss port frees up
    int solo_ = 0;          ///< slot the width-1 loop steps (0 on an SMT-1 core)
    CycleCounts cycles_;
};

}  // namespace synpa::uarch
