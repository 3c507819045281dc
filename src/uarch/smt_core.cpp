#include "uarch/smt_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "pmu/events.hpp"

namespace synpa::uarch {

using pmu::Event;

void SmtCore::trigger_frontend_event(ThreadContext& t, double fe_p, double fe_log) noexcept {
    apps::AppInstance& task = *t.task();
    const EffectiveRates& r = t.rates;
    const double total = r.p_branch + r.p_icache;
    const bool is_branch = total <= 0.0 || task.fe_rng().uniform() < r.p_branch / total;
    if (is_branch) {
        // Misprediction: wrong-path instructions already in the dispatch
        // queue go down the pipe before the redirect arrives.  They consume
        // dispatch slots and are counted by INST_SPEC (the paper's §III-B
        // deliberately keeps them: a wasted slot is a wasted slot), but they
        // make no architectural progress.  How many there are depends on the
        // queue occupancy, i.e. on contention — which is why the paper's
        // full-dispatch coefficients are a regression, not an identity.
        const auto wrong_path = static_cast<std::uint64_t>(
            std::min<std::int64_t>(t.fetch_buffer, static_cast<std::int64_t>(
                                                       task.fe_rng().below(9))));
        task.counters().increment(Event::kInstSpec, wrong_path);
        task.counters().increment(Event::kBrMisPred);
        t.fetch_buffer = 0;
        t.fe_stall = cfg_->branch_redirect_penalty;
        // Redirect refill contends for the single fetch port: if any other
        // thread is actively fetching, the first post-redirect grants
        // arrive a few cycles later.
        const int self = slot_index(t);
        for (int s = 0; s < smt_ways(); ++s) {
            if (s == self) continue;
            const ThreadContext& other = slots_[static_cast<std::size_t>(s)];
            if (other.bound() && other.fe_stall == 0) {
                t.fe_stall += 4;
                break;
            }
        }
    } else {
        // ICache miss: fetch blocks for the service latency; the miss port
        // is shared by every thread on the core, so back-to-back misses
        // serialize.
        task.counters().increment(Event::kL1iCacheRefill);
        const bool l2 = task.fe_rng().uniform() < r.icache_l2_fraction;
        const int service = l2 ? cfg_->l2_latency : cfg_->llc_latency;
        t.fe_stall = icache_busy_ + service;
        icache_busy_ += service;
    }
    t.insts_until_fe = static_cast<std::int64_t>(task.fe_rng().geometric(fe_p, fe_log));
}

std::uint64_t SmtCore::trigger_backend_episode(ThreadContext& t, double be_p,
                                               double be_log) noexcept {
    apps::AppInstance& task = *t.task();
    const EffectiveRates& r = t.rates;
    const auto batch = static_cast<std::uint64_t>(r.batch);
    task.counters().increment(Event::kL1dCacheRefill, batch);

    // Shared-window pressure: when another thread on the core is itself
    // blocked on memory, its instructions clog the shared ROB/MSHR
    // resources.  The effect is proportional to how often co-runners stall —
    // which is why a thread's backend stalls depend so strongly on the
    // *co-runners'* memory intensity (the large gamma of the paper's backend
    // category).  Track both "anyone blocked" and the longest remaining
    // DRAM-bound service among the blocked co-runners (the stream this
    // episode would queue behind).
    const int self = slot_index(t);
    bool sibling_blocked = false;
    int dram_queue_behind = 0;
    for (int s = 0; s < smt_ways(); ++s) {
        if (s == self) continue;
        const ThreadContext& other = slots_[static_cast<std::size_t>(s)];
        if (!other.bound() || other.be_stall <= 0) continue;
        sibling_blocked = true;
        if (other.dram_stall) dram_queue_behind = std::max(dram_queue_behind, other.be_stall);
    }

    const double u = task.be_rng().uniform();
    int latency = 0;
    bool dram = false;
    std::uint64_t mem_accesses = 0;
    if (u < r.l2_hit_eff) {
        latency = cfg_->l2_latency;
    } else if (u < r.l2_hit_eff + (1.0 - r.l2_hit_eff) * r.llc_hit_eff) {
        latency = cfg_->llc_latency;
        task.counters().increment(Event::kL2dCacheRefill, batch);
    } else {
        latency = r.mem_latency_eff;
        dram = true;
        task.counters().increment(Event::kL2dCacheRefill, batch);
        task.counters().increment(Event::kLlcCacheMiss, batch);
        mem_accesses = batch;
    }

    // Per-core MSHR serialization — the superadditive channel.  The core has
    // a limited pool of outstanding-miss slots; when several threads are in
    // DRAM-bound episodes simultaneously, the later stream queues behind the
    // remaining service time of the longest-running one.  Memory-phase
    // threads sharing one core therefore hurt each other far more than the
    // sum of their individual SMT costs, which is precisely the collision an
    // adaptive grouping policy can dodge and a static one cannot.
    if (dram && dram_queue_behind > 0)
        latency += std::min(dram_queue_behind, cfg_->mshr_serialization_cap);

    // Co-runner pressure is asymmetric by episode length.  An episode that
    // stalls anyway (latency beyond the window) gains nothing new from a
    // clogged window — its stall simply overlaps the co-runner's.  But an
    // episode the window normally hides *completely* finds the shared
    // ROB/MSHR slots occupied by a blocked co-runner and turns into a real
    // stall (service queues behind the co-runner's misses, and no window is
    // left to hide it).  This makes cache-friendly phases fragile next to
    // memory hogs while two memory hogs coexist at moderate extra cost —
    // the co-runner-dominated backend behaviour behind the paper's large
    // backend-category gamma.
    int headroom = r.headroom_cycles;
    if (sibling_blocked && latency <= headroom) {
        latency += cfg_->llc_latency;
        headroom = 0;
    }

    // The out-of-order window hides `headroom` cycles of the latency; the
    // rest blocks dispatch (ROB fills behind the oldest miss).
    const int stall = latency - headroom;
    if (stall > 0) {
        t.be_stall = stall;
        t.dram_stall = dram;
        task.counters().increment(Event::kStallBackendMem, static_cast<std::uint64_t>(stall));
    }
    t.insts_until_be = static_cast<std::int64_t>(task.be_rng().geometric(be_p, be_log));
    return mem_accesses;
}

template <int W>
void SmtCore::fetch_stage(SlotRuns<W>& runs) noexcept {
    // Pick one thread for the single fetch port, round robin among those
    // that need instructions and are not frontend-stalled.
    const int entries = fetch_buffer_entries_;
    int chosen = -1;
    int idx = fetch_rr_;
    for (int k = 0; k < W; ++k, idx = idx + 1 == W ? 0 : idx + 1) {
        const ThreadContext& t = lane<W>(idx);
        if (!t.bound() || t.fe_stall > 0 || t.fetch_buffer >= entries) continue;
        chosen = idx;
        break;
    }
    if (chosen < 0) return;
    fetch_rr_ = chosen + 1 == W ? 0 : chosen + 1;

    ThreadContext& t = lane<W>(chosen);
    SlotRun& run = runs[static_cast<std::size_t>(chosen)];
    if constexpr (W == 1) run.fetched = true;
    if (t.insts_until_fe < 0)
        t.insts_until_fe =
            static_cast<std::int64_t>(t.task()->fe_rng().geometric(run.fe_p, run.fe_log));

    const int granted = std::min(fetch_width_, entries - t.fetch_buffer);
    if (t.insts_until_fe < granted) {
        // The event interrupts the fetch group; instructions before it land.
        t.fetch_buffer += static_cast<int>(t.insts_until_fe);
        trigger_frontend_event(t, run.fe_p, run.fe_log);
    } else {
        t.fetch_buffer += granted;
        t.insts_until_fe -= granted;
    }
}

template <int W>
std::uint64_t SmtCore::dispatch_stage(SlotRuns<W>& runs) noexcept {
    // Compute per-thread demand for this cycle.
    const int width = dispatch_width_;
    const double credit_cap = credit_cap_;
    std::array<int, W> want{};
    for (int i = 0; i < W; ++i) {
        ThreadContext& t = lane<W>(i);
        if (!t.bound() || t.be_stall > 0) continue;
        t.dispatch_credit = std::min(t.dispatch_credit + t.rates.dispatch_demand, credit_cap);
        want[static_cast<std::size_t>(i)] =
            std::min({static_cast<int>(t.dispatch_credit), t.fetch_buffer, width});
    }

    // Arbitrate the shared dispatch slots with rotating priority: the
    // highest-priority thread takes what it wants, later threads (in
    // rotation order) share what remains.
    std::array<int, W> grant{};
    int remaining = width;
    int idx = dispatch_pri_;
    for (int k = 0; k < W; ++k, idx = idx + 1 == W ? 0 : idx + 1) {
        const auto i = static_cast<std::size_t>(idx);
        grant[i] = std::min(want[i], remaining);
        remaining -= grant[i];
    }
    dispatch_pri_ = dispatch_pri_ + 1 == W ? 0 : dispatch_pri_ + 1;

    std::uint64_t mem_accesses = 0;
    for (int i = 0; i < W; ++i) {
        ThreadContext& t = lane<W>(i);
        if (!t.bound()) continue;
        SlotRun& run = runs[static_cast<std::size_t>(i)];

        const int g = grant[static_cast<std::size_t>(i)];
        if (g > 0) {
            t.dispatch_credit -= g;
            t.fetch_buffer -= g;
            run.granted += static_cast<std::uint64_t>(g);
            if (t.insts_until_be < 0)
                t.insts_until_be = static_cast<std::int64_t>(
                    t.task()->be_rng().geometric(run.be_p, run.be_log));
            t.insts_until_be -= g;
            if (t.insts_until_be <= 0)
                mem_accesses += trigger_backend_episode(t, run.be_p, run.be_log);
            continue;
        }

        // Nothing dispatched for this thread: attribute the stall the way
        // the ARM PMU does (paper §III-B): empty dispatch queue counts as a
        // frontend stall; anything else blocking dispatch is backend.
        if (t.be_stall > 0) {
            ++run.stall_rob;
            --t.be_stall;
            if (t.be_stall == 0) t.dram_stall = false;
        } else if (t.fetch_buffer == 0) {
            ++run.stall_fe;
        } else {
            // Dispatch bandwidth taken by co-runner threads (or fractional
            // credit): a backend resource-unavailable cycle.
            ++run.stall_iq;
        }
    }
    return mem_accesses;
}

template <int W>
std::uint64_t SmtCore::idle_cycles() const noexcept {
    // A slot can fetch in the cycle its fe_stall reaches 0 (a cycle
    // decrements before fetching) unless its buffer is full; it can
    // dispatch once be_stall is 0 unless its buffer is empty (a buffer that
    // stays empty keeps it from dispatching however much credit accrues).
    std::uint64_t k = std::numeric_limits<std::uint64_t>::max();
    for (int s = 0; s < W; ++s) {
        const ThreadContext& t = lane<W>(s);
        if (!t.bound()) continue;
        if (t.fetch_buffer < fetch_buffer_entries_) {
            if (t.fe_stall <= 1) return 0;
            k = std::min(k, static_cast<std::uint64_t>(t.fe_stall - 1));
        }
        if (t.be_stall > 0)
            k = std::min(k, static_cast<std::uint64_t>(t.be_stall));
        else if (t.fetch_buffer != 0)
            return 0;
    }
    return k;
}

template <int W>
void SmtCore::skip(std::uint64_t k, SlotRuns<W>& runs) noexcept {
    // Exactly what k idle cycles stepped one at a time do: nothing is
    // fetched or granted, so each bound slot counts k cycles of its stall
    // and its timers run down.
    const auto run_down = [k](int timer) {
        return k >= static_cast<std::uint64_t>(timer) ? 0 : timer - static_cast<int>(k);
    };
    for (int s = 0; s < W; ++s) {
        ThreadContext& t = lane<W>(s);
        if (!t.bound()) continue;
        SlotRun& run = runs[static_cast<std::size_t>(s)];
        if (t.be_stall > 0) {
            run.stall_rob += k;
            t.be_stall -= static_cast<int>(k);
            if (t.be_stall == 0) t.dram_stall = false;
        } else {
            run.stall_fe += k;
            // The credit recurrence one cycle at a time, as dispatch_stage
            // runs it, until it reaches a bitwise fixed point.
            double credit = t.dispatch_credit;
            for (std::uint64_t c = 0; c < k; ++c) {
                const double next = std::min(credit + t.rates.dispatch_demand, credit_cap_);
                if (std::bit_cast<std::uint64_t>(next) == std::bit_cast<std::uint64_t>(credit))
                    break;
                credit = next;
            }
            t.dispatch_credit = credit;
        }
        t.fe_stall = run_down(t.fe_stall);
    }
    icache_busy_ = run_down(icache_busy_);
    constexpr auto w = static_cast<std::uint64_t>(W);
    dispatch_pri_ = static_cast<int>((static_cast<std::uint64_t>(dispatch_pri_) + k % w) % w);
}

template <int W>
std::uint64_t SmtCore::advance_ways(std::uint64_t cycles, bool bulk, bool* fetched) noexcept {
    SlotRuns<W> runs{};
    for (int s = 0; s < W; ++s) {
        const ThreadContext& t = lane<W>(s);
        if (!t.bound()) continue;
        SlotRun& run = runs[static_cast<std::size_t>(s)];
        run.fe_p = std::max(t.rates.p_branch + t.rates.p_icache, 1e-9);
        run.fe_log = common::Rng::geometric_log(run.fe_p);
        run.be_p = std::max(t.rates.p_episode, 1e-9);
        run.be_log = common::Rng::geometric_log(run.be_p);
    }

    std::uint64_t mem_accesses = 0;
    for (std::uint64_t left = cycles; left > 0;) {
        const std::uint64_t k = bulk ? std::min(idle_cycles<W>(), left) : 0;
        if (k > 0) {
            skip<W>(k, runs);
            cycles_.skipped += k;
            left -= k;
            continue;
        }
        // The busy cycle.
        if (icache_busy_ > 0) --icache_busy_;
        for (int s = 0; s < W; ++s) {
            ThreadContext& t = lane<W>(s);
            if (t.bound() && t.fe_stall > 0) --t.fe_stall;
        }
        fetch_stage<W>(runs);
        mem_accesses += dispatch_stage<W>(runs);
        ++cycles_.ticked;
        --left;
    }

    // Hand the tallies to the tasks; a slot is bound for every cycle of the call.
    for (int s = 0; s < W; ++s) {
        ThreadContext& t = lane<W>(s);
        if (!t.bound()) continue;
        const SlotRun& run = runs[static_cast<std::size_t>(s)];
        apps::AppInstance& task = *t.task();
        pmu::CounterBank& counters = task.counters();
        counters.increment(Event::kCpuCycles, cycles);
        counters.increment(Event::kInstSpec, run.granted);
        counters.increment(Event::kInstRetired, run.granted);
        counters.increment(Event::kStallFrontend, run.stall_fe);
        counters.increment(Event::kStallBackend, run.stall_rob + run.stall_iq);
        counters.increment(Event::kStallBackendRob, run.stall_rob);
        counters.increment(Event::kStallBackendIq, run.stall_iq);
        if (run.granted > 0) task.retire(run.granted);
    }
    if (fetched != nullptr) *fetched = runs[0].fetched;
    return mem_accesses;
}

std::uint64_t SmtCore::run_lone_slot(int slot, std::uint64_t cycles) noexcept {
    // The width-1 loop holds both rotators at 0.  Afterwards they stand
    // where the configured width would have left them: dispatch priority
    // moves one slot per cycle, busy or idle, and the fetch pointer moves
    // past the slot whenever it fetches.
    const int ways = smt_ways();
    const int pri = dispatch_pri_;
    const int rr = fetch_rr_;
    solo_ = slot;
    dispatch_pri_ = 0;
    fetch_rr_ = 0;
    bool fetched = false;
    const std::uint64_t mem_accesses = advance_ways<1>(cycles, true, &fetched);
    const auto w = static_cast<std::uint64_t>(ways);
    dispatch_pri_ = static_cast<int>((static_cast<std::uint64_t>(pri) + cycles % w) % w);
    fetch_rr_ = fetched ? (slot + 1) % ways : rr;
    return mem_accesses;
}

std::uint64_t SmtCore::advance(std::uint64_t cycles, bool bulk) noexcept {
    const int ways = smt_ways();
    if (bulk && ways > 1) {
        int lone = -1;
        for (int s = 0; s < ways; ++s) {
            if (!slots_[static_cast<std::size_t>(s)].bound()) continue;
            lone = lone == -1 ? s : -2;
        }
        if (lone >= 0) return run_lone_slot(lone, cycles);
    }
    switch (ways) {  // SimConfig::validate admits 1, 2 and 4
        case 1: return advance_ways<1>(cycles, bulk);
        case 2: return advance_ways<2>(cycles, bulk);
        default: return advance_ways<kMaxSmtWays>(cycles, bulk);
    }
}

}  // namespace synpa::uarch
