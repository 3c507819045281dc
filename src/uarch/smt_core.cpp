#include "uarch/smt_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "pmu/events.hpp"

namespace synpa::uarch {

using pmu::Event;

void SmtCore::trigger_frontend_event(ThreadContext& t) noexcept {
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
    t.insts_until_fe = static_cast<std::int64_t>(
        task.fe_rng().geometric(std::max(r.p_branch + r.p_icache, 1e-9)));
}

std::uint64_t SmtCore::trigger_backend_episode(ThreadContext& t) noexcept {
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
    t.insts_until_be =
        static_cast<std::int64_t>(task.be_rng().geometric(std::max(r.p_episode, 1e-9)));
    return mem_accesses;
}

void SmtCore::fetch_stage() noexcept {
    // Pick one thread for the single fetch port, round robin among those
    // that need instructions and are not frontend-stalled.
    const int ways = smt_ways();
    int chosen = -1;
    int idx = fetch_rr_;
    for (int k = 0; k < ways; ++k, idx = idx + 1 == ways ? 0 : idx + 1) {
        ThreadContext& t = slots_[static_cast<std::size_t>(idx)];
        if (!t.bound() || t.fe_stall > 0) continue;
        if (t.fetch_buffer >= cfg_->fetch_buffer_entries) continue;
        chosen = idx;
        break;
    }
    if (chosen < 0) return;
    fetch_rr_ = chosen + 1 == ways ? 0 : chosen + 1;

    ThreadContext& t = slots_[static_cast<std::size_t>(chosen)];
    apps::AppInstance& task = *t.task();
    if (t.insts_until_fe < 0)
        t.insts_until_fe = static_cast<std::int64_t>(
            task.fe_rng().geometric(std::max(t.rates.p_branch + t.rates.p_icache, 1e-9)));

    const int room = cfg_->fetch_buffer_entries - t.fetch_buffer;
    const int granted = std::min(cfg_->fetch_width, room);
    if (t.insts_until_fe < granted) {
        // The event interrupts the fetch group; instructions before it land.
        t.fetch_buffer += static_cast<int>(t.insts_until_fe);
        trigger_frontend_event(t);
    } else {
        t.fetch_buffer += granted;
        t.insts_until_fe -= granted;
    }
}

std::uint64_t SmtCore::dispatch_stage() noexcept {
    // Compute per-thread demand for this cycle.
    const int ways = smt_ways();
    std::array<int, kMaxSmtWays> want{};
    for (int i = 0; i < ways; ++i) {
        ThreadContext& t = slots_[static_cast<std::size_t>(i)];
        if (!t.bound() || t.be_stall > 0) continue;
        t.dispatch_credit =
            std::min(t.dispatch_credit + t.rates.dispatch_demand,
                     2.0 * static_cast<double>(cfg_->dispatch_width));
        want[static_cast<std::size_t>(i)] =
            std::min({static_cast<int>(t.dispatch_credit), t.fetch_buffer,
                      cfg_->dispatch_width});
    }

    // Arbitrate the shared dispatch slots with rotating priority: the
    // highest-priority thread takes what it wants, later threads (in
    // rotation order) share what remains.
    std::array<int, kMaxSmtWays> grant{};
    int remaining = cfg_->dispatch_width;
    int idx = dispatch_pri_;
    for (int k = 0; k < ways; ++k, idx = idx + 1 == ways ? 0 : idx + 1) {
        const auto i = static_cast<std::size_t>(idx);
        grant[i] = std::min(want[i], remaining);
        remaining -= grant[i];
    }
    dispatch_pri_ = dispatch_pri_ + 1 == ways ? 0 : dispatch_pri_ + 1;

    std::uint64_t mem_accesses = 0;
    for (int i = 0; i < ways; ++i) {
        ThreadContext& t = slots_[static_cast<std::size_t>(i)];
        if (!t.bound()) continue;
        apps::AppInstance& task = *t.task();
        task.counters().increment(Event::kCpuCycles);

        const int g = grant[static_cast<std::size_t>(i)];
        if (g > 0) {
            t.dispatch_credit -= g;
            t.fetch_buffer -= g;
            const auto gu = static_cast<std::uint64_t>(g);
            task.counters().increment(Event::kInstSpec, gu);
            task.counters().increment(Event::kInstRetired, gu);
            task.retire(gu);
            if (t.insts_until_be < 0)
                t.insts_until_be = static_cast<std::int64_t>(
                    task.be_rng().geometric(std::max(t.rates.p_episode, 1e-9)));
            t.insts_until_be -= g;
            if (t.insts_until_be <= 0) mem_accesses += trigger_backend_episode(t);
            continue;
        }

        // Nothing dispatched for this thread: attribute the stall the way
        // the ARM PMU does (paper §III-B): empty dispatch queue counts as a
        // frontend stall; anything else blocking dispatch is backend.
        if (t.be_stall > 0) {
            task.counters().increment(Event::kStallBackend);
            task.counters().increment(Event::kStallBackendRob);
            --t.be_stall;
            if (t.be_stall == 0) t.dram_stall = false;
        } else if (t.fetch_buffer == 0) {
            task.counters().increment(Event::kStallFrontend);
        } else {
            // Dispatch bandwidth taken by co-runner threads (or fractional
            // credit): a backend resource-unavailable cycle.
            task.counters().increment(Event::kStallBackend);
            task.counters().increment(Event::kStallBackendIq);
        }
    }
    return mem_accesses;
}

std::uint64_t SmtCore::tick() noexcept {
    if (icache_busy_ > 0) --icache_busy_;
    const int ways = smt_ways();
    for (int s = 0; s < ways; ++s) {
        ThreadContext& t = slots_[static_cast<std::size_t>(s)];
        if (t.bound() && t.fe_stall > 0) --t.fe_stall;
    }
    fetch_stage();
    return dispatch_stage();
}

std::uint64_t SmtCore::idle_cycles() const noexcept {
    // A slot can fetch in the cycle its fe_stall reaches 0 (tick decrements
    // before fetching) unless its buffer is full; it can dispatch once
    // be_stall is 0 unless its buffer is empty (a buffer that stays empty
    // keeps it from dispatching however much credit accrues).
    std::uint64_t k = std::numeric_limits<std::uint64_t>::max();
    const int ways = smt_ways();
    for (int s = 0; s < ways; ++s) {
        const ThreadContext& t = slots_[static_cast<std::size_t>(s)];
        if (!t.bound()) continue;
        if (t.fetch_buffer < cfg_->fetch_buffer_entries) {
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

void SmtCore::skip(std::uint64_t k) noexcept {
    // Exactly what k idle tick() calls do: nothing is fetched or granted,
    // so each bound slot counts k cycles of its stall and its timers run down.
    const double credit_cap = 2.0 * static_cast<double>(cfg_->dispatch_width);
    const auto run_down = [k](int timer) {
        return k >= static_cast<std::uint64_t>(timer) ? 0 : timer - static_cast<int>(k);
    };
    const int ways = smt_ways();
    for (int s = 0; s < ways; ++s) {
        ThreadContext& t = slots_[static_cast<std::size_t>(s)];
        if (!t.bound()) continue;
        pmu::CounterBank& counters = t.task()->counters();
        counters.increment(Event::kCpuCycles, k);
        if (t.be_stall > 0) {
            counters.increment(Event::kStallBackend, k);
            counters.increment(Event::kStallBackendRob, k);
            t.be_stall -= static_cast<int>(k);
            if (t.be_stall == 0) t.dram_stall = false;
        } else {
            counters.increment(Event::kStallFrontend, k);
            // The credit recurrence one cycle at a time, as dispatch_stage
            // runs it, until it reaches a bitwise fixed point.
            double credit = t.dispatch_credit;
            for (std::uint64_t c = 0; c < k; ++c) {
                const double next = std::min(credit + t.rates.dispatch_demand, credit_cap);
                if (std::bit_cast<std::uint64_t>(next) == std::bit_cast<std::uint64_t>(credit))
                    break;
                credit = next;
            }
            t.dispatch_credit = credit;
        }
        t.fe_stall = run_down(t.fe_stall);
    }
    icache_busy_ = run_down(icache_busy_);
    const auto w = static_cast<std::uint64_t>(ways);
    dispatch_pri_ = static_cast<int>((static_cast<std::uint64_t>(dispatch_pri_) + k % w) % w);
}

std::uint64_t SmtCore::run(std::uint64_t cycles) noexcept {
    std::uint64_t mem_accesses = 0;
    std::uint64_t left = cycles;
    while (left > 0) {
        const std::uint64_t k = std::min(idle_cycles(), left);
        if (k == 0) {
            mem_accesses += tick();
            ++cycles_.ticked;
            --left;
        } else {
            skip(k);
            cycles_.skipped += k;
            left -= k;
        }
    }
    return mem_accesses;
}

}  // namespace synpa::uarch
