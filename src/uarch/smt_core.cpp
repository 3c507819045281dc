#include "uarch/smt_core.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

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

/// The state of one advance_ways<W> call: every lane's hot state and
/// tallies, the rotators, the ICache port and the cycle tallies.  Each
/// member works on one lane named by a constant (one of I...) or folds over
/// all of them, so once the members are inlined the object is a set of
/// scalars the compiler can keep in registers.  A lane picked at run time
/// (fetch, dispatch priority) is matched against each constant in turn.
template <int W, int... I>
struct SmtCore::LaneState<W, std::integer_sequence<int, I...>> {
    // The steady stretch's units (see steady<L>): 2^-51, the spacing of the
    // doubles in [2, 4).
    static constexpr int kUnitBits = 51;
    static constexpr std::uint64_t kOne = std::uint64_t{1} << kUnitBits;  ///< 1.0 in units
    static constexpr double kPerUnit = static_cast<double>(kOne);  ///< units per 1.0
    static constexpr std::uint64_t kNoSteady = std::numeric_limits<std::uint64_t>::max();
    /// The longest steady stretch: 2^12 R <= 2^63 keeps C + nR in 64 bits.
    static constexpr std::uint64_t kMaxSteady = 4096;

    /// One lane: the bound slot's ThreadContext state, copied in by load;
    /// the event-gap probabilities (with their precomputed
    /// Rng::geometric_log), fixed for the call; and the PMU tallies handed
    /// to the task when the call ends.
    struct Lane {
        int fetch_buffer = 0;
        int fe_stall = 0;
        int be_stall = 0;
        bool dram_stall = false;
        std::int64_t insts_until_fe = -1;
        std::int64_t insts_until_be = -1;
        double dispatch_credit = 0.0;
        double dispatch_demand = 0.0;

        bool bound = false;
        /// The demand above its steady base, in units (see steady<L>): d - 2
        /// for d in [2, 3], d - 3 for d in (3, 4), where `steady_rounds`.
        std::uint64_t steady_rate = kNoSteady;
        bool steady_rounds = false;
        /// With `steady_rounds`: the cycles that grant 3 between two carries
        /// from a credit of 0, floor((2^51 - 1) / steady_rate).
        std::uint64_t steady_run = 0;
        double fe_p = 0.0, fe_log = 0.0;  ///< frontend event probability per inst
        double be_p = 0.0, be_log = 0.0;  ///< backend episode probability per inst

        std::uint64_t granted = 0;  ///< INST_SPEC and INST_RETIRED from dispatch
        std::uint64_t stall_fe = 0, stall_rob = 0, stall_iq = 0;
        bool fetched = false;  ///< fetched at least once (width-1 loop only)
    };

    explicit LaneState(SmtCore& c) noexcept
        : core(c), icache_busy(c.icache_busy_), fetch_rr(c.fetch_rr_),
          dispatch_pri(c.dispatch_pri_), entries(c.fetch_buffer_entries_),
          fetch_width(c.fetch_width_), width(c.dispatch_width_), credit_cap(c.credit_cap_) {
        (open<I>(), ...);
    }

    template <int L>
    void open() noexcept {
        const ThreadContext& t = core.lane<W>(L);
        Lane& l = lanes[L];
        l.bound = t.bound();
        if (!l.bound) {
            // A full buffer and no demand: the busy cycle never fetches
            // into this lane or dispatches from it, and needs no check.
            l.fetch_buffer = entries;
            return;
        }
        load<L>();
        const double d = t.rates.dispatch_demand;
        l.dispatch_demand = d;
        // The steady stretch needs a core that grants floor(credit + demand)
        // from a buffer that fetch keeps at least that full: fetch, buffer
        // and dispatch widths of 3 or more for a demand in [2, 3] (grants of
        // at most 3), of 4 or more for a demand in (3, 4) (at most 4).
        const int narrowest = std::min({fetch_width, entries, width});
        if (d >= 2.0 && d <= 3.0 && narrowest >= 3) {
            l.steady_rate = static_cast<std::uint64_t>((d - 2.0) * kPerUnit);
        } else if (d > 3.0 && d < 4.0 && narrowest >= 4) {
            l.steady_rate = static_cast<std::uint64_t>((d - 3.0) * kPerUnit);
            l.steady_rounds = true;
            l.steady_run = (kOne - 1) / l.steady_rate;
        }
        l.fe_p = std::max(t.rates.p_branch + t.rates.p_icache, 1e-9);
        l.fe_log = common::Rng::geometric_log(l.fe_p);
        l.be_p = std::max(t.rates.p_episode, 1e-9);
        l.be_log = common::Rng::geometric_log(l.be_p);
    }

    // The write-back contract: the trigger_* calls read every bound slot's
    // ThreadContext and the ICache port, and write the event lane's and the
    // port.  So store() writes everything back right before each call, and
    // reload<L>() rereads the event lane and the port right after it.
    template <int L>
    void store() noexcept {
        const Lane& l = lanes[L];
        if (!l.bound) return;
        ThreadContext& t = core.lane<W>(L);
        t.fetch_buffer = l.fetch_buffer;
        t.fe_stall = l.fe_stall;
        t.be_stall = l.be_stall;
        t.dram_stall = l.dram_stall;
        t.insts_until_fe = l.insts_until_fe;
        t.insts_until_be = l.insts_until_be;
        t.dispatch_credit = l.dispatch_credit;
    }
    void store() noexcept {
        (store<I>(), ...);
        core.icache_busy_ = icache_busy;
    }
    template <int L>
    void load() noexcept {
        Lane& l = lanes[L];
        if (!l.bound) return;
        const ThreadContext& t = core.lane<W>(L);
        l.fetch_buffer = t.fetch_buffer;
        l.fe_stall = t.fe_stall;
        l.be_stall = t.be_stall;
        l.dram_stall = t.dram_stall;
        l.insts_until_fe = t.insts_until_fe;
        l.insts_until_be = t.insts_until_be;
        l.dispatch_credit = t.dispatch_credit;
    }
    template <int L>
    void reload() noexcept {
        load<L>();
        icache_busy = core.icache_busy_;
    }

    /// What the next cycle may do: how many lanes are busy (busy<L>), the
    /// last of them, and how many cycles from now every other lane stays
    /// quiet (UINT64_MAX when none is bound).
    struct Outlook {
        int busy = 0;
        int lane = 0;
        std::uint64_t quiet = std::numeric_limits<std::uint64_t>::max();
    };
    [[gnu::always_inline]] Outlook outlook() const noexcept {
        Outlook o;
        (outlook<I>(o), ...);
        return o;
    }
    template <int L>
    [[gnu::always_inline]] void outlook(Outlook& o) const noexcept {
        std::uint64_t k = o.quiet;
        if (busy<L>(k)) {
            ++o.busy;
            o.lane = L;
        } else {
            o.quiet = k;
        }
    }
    /// Whether lane L may fetch or dispatch next cycle; otherwise caps `k`
    /// at the cycles until it may.  A lane can fetch in the cycle its
    /// fe_stall reaches 0 (a cycle decrements before fetching) unless its
    /// buffer is full; it can dispatch once be_stall is 0 unless its buffer
    /// is empty (a buffer that stays empty keeps it from dispatching however
    /// much credit accrues).
    template <int L>
    bool busy(std::uint64_t& k) const noexcept {
        const Lane& l = lanes[L];
        if (!l.bound) return false;
        if (l.fetch_buffer < entries) {
            if (l.fe_stall <= 1) return true;
            k = std::min(k, static_cast<std::uint64_t>(l.fe_stall - 1));
        }
        if (l.be_stall > 0)
            k = std::min(k, static_cast<std::uint64_t>(l.be_stall));
        else if (l.fetch_buffer != 0)
            return true;
        return false;
    }

    /// Applies `k` idle cycles, k <= outlook().quiet with no lane busy:
    /// exactly what k idle cycles stepped one at a time do.  Nothing is
    /// fetched or granted, so each bound lane counts k cycles of its stall
    /// and its timers run down.
    void skip(std::uint64_t k) noexcept {
        (skip<I>(k), ...);
        pass(k);
    }
    /// The core's part of k cycles that trigger no event: the ICache port
    /// runs down and dispatch priority moves one lane per cycle.
    [[gnu::always_inline]] void pass(std::uint64_t k) noexcept {
        icache_busy = run_down(icache_busy, k);
        constexpr auto w = static_cast<std::uint64_t>(W);
        dispatch_pri = static_cast<int>((static_cast<std::uint64_t>(dispatch_pri) + k % w) % w);
    }
    static int run_down(int timer, std::uint64_t k) noexcept {
        return k >= static_cast<std::uint64_t>(timer) ? 0 : timer - static_cast<int>(k);
    }
    template <int L>
    void skip(std::uint64_t k) noexcept {
        Lane& l = lanes[L];
        if (!l.bound) return;
        if (l.be_stall > 0) {
            l.stall_rob += k;
            l.be_stall -= static_cast<int>(k);
            if (l.be_stall == 0) l.dram_stall = false;
        } else {
            l.stall_fe += k;
            // The credit recurrence one cycle at a time, as dispatch runs
            // it, until it reaches a bitwise fixed point.
            double credit = l.dispatch_credit;
            for (std::uint64_t c = 0; c < k; ++c) {
                const double next = std::min(credit + l.dispatch_demand, credit_cap);
                if (std::bit_cast<std::uint64_t>(next) == std::bit_cast<std::uint64_t>(credit))
                    break;
                credit = next;
            }
            l.dispatch_credit = credit;
        }
        l.fe_stall = run_down(l.fe_stall, k);
    }

    /// Applies up to `cap` cycles, cap <= outlook().quiet, in which lane
    /// `busy` is the only busy lane, in one step (see steady<L>); the
    /// other lanes pass them as idle.  Returns how many, 0 when the next
    /// cycle must be stepped.
    [[gnu::always_inline]] std::uint64_t jump(int busy, std::uint64_t cap) noexcept {
        std::uint64_t n = 0;
        static_cast<void>(((busy == I && (n = steady<I>(cap), true)) || ...));
        if (n == 0) return 0;
        ((I != busy ? skip<I>(n) : void()), ...);
        pass(n);
        return n;
    }

    /// Lane L's steady stretch: up to `cap` cycles (cap <= outlook().quiet,
    /// so no other lane fetches or dispatches) in which L fetches and
    /// dispatches undisturbed, applied in one step.  L qualifies with no
    /// backend stall, a frontend stall that ends in the next cycle, both
    /// event distances drawn, a steady demand d (see open<L>) and a credit
    /// c in [0, 1).  In units of 2^-51, the spacing of the doubles in
    /// [2, 4), c is an integer C: the credit and the grants of the n cycles
    /// follow from C in integers, in closed form for d in [2, 3]
    /// (closed_stretch) and one cycle at a time for d in (3, 4)
    /// (stepped_stretch).  Every grant is 2, 3 or 4, so no stall is counted.
    /// The fetch port refills the buffer b0 up to E entries at fetch width
    /// fw (at least every grant, so dispatch never waits on it): it fetches
    /// F(n) = min(fw n, E - b0 + G(n-1)) over the n cycles that grant G(n).
    /// The stretch ends before the grant that reaches insts_until_be and
    /// after the fetch that reaches insts_until_fe at the latest, so no
    /// event fires and no random number is drawn inside it; it also ends at
    /// kMaxSteady cycles.
    template <int L>
    [[gnu::always_inline]] std::uint64_t steady(std::uint64_t cap) noexcept {
        Lane& l = lanes[L];
        const double c = l.dispatch_credit;
        if (!(c < 1.0) || l.fe_stall > 1 || l.be_stall != 0 || l.steady_rate == kNoSteady ||
            l.insts_until_fe < 0 || l.insts_until_be < 0 || !(c >= 0.0))
            return 0;
        const double c_units = c * kPerUnit;
        const auto C = static_cast<std::uint64_t>(c_units);
        if (static_cast<double>(C) != c_units) return 0;
        const std::uint64_t most = std::min(cap, kMaxSteady);
        const Stretch s =
            l.steady_rounds ? stepped_stretch(l, C, most) : closed_stretch(l, C, most);
        if (s.cycles == 0) return 0;

        l.fetch_buffer += static_cast<int>(s.fetched - s.granted);
        l.fe_stall = 0;
        l.insts_until_fe -= s.fetched;
        l.insts_until_be -= s.granted;
        l.dispatch_credit = static_cast<double>(s.credit) / kPerUnit;
        l.granted += static_cast<std::uint64_t>(s.granted);
        if (s.fetched > 0) {
            fetch_rr = L + 1 == W ? 0 : L + 1;
            if constexpr (W == 1) l.fetched = true;
        }
        return s.cycles;
    }
    /// A steady stretch's length and totals, and the credit it leaves in
    /// units.
    struct Stretch {
        std::uint64_t cycles = 0;
        std::int64_t granted = 0;
        std::int64_t fetched = 0;
        std::uint64_t credit = 0;
    };
    /// F(n) for lane `l` after n cycles whose first n - 1 granted `g_prev`.
    std::int64_t fetched_by(const Lane& l, std::uint64_t n, std::int64_t g_prev) const noexcept {
        return std::min(std::int64_t{fetch_width} * static_cast<std::int64_t>(n),
                        entries - l.fetch_buffer + g_prev);
    }

    /// The stretch for d in [2, 3], d - 2 = R units, in closed form: every
    /// sum c + d stays below 4 and is exact, so the credit after n cycles is
    /// ((C + nR) mod 2^51) units and the n cycles grant
    /// G(n) = 2n + floor((C + nR) / 2^51).  kMaxSteady keeps nR in 64 bits.
    [[gnu::always_inline]] Stretch closed_stretch(const Lane& l, std::uint64_t C,
                                                  std::uint64_t most) const noexcept {
        const std::uint64_t R = l.steady_rate;
        const double c = l.dispatch_credit;
        const double d = l.dispatch_demand;
        const auto grants = [C, R](std::uint64_t n) {
            return static_cast<std::int64_t>(2 * n + ((C + n * R) >> kUnitBits));
        };
        // The largest n <= most with grants(n) < t, i.e. n d + c < t: a
        // double estimate, corrected against the exact count.
        const auto most_below = [&](std::int64_t t, std::uint64_t most) {
            if (t <= 0) return std::uint64_t{0};
            const double est = std::ceil((static_cast<double>(t) - c) / d) - 1.0;
            std::uint64_t n = est <= 0.0                              ? 0
                              : est >= static_cast<double>(most) ? most
                                                                 : static_cast<std::uint64_t>(est);
            while (n > 0 && grants(n) >= t) --n;
            while (n < most && grants(n + 1) < t) ++n;
            return n;
        };
        std::uint64_t n = most_below(l.insts_until_be, most);
        if (n == 0) return {};
        if (fetched_by(l, n, grants(n - 1)) > l.insts_until_fe) {
            // Cut at the last cycle whose fetch fits: fw n fits, or the
            // buffer's refill does.
            const std::int64_t refill_left = l.insts_until_fe - (entries - l.fetch_buffer);
            n = std::max(static_cast<std::uint64_t>(l.insts_until_fe / fetch_width),
                         refill_left < 0 ? 0 : most_below(refill_left + 1, n - 1) + 1);
            if (n == 0) return {};
        }
        return {.cycles = n,
                .granted = grants(n),
                .fetched = fetched_by(l, n, grants(n - 1)),
                .credit = (C + n * R) & (kOne - 1)};
    }

    /// The stretch for d in (3, 4), d - 3 = R units, stepped in integers.
    /// A sum C + R below 2^51 is exact and grants 3.  Otherwise c + d is
    /// 4 + X units with X = C + R - 2^51 <= 2^51 - 2, which rounds to the
    /// 2^-50 spacing of the doubles in [4, 8) (after_carry), so the sum
    /// stays below 5: the grant is 4 and the credit cap (2 x width >= 8)
    /// never binds.  The rounding leaves no closed form in n, so the
    /// stretch goes a run at a time, k cycles that grant 3 and the carry
    /// that ends them, and steps the cycles short of a cut one at a time.
    [[gnu::always_inline]] Stretch stepped_stretch(const Lane& l, std::uint64_t C,
                                                   std::uint64_t most) const noexcept {
        const std::uint64_t R = l.steady_rate;
        Stretch s{.credit = C};
        for (;;) {
            // A carry leaves a credit X <= R, from which the run is
            // steady_run cycles long or one shorter; only the first run may
            // start higher.
            const std::uint64_t k = s.credit > R ? (kOne - 1 - s.credit) / R
                                    : s.credit + l.steady_run * R < kOne ? l.steady_run
                                                                         : l.steady_run - 1;
            const std::uint64_t n = s.cycles + k + 1;
            const std::int64_t before_carry = s.granted + 3 * static_cast<std::int64_t>(k);
            const std::int64_t f = fetched_by(l, n, before_carry);
            if (n > most || before_carry + 4 >= l.insts_until_be || f > l.insts_until_fe) break;
            s = {.cycles = n,
                 .granted = before_carry + 4,
                 .fetched = f,
                 .credit = after_carry(s.credit + (k + 1) * R - kOne)};
        }
        while (s.cycles < most) {
            const std::uint64_t sum = s.credit + R;
            const bool carry = sum >= kOne;
            const std::int64_t g = s.granted + (carry ? 4 : 3);
            const std::int64_t f = fetched_by(l, s.cycles + 1, s.granted);
            if (g >= l.insts_until_be || f > l.insts_until_fe) break;
            s = {.cycles = s.cycles + 1,
                 .granted = g,
                 .fetched = f,
                 .credit = carry ? after_carry(sum - kOne) : sum};
        }
        return s;
    }
    /// The credit, in units, that a sum of 4 + X units leaves: the sum
    /// rounds to a multiple of 2 units, ties to even, so an odd X becomes
    /// whichever of X - 1 and X + 1 is a multiple of 4.
    static std::uint64_t after_carry(std::uint64_t x) noexcept {
        return (x & 1) == 0 ? x : (x + 1) & ~std::uint64_t{3};
    }

    /// The start of a busy cycle: the ICache port and every frontend stall
    /// count down.
    void count_down() noexcept {
        if (icache_busy > 0) --icache_busy;
        (count_down<I>(), ...);
    }
    template <int L>
    void count_down() noexcept {
        Lane& l = lanes[L];
        if (l.fe_stall > 0) --l.fe_stall;
    }

    // fetch() and dispatch() are forced inline: at width 4 GCC would
    // otherwise call them, and the `this` they take would keep the whole
    // state in memory.

    /// Picks one lane for the single fetch port, round robin among those
    /// that need instructions and are not frontend-stalled.
    [[gnu::always_inline]] void fetch() noexcept {
        const unsigned ready = (ready_to_fetch<I>() | ...);
        if (ready == 0) return;
        // The first ready lane at or after fetch_rr, wrapping around.
        const unsigned rotated = (ready >> fetch_rr) | (ready << (W - fetch_rr));
        int chosen = fetch_rr + std::countr_zero(rotated);
        if (chosen >= W) chosen -= W;
        fetch_rr = chosen + 1 == W ? 0 : chosen + 1;
        static_cast<void>(((chosen == I && (fetch<I>(), true)) || ...));
    }
    template <int L>
    unsigned ready_to_fetch() const noexcept {
        const Lane& l = lanes[L];
        return l.fe_stall <= 0 && l.fetch_buffer < entries ? 1u << L : 0u;
    }
    template <int L>
    void fetch() noexcept {
        Lane& l = lanes[L];
        if constexpr (W == 1) l.fetched = true;
        if (l.insts_until_fe < 0)
            l.insts_until_fe = static_cast<std::int64_t>(
                core.lane<W>(L).task()->fe_rng().geometric(l.fe_p, l.fe_log));
        const int granted = std::min(fetch_width, entries - l.fetch_buffer);
        if (l.insts_until_fe < granted) {
            // The event interrupts the fetch group; instructions before it
            // land.
            l.fetch_buffer += static_cast<int>(l.insts_until_fe);
            store();
            core.trigger_frontend_event(core.lane<W>(L), l.fe_p, l.fe_log);
            reload<L>();
        } else {
            l.fetch_buffer += granted;
            l.insts_until_fe -= granted;
        }
    }

    /// Shares the dispatch slots among the lanes; returns the cycle's
    /// memory accesses.
    [[gnu::always_inline]] std::uint64_t dispatch() noexcept {
        (demand<I>(), ...);
        // Arbitrate the shared dispatch slots with rotating priority: the
        // highest-priority lane takes what it wants, later lanes (in
        // rotation order) share what remains.
        static_cast<void>(((dispatch_pri == I && (arbitrate_from<I>(), true)) || ...));
        dispatch_pri = dispatch_pri + 1 == W ? 0 : dispatch_pri + 1;
        std::uint64_t mem_accesses = 0;
        (dispatch<I>(mem_accesses), ...);
        return mem_accesses;
    }
    /// Lane L's demand for this cycle.
    template <int L>
    void demand() noexcept {
        Lane& l = lanes[L];
        want[L] = 0;
        if (l.be_stall > 0) return;
        l.dispatch_credit = std::min(l.dispatch_credit + l.dispatch_demand, credit_cap);
        want[L] = std::min({static_cast<int>(l.dispatch_credit), l.fetch_buffer, width});
    }
    template <int P>
    void arbitrate_from() noexcept {
        int remaining = width;
        ((grant[(P + I) % W] = std::min(want[(P + I) % W], remaining),
          remaining -= grant[(P + I) % W]),
         ...);
    }
    template <int L>
    void dispatch(std::uint64_t& mem_accesses) noexcept {
        Lane& l = lanes[L];
        const int g = grant[L];
        if (g > 0) {
            l.dispatch_credit -= g;
            l.fetch_buffer -= g;
            l.granted += static_cast<std::uint64_t>(g);
            if (l.insts_until_be < 0)
                l.insts_until_be = static_cast<std::int64_t>(
                    core.lane<W>(L).task()->be_rng().geometric(l.be_p, l.be_log));
            l.insts_until_be -= g;
            if (l.insts_until_be <= 0) {
                store();
                mem_accesses += core.trigger_backend_episode(core.lane<W>(L), l.be_p, l.be_log);
                reload<L>();
            }
            return;
        }
        // Nothing dispatched for this lane: attribute the stall the way the
        // ARM PMU does (paper §III-B): empty dispatch queue counts as a
        // frontend stall; anything else blocking dispatch is backend.
        if (l.be_stall > 0) {
            ++l.stall_rob;
            --l.be_stall;
            if (l.be_stall == 0) l.dram_stall = false;
        } else if (l.fetch_buffer == 0) {
            ++l.stall_fe;
        } else {
            // Dispatch bandwidth taken by co-runner lanes (or fractional
            // credit): a backend resource-unavailable cycle.
            ++l.stall_iq;
        }
    }

    /// Writes everything back and hands the tallies of a `cycles`-cycle call
    /// to the tasks; a lane is bound for every cycle of the call.
    void close(std::uint64_t cycles) noexcept {
        store();
        core.fetch_rr_ = fetch_rr;
        core.dispatch_pri_ = dispatch_pri;
        core.cycles_ += CycleCounts{.ticked = ticked, .skipped = skipped, .jumped = jumped};
        (close<I>(cycles), ...);
    }
    template <int L>
    void close(std::uint64_t cycles) noexcept {
        const Lane& l = lanes[L];
        if (!l.bound) return;
        apps::AppInstance& task = *core.lane<W>(L).task();
        pmu::CounterBank& counters = task.counters();
        counters.increment(Event::kCpuCycles, cycles);
        counters.increment(Event::kInstSpec, l.granted);
        counters.increment(Event::kInstRetired, l.granted);
        counters.increment(Event::kStallFrontend, l.stall_fe);
        counters.increment(Event::kStallBackend, l.stall_rob + l.stall_iq);
        counters.increment(Event::kStallBackendRob, l.stall_rob);
        counters.increment(Event::kStallBackendIq, l.stall_iq);
        if (l.granted > 0) task.retire(l.granted);
    }

    SmtCore& core;
    std::array<Lane, W> lanes{};
    std::array<int, W> want{};   ///< this cycle's dispatch demand per lane
    std::array<int, W> grant{};  ///< this cycle's dispatch grant per lane
    int icache_busy;
    int fetch_rr;
    int dispatch_pri;
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    std::uint64_t jumped = 0;
    const int entries;
    const int fetch_width;
    const int width;
    const double credit_cap;
};

template <int W>
std::uint64_t SmtCore::advance_ways(std::uint64_t cycles, bool bulk, bool* fetched) noexcept {
    LaneState<W> l(*this);
    std::uint64_t mem_accesses = 0;
    for (std::uint64_t left = cycles; left > 0;) {
        if (bulk) {
            const auto o = l.outlook();
            const std::uint64_t cap = std::min(o.quiet, left);
            if (o.busy == 0) {
                l.skip(cap);
                l.skipped += cap;
                left -= cap;
                continue;
            }
            if (o.busy == 1) {
                // A stretch cut short of `cap` ends before an event (or at
                // the length cap), so the cycle after it is stepped.
                const std::uint64_t n = l.jump(o.lane, cap);
                l.ticked += n;
                l.jumped += n;
                left -= n;
                if (n == cap) continue;
            }
        }
        // The busy cycle.
        l.count_down();
        l.fetch();
        mem_accesses += l.dispatch();
        ++l.ticked;
        --left;
    }
    l.close(cycles);
    if (fetched != nullptr) *fetched = l.lanes[0].fetched;
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
