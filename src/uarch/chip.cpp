#include "uarch/chip.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/flat_map.hpp"
#include "uarch/cache.hpp"

namespace synpa::uarch {
namespace {

/// Miss multiplier relative to isolated execution: profiles encode isolated
/// rates, so only the *additional* pressure from sharing shows up.
double relative_miss_multiplier(double capacity, double share, double footprint,
                                double exponent, double cap) {
    const double cov_iso = coverage(capacity, footprint);
    const double cov_shared = coverage(std::min(share, capacity), footprint);
    const double mult =
        miss_multiplier(cov_shared, exponent, cap) / miss_multiplier(cov_iso, exponent, cap);
    return std::clamp(mult, 1.0, cap);
}

/// Saturating capacity-sharing model for data caches: the *hit* fraction
/// scales with the coverage ratio, hit_eff = hit_iso * (cov_sh/cov_iso)^k.
/// The effective exponent k = e * hit_iso places each application on its
/// miss-ratio curve: a thrashing application (low isolated hit ratio) sits
/// on the flat tail — LRU keeps protecting its hot lines, so losing
/// capacity barely moves its misses — while a cache-fitting application
/// sits on the steep part and loses hits quickly.  This asymmetry is what
/// makes cache-friendly phases fragile next to memory hogs while two
/// memory hogs coexist at moderate extra cost.
double shared_hit_fraction(double hit_iso, double capacity, double share, double footprint,
                           double exponent) {
    const double cov_iso = coverage(capacity, footprint);
    const double cov_shared = coverage(std::min(share, capacity), footprint);
    const double ratio = std::clamp(cov_shared / std::max(cov_iso, 1e-9), 0.0, 1.0);
    return hit_iso * std::pow(ratio, exponent * hit_iso);
}

}  // namespace

Chip::Chip(const SimConfig& cfg) : cfg_(cfg.validate()), memory_(cfg_) {
    cores_.assign(static_cast<std::size_t>(cfg_.cores), SmtCore(cfg_));
}

void Chip::bind(apps::AppInstance& task, CpuSlot where) {
    if (where.core < 0 || where.core >= core_count() || where.slot < 0 ||
        where.slot >= cfg_.smt_ways)
        throw std::out_of_range("Chip::bind: bad slot");
    if (placement_.contains(task.id())) throw std::logic_error("Chip::bind: task already bound");
    ThreadContext& ctx = cores_[static_cast<std::size_t>(where.core)].slot(where.slot);
    if (ctx.bound()) throw std::logic_error("Chip::bind: slot occupied");

    const int* prev = last_core_.find(task.id());
    if (prev != nullptr && *prev != where.core)
        task.start_warmup(cfg_.warmup_insts, cfg_.warmup_miss_multiplier);
    last_core_.insert_or_assign(task.id(), where.core);

    ctx.bind(&task);
    tasks_.insert_or_assign(task.id(), &task);
    placement_.insert_or_assign(task.id(), where);
}

void Chip::unbind(int task_id) {
    const CpuSlot* it = placement_.find(task_id);
    if (it == nullptr) throw std::logic_error("Chip::unbind: task not bound");
    cores_[static_cast<std::size_t>(it->core)].slot(it->slot).unbind();
    placement_.erase(task_id);
    tasks_.erase(task_id);
}

CpuSlot Chip::placement(int task_id) const {
    const CpuSlot* it = placement_.find(task_id);
    if (it == nullptr) throw std::logic_error("Chip::placement: task not bound");
    return *it;
}

std::vector<apps::AppInstance*> Chip::bound_tasks() const {
    std::vector<apps::AppInstance*> out;
    out.reserve(tasks_.size());
    tasks_.for_each([&out](int, apps::AppInstance* task) { out.push_back(task); });
    return out;
}

pmu::CounterBank Chip::task_counters(int task_id) const {
    apps::AppInstance* const* it = tasks_.find(task_id);
    if (it == nullptr) throw std::logic_error("Chip::task_counters: unknown task");
    return (*it)->counters();
}

void Chip::refresh_rates() {
    // Chip-wide LLC shares, proportional to current-phase footprints, in
    // bound-slot order (core, then slot) — the order the loop below reads
    // them back in.
    std::vector<double> llc_fp;
    for (auto& core : cores_)
        for (int s = 0; s < core.smt_ways(); ++s)
            if (core.slot(s).bound())
                llc_fp.push_back(core.slot(s).task()->phase().data_footprint_llc_mb);
    const std::vector<double> llc_share = proportional_shares(cfg_.llc_mb, llc_fp);
    std::size_t bound_index = 0;

    const double e = cfg_.cache_pressure_exponent;
    const double cap = cfg_.cache_miss_mult_cap;

    for (auto& core : cores_) {
        const int active = core.active_threads();
        const bool smt = active >= 2;
        for (int s = 0; s < core.smt_ways(); ++s) {
            ThreadContext& ctx = core.slot(s);
            if (!ctx.bound()) continue;
            const double share_mb = llc_share[bound_index++];
            apps::AppInstance& task = *ctx.task();
            const apps::PhaseParams& p = task.phase();
            const double warm = task.warmup_multiplier();

            // Total core-local footprint pressure: own footprint first, then
            // every co-runner's in slot order (L1I and L2 are shared by all
            // the core's active threads, however many the width allows).
            double code_fp_total = p.code_footprint_kb;
            double l2_fp_total = p.data_footprint_l2_kb;
            if (smt)
                for (int o = 0; o < core.smt_ways(); ++o) {
                    if (o == s || !core.slot(o).bound()) continue;
                    const apps::PhaseParams& op = core.slot(o).task()->phase();
                    code_fp_total += op.code_footprint_kb;
                    l2_fp_total += op.data_footprint_l2_kb;
                }

            EffectiveRates r;
            r.dispatch_demand = p.dispatch_demand;

            // Frontend: branch rate is intrinsic; ICache misses grow when the
            // co-runners' code competes for the 32 KB L1I, and when caches
            // are cold after a migration.
            const double fe_rate = p.fe_events_per_kinst / 1000.0;
            r.p_branch = fe_rate * p.fe_branch_fraction;
            double icache_mult = warm;
            if (smt) {
                const double share = cfg_.l1i_kb * p.code_footprint_kb /
                                     std::max(code_fp_total, 1e-9);
                icache_mult *= relative_miss_multiplier(cfg_.l1i_kb, share,
                                                        p.code_footprint_kb, e, cap);
            }
            r.p_icache = fe_rate * (1.0 - p.fe_branch_fraction) * icache_mult;
            r.icache_l2_fraction = p.icache_l2_fraction;

            // Backend: L2 is shared within the core, the LLC chip-wide.
            // Hit fractions scale with coverage ratios (saturating model).
            double l2_hit = p.l2_hit_fraction;
            if (smt) {
                const double share = cfg_.l2_kb * p.data_footprint_l2_kb /
                                     std::max(l2_fp_total, 1e-9);
                l2_hit = shared_hit_fraction(p.l2_hit_fraction, cfg_.l2_kb, share,
                                             p.data_footprint_l2_kb, e);
            }
            r.l2_hit_eff = l2_hit / std::max(warm, 1.0);

            r.llc_hit_eff = shared_hit_fraction(p.llc_hit_fraction, cfg_.llc_mb, share_mb,
                                                p.data_footprint_llc_mb, e);

            // Episodes: MLP batches misses; cold caches after a migration
            // temporarily raise the event rate (and lower hits, above).
            const double p_be = p.be_events_per_kinst / 1000.0 * warm;
            r.batch = std::max(1, static_cast<int>(std::lround(p.mlp)));
            r.p_episode = p_be / static_cast<double>(r.batch);

            // Latency hiding: the ROB is partitioned among *active* threads
            // (a core running one thread in SMT-4 mode keeps the full window).
            r.headroom_cycles = static_cast<int>(
                static_cast<double>(cfg_.rob_share(active)) / std::max(p.dispatch_demand, 1.0));
            r.mem_latency_eff =
                static_cast<int>(std::lround(cfg_.mem_latency * memory_.queue_factor()));

            ctx.rates = r;
        }
    }
}

CycleCounts Chip::cycle_counts() const noexcept {
    CycleCounts n;
    for (const SmtCore& core : cores_) n += core.cycle_counts();
    return n;
}

void Chip::run_quantum() {
    refresh_rates();
    std::uint64_t mem_accesses = 0;
    const std::uint64_t cycles = cfg_.cycles_per_quantum;
    // Core-major: no core reads another core's state inside a quantum, so
    // running each through the whole quantum equals the lockstep order.
    for (auto& core : cores_) mem_accesses += core.run(cycles);
    memory_.end_quantum(mem_accesses, cycles);
    now_ += cycles;
    ++quanta_;
}

}  // namespace synpa::uarch
