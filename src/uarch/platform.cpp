#include "uarch/platform.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace synpa::uarch {

Platform::Platform(const SimConfig& cfg) : cfg_(cfg.validate()) {
    chips_.reserve(static_cast<std::size_t>(cfg_.num_chips));
    for (int c = 0; c < cfg_.num_chips; ++c) chips_.push_back(std::make_unique<Chip>(cfg_));
    const int workers = std::min(cfg_.sim_threads, cfg_.num_chips);
    if (workers > 1)
        pool_ = std::make_unique<common::ThreadPool>(static_cast<std::size_t>(workers));
}

void Platform::bind(apps::AppInstance& task, CpuSlot where) {
    if (where.core < 0 || where.core >= core_count() || where.slot < 0 ||
        where.slot >= cfg_.smt_ways)
        throw std::out_of_range("Platform::bind: bad slot");
    const CpuSlot* last = placement_.find(task.id());
    if (last != nullptr && last->slot != kUnbound)
        throw std::logic_error("Platform::bind: task already bound");
    ThreadContext& ctx = context(where);
    if (ctx.bound()) throw std::logic_error("Platform::bind: slot occupied");

    // Local window on any core move, then the cross-chip window on top of
    // it when the chip changes (start_warmup keeps the larger window).
    if (last != nullptr && last->core != where.core) {
        task.start_warmup(cfg_.warmup_insts, cfg_.warmup_miss_multiplier);
        if (chip_of_core(last->core) != chip_of_core(where.core)) {
            task.start_warmup(cfg_.cross_chip_warmup_insts(), cfg_.cross_chip_miss_multiplier);
            ++cross_chip_migrations_;
        }
    }
    ctx.bind(&task);
    placement_.insert_or_assign(task.id(), where);
}

void Platform::unbind(int task_id) {
    CpuSlot* where = placement_.find(task_id);
    if (where == nullptr || where->slot == kUnbound)
        throw std::logic_error("Platform::unbind: task not bound");
    context(*where).unbind();
    where->slot = kUnbound;
}

void Platform::forget_task(int task_id) noexcept { placement_.erase(task_id); }

CpuSlot Platform::placement(int task_id) const {
    const CpuSlot* where = placement_.find(task_id);
    if (where == nullptr || where->slot == kUnbound)
        throw std::logic_error("Platform::placement: task not bound");
    return *where;
}

bool Platform::is_bound(int task_id) const noexcept {
    const CpuSlot* where = placement_.find(task_id);
    return where != nullptr && where->slot != kUnbound;
}

std::vector<const apps::AppInstance*> Platform::bound_tasks() const {
    std::vector<const apps::AppInstance*> out;
    placement_.for_each([&](int, CpuSlot where) {
        if (where.slot != kUnbound) out.push_back(core(where.core).slot(where.slot).task());
    });
    return out;
}

void Platform::set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer != nullptr && tracer->enabled() ? tracer : nullptr;
    if (tracer_ != nullptr) tracer_->prepare_chips(chip_count());
}

void Platform::run_quantum() {
    const bool trace_chips =
        tracer_ != nullptr && tracer_->wants(obs::EventKind::kChipQuantum);
    // Chips share no mutable state inside a quantum, so the join is the
    // only ordering that matters.  A traced chip measures its own
    // wall-clock and writes only its own ring; the coordinator merges the
    // rings after the join, in ascending chip order, so traces are
    // identical at every SYNPA_SIM_THREADS.
    common::parallel_for(pool_.get(), chips_.size(), [this, trace_chips](std::size_t c) {
        Chip& chip = *chips_[c];
        if (!trace_chips) {
            chip.run_quantum();
            return;
        }
        const double start_us = obs::host_now_us();
        chip.run_quantum();
        const double stop_us = obs::host_now_us();
        obs::TraceEvent e;
        e.kind = obs::EventKind::kChipQuantum;
        e.quantum = quanta_;
        e.chip = static_cast<int>(c);
        e.value = stop_us - start_us;
        tracer_->emit_chip(static_cast<int>(c), std::move(e));
    });
    if (trace_chips) tracer_->merge_chip_events();
    now_ += cfg_.cycles_per_quantum;
    ++quanta_;
}

CycleCounts Platform::cycle_counts() const noexcept {
    CycleCounts n;
    for (const auto& chip : chips_) n += chip->cycle_counts();
    return n;
}

void validate_platform(const Platform& platform) {
    const SimConfig& cfg = platform.config();
    std::set<int> seen;
    int bound = 0;
    for (int chip_id = 0; chip_id < platform.chip_count(); ++chip_id) {
        const Chip& chip = platform.chip(chip_id);
        if (chip.core_count() != cfg.cores)
            throw std::logic_error("validate_platform: chip core count mismatch");
        for (int c = 0; c < chip.core_count(); ++c) {
            const SmtCore& core = chip.core(c);
            for (int s = 0; s < kMaxSmtWays; ++s) {
                const ThreadContext& ctx = core.slot(s);
                if (!ctx.bound()) continue;
                if (s >= cfg.smt_ways)
                    throw std::logic_error(
                        "validate_platform: task bound beyond the configured SMT width");
                const int id = ctx.task()->id();
                if (!seen.insert(id).second)
                    throw std::logic_error("validate_platform: task " + std::to_string(id) +
                                           " bound to more than one slot");
                ++bound;
                const CpuSlot global = platform.placement(id);
                if (global.core != chip_id * cfg.cores + c || global.slot != s)
                    throw std::logic_error(
                        "validate_platform: placement map disagrees with slot state");
            }
        }
    }
    if (bound > platform.hw_contexts())
        throw std::logic_error("validate_platform: more bound tasks than hardware contexts");
    if (platform.bound_tasks().size() != static_cast<std::size_t>(bound))
        throw std::logic_error("validate_platform: bound_tasks() disagrees with slot scan");
}

}  // namespace synpa::uarch
