#include "uarch/platform.hpp"

#include <set>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace synpa::uarch {

Platform::Platform(const SimConfig& cfg) : cfg_(cfg.validate()) {
    chips_.reserve(static_cast<std::size_t>(cfg_.num_chips));
    for (int c = 0; c < cfg_.num_chips; ++c) chips_.push_back(std::make_unique<Chip>(cfg_));
    if (cfg_.sim_threads > 1 && cfg_.num_chips > 1)
        engine_ = std::make_unique<ParallelQuantumEngine>(cfg_.sim_threads, cfg_.num_chips);
}

void Platform::bind(apps::AppInstance& task, CpuSlot where) {
    if (where.core < 0 || where.core >= core_count())
        throw std::out_of_range("Platform::bind: bad global core");
    const int target_chip = chip_of_core(where.core);
    chip(target_chip).bind(task, {.core = local_core(where.core), .slot = where.slot});

    // Cross-chip move: override the chip's local warmup (if any) with the
    // larger remote window.  Charged after the chip bind so the bigger
    // penalty wins regardless of the task's history on the target chip.
    const int* prev = last_chip_.find(task.id());
    if (prev != nullptr && *prev != target_chip) {
        task.start_warmup(cfg_.cross_chip_warmup_insts(), cfg_.cross_chip_miss_multiplier);
        ++cross_chip_migrations_;
    }
    last_chip_.insert_or_assign(task.id(), target_chip);
}

void Platform::unbind(int task_id) {
    const int* it = last_chip_.find(task_id);
    if (it == nullptr || !chip(*it).is_bound(task_id))
        throw std::logic_error("Platform::unbind: task not bound");
    chip(*it).unbind(task_id);
}

void Platform::forget_task(int task_id) noexcept {
    for (const auto& chip : chips_) chip->forget_task(task_id);
    last_chip_.erase(task_id);
}

CpuSlot Platform::placement(int task_id) const {
    const int* it = last_chip_.find(task_id);
    if (it == nullptr || !chip(*it).is_bound(task_id))
        throw std::logic_error("Platform::placement: task not bound");
    const CpuSlot local = chip(*it).placement(task_id);
    return {.core = *it * cores_per_chip() + local.core, .slot = local.slot};
}

bool Platform::is_bound(int task_id) const noexcept {
    const int* it = last_chip_.find(task_id);
    return it != nullptr && chip(*it).is_bound(task_id);
}

std::vector<apps::AppInstance*> Platform::bound_tasks() const {
    std::vector<apps::AppInstance*> out;
    for (const auto& chip : chips_) {
        const std::vector<apps::AppInstance*> local = chip->bound_tasks();
        out.insert(out.end(), local.begin(), local.end());
    }
    return out;
}

void Platform::set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer != nullptr && tracer->enabled() ? tracer : nullptr;
    if (tracer_ != nullptr) tracer_->prepare_chips(chip_count());
}

void Platform::run_quantum() {
    const bool trace_chips =
        tracer_ != nullptr && tracer_->wants(obs::EventKind::kChipQuantum);
    // One chip's traced quantum: the shard measures its own wall-clock and
    // writes only its chip's ring — no shared mutable state before the
    // barrier (the coordinator merges rings after the join, in ascending
    // chip order, so traces are identical at every SYNPA_SIM_THREADS).
    const auto run_chip_traced = [this](int c) {
        const double start_us = obs::host_now_us();
        chips_[static_cast<std::size_t>(c)]->run_quantum();
        const double stop_us = obs::host_now_us();
        obs::TraceEvent e;
        e.kind = obs::EventKind::kChipQuantum;
        e.quantum = quanta_;
        e.chip = c;
        e.value = stop_us - start_us;
        tracer_->emit_chip(c, std::move(e));
    };
    if (engine_) {
        // Fork/join: each chip's quantum runs on one shard; the barrier
        // inside run_chips completes before any platform-level state (or
        // any driver observe/bind code) runs.  Chip order within a shard
        // is ascending, so execution only differs from the serial loop by
        // interleaving across chips that share no state.
        if (trace_chips) {
            engine_->run_chips(run_chip_traced);
        } else {
            engine_->run_chips(
                [this](int c) { chips_[static_cast<std::size_t>(c)]->run_quantum(); });
        }
    } else {
        if (trace_chips) {
            for (int c = 0; c < chip_count(); ++c) run_chip_traced(c);
        } else {
            for (const auto& chip : chips_) chip->run_quantum();
        }
    }
    if (trace_chips) tracer_->merge_chip_events();
    now_ += cfg_.cycles_per_quantum;
    ++quanta_;
}

CycleCounts Platform::cycle_counts() const noexcept {
    CycleCounts n;
    for (const auto& chip : chips_) n += chip->cycle_counts();
    return n;
}

pmu::CounterBank Platform::task_counters(int task_id) const {
    const int* it = last_chip_.find(task_id);
    if (it == nullptr) throw std::logic_error("Platform::task_counters: unknown task");
    return chip(*it).task_counters(task_id);
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
