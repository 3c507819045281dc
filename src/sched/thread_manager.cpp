#include "sched/thread_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "apps/spec_suite.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"

namespace synpa::sched {

ThreadManager::ThreadManager(uarch::Platform& platform, AllocationPolicy& policy,
                             std::span<const TaskSpec> specs, Options opts)
    : platform_(platform), policy_(policy), opts_(opts),
      loop_(platform, policy, opts_.tracer, /*full_groups=*/true) {
    if (specs.size() != static_cast<std::size_t>(platform_.hw_contexts()))
        throw std::invalid_argument("ThreadManager: task count must fill the platform");
    if (opts_.max_quanta == 0)
        throw std::invalid_argument("ThreadManager: max_quanta must be > 0");
    slots_.reserve(specs.size());
    for (const TaskSpec& spec : specs) {
        loop_.add({.task = std::make_unique<apps::AppInstance>(
                       next_task_id_++, apps::find_app(spec.app_name), spec.seed),
                   .app_name = spec.app_name,
                   .slot_index = static_cast<int>(slots_.size()),
                   .finish_insts = spec.target_insts > 0 ? spec.target_insts : NodeLoop::kNoFinish});
        slots_.push_back({.spec = spec});
    }
}

void ThreadManager::observed(std::uint64_t quantum, std::span<const TaskObservation> obs) {
    const auto slot_by_task = common::SmallIdMap<int>::from(
        obs, [](const TaskObservation& o) { return std::pair{o.task_id, o.slot_index}; });
    for (const TaskObservation& o : obs) {
        Slot& slot = slots_[static_cast<std::size_t>(o.slot_index)];
        const auto fr = o.breakdown.fractions();
        if (opts_.record_traces) {
            QuantumTrace t;
            t.quantum = quantum;
            t.fractions = fr;
            if (!o.corunner_task_ids.empty()) {
                const int* it = slot_by_task.find(o.corunner_task_ids.front());
                t.corunner_slot = it != nullptr ? *it : -1;
            }
            t.ipc = o.breakdown.ipc();
            t.frontend_dominant =
                fr[static_cast<std::size_t>(model::Category::kFrontendStall)] >
                fr[static_cast<std::size_t>(model::Category::kBackendStall)];
            slot.trace.push_back(t);
        }
        if (!slot.outcome) {
            for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                slot.category_cycles[c] += o.breakdown.categories[c];
            slot.cycles_observed += static_cast<double>(o.breakdown.cycles);
        }
    }
}

std::unique_ptr<apps::AppInstance> ThreadManager::finished(std::size_t, const TaskObservation& o,
                                                           double finish_quantum) {
    Slot& slot = slots_[static_cast<std::size_t>(o.slot_index)];
    const auto qcycles = static_cast<double>(platform_.config().cycles_per_quantum);
    TaskOutcome out;
    out.app_name = slot.spec.app_name;
    out.slot_index = o.slot_index;
    out.target_insts = slot.spec.target_insts;
    out.finish_quantum = finish_quantum;
    out.ipc_smt = static_cast<double>(slot.spec.target_insts) / (out.finish_quantum * qcycles);
    out.isolated_ipc = slot.spec.isolated_ipc;
    out.individual_speedup = out.isolated_ipc > 0.0 ? out.ipc_smt / out.isolated_ipc : 0.0;
    out.final_core = o.core;
    const double total = std::max(slot.cycles_observed, 1.0);
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        out.mean_fractions[c] = slot.category_cycles[c] / total;
    slot.outcome = out;
    ++finished_;

    // Relaunch: a fresh instance of the same application takes over the
    // hardware slot to keep the load at 8.
    return std::make_unique<apps::AppInstance>(
        next_task_id_++, apps::find_app(slot.spec.app_name),
        common::derive_key(slot.spec.seed, 0x1e1a, ++slot.relaunches));
}

RunResult ThreadManager::run() {
    loop_.bind(policy_.initial_allocation(loop_.resident_ids(), platform_.config().smt_ways));

    RunResult result;
    result.policy_name = policy_.name();
    std::uint64_t quantum = 0;
    while (regroup() && quantum < opts_.max_quanta) {
        const BindStats binds = loop_.step(quantum++, *this).binds;
        result.migrations += binds.migrations;
        result.cross_chip_migrations += binds.cross_chip;
        // The final quantum ends the run before the hook fires.
        if (regroup() && opts_.on_quantum) opts_.on_quantum(platform_);
    }

    result.quanta_executed = quantum;
    result.completed = !regroup();
    double tt = 0.0;
    for (Slot& slot : slots_) {
        result.traces.push_back(std::move(slot.trace));
        if (slot.outcome) {
            result.outcomes.push_back(*slot.outcome);
            tt = std::max(tt, slot.outcome->finish_quantum);
        }
    }
    result.turnaround_quanta = result.completed ? tt : static_cast<double>(quantum);
    return result;
}

}  // namespace synpa::sched
