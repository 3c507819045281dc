#include "sched/node_loop.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/flat_map.hpp"
#include "model/categories.hpp"

namespace synpa::sched {
namespace {

/// Fraction of the just-finished quantum needed to reach `target`
/// instructions, given the cumulative counts at the previous and current
/// quantum boundaries (1.0 when no progress was made).
double finish_fraction(std::uint64_t insts_prev, std::uint64_t insts_now,
                       std::uint64_t target) {
    const double progressed = static_cast<double>(insts_now - insts_prev);
    const double needed = static_cast<double>(target - insts_prev);
    return progressed > 0.0 ? needed / progressed : 1.0;
}

}  // namespace

NodeLoop::NodeLoop(uarch::Platform& platform, AllocationPolicy& policy, obs::Tracer* tracer,
                   bool full_groups)
    : platform_(platform), policy_(policy), full_groups_(full_groups) {
    // Null out a disabled tracer once, so every per-quantum site pays a
    // single pointer test.
    if (tracer != nullptr && tracer->enabled()) {
        tracer_ = tracer;
        platform_.set_tracer(tracer_);
        policy_.set_tracer(tracer_);
    }
}

std::vector<int> NodeLoop::resident_ids() const {
    std::vector<int> ids;
    ids.reserve(residents_.size());
    for (const Resident& r : residents_) ids.push_back(r.task->id());
    return ids;
}

uarch::CpuSlot NodeLoop::admission_slot() const {
    uarch::CpuSlot where{-1, -1};
    int best_load = platform_.config().smt_ways;
    for (int c = 0; c < platform_.core_count(); ++c) {
        const int load = platform_.core(c).active_threads();
        if (load >= best_load) continue;
        best_load = load;
        int slot = 0;
        while (platform_.core(c).slot(slot).bound()) ++slot;
        where = {c, slot};
    }
    return where;
}

void NodeLoop::add(Resident r) {
    r.prev_bank = r.task->counters();
    r.insts_prev = r.task->insts_retired();
    residents_.push_back(std::move(r));
}

void NodeLoop::admit(Resident r, std::uint64_t quantum) {
    const uarch::CpuSlot where = admission_slot();
    platform_.bind(*r.task, where);
    emit(obs::EventKind::kAdmission, quantum, r.task->id(), where.core, r.app_name);
    add(std::move(r));
}

std::unique_ptr<apps::AppInstance> NodeLoop::preempt(int task_id) {
    const auto it = std::find_if(residents_.begin(), residents_.end(), [task_id](const Resident& r) {
        return r.task->id() == task_id;
    });
    if (it == residents_.end()) throw std::logic_error("NodeLoop::preempt: task not resident");
    platform_.unbind(task_id);
    // The task may come back anywhere: drop its migration history and
    // policy state.  Its instance keeps the architectural progress.
    platform_.forget_task(task_id);
    policy_.on_task_preempted(task_id);
    std::unique_ptr<apps::AppInstance> task = std::move(it->task);
    residents_.erase(it);
    return task;
}

BindStats NodeLoop::bind(CoreAllocation alloc) {
    if (alloc.size() > static_cast<std::size_t>(platform_.core_count()))
        throw std::runtime_error("bind: allocation exceeds core count");
    alloc.resize(static_cast<std::size_t>(platform_.core_count()));
    const int ways = platform_.config().smt_ways;

    // Validate the allocation is a permutation of the residents.
    std::vector<common::SmallIdMap<uarch::CpuSlot>::Entry> placements;
    placements.reserve(residents_.size());
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        const CoreGroup& g = alloc[c];
        const int occ = g.occupancy();
        if (occ > ways) throw std::runtime_error("bind: group exceeds the chip's SMT width");
        // Validate the kNoTask-padded tail first, before any early-out: a
        // task after a gap ({kNoTask, task, ...}) violates the occupied-
        // slots-first contract even when the group looks idle (occ == 0).
        for (int s = occ; s < uarch::kMaxSmtWays; ++s)
            if (g.tasks[static_cast<std::size_t>(s)] != kNoTask)
                throw std::runtime_error("bind: malformed group");
        if (full_groups_ && occ != ways)
            throw std::runtime_error("bind: idle or underfilled core in a closed system");
        for (int s = 0; s < occ; ++s) {
            const int id = g.tasks[static_cast<std::size_t>(s)];
            if (id < 0) throw std::runtime_error("bind: malformed group");
            placements.push_back({id, {.core = static_cast<int>(c), .slot = s}});
        }
    }
    const common::SmallIdMap<uarch::CpuSlot> target(std::move(placements));
    if (target.has_duplicate()) throw std::runtime_error("bind: task placed twice");
    if (target.size() != residents_.size())
        throw std::runtime_error("bind: allocation must place every task once");

    // Count migrations (core changes, with the cross-chip subset) before
    // rebinding.
    BindStats stats;
    const bool trace = tracer_ != nullptr && tracer_->wants(obs::EventKind::kMigration);
    for (const Resident& r : residents_) {
        const int id = r.task->id();
        const uarch::CpuSlot* it = target.find(id);
        if (it == nullptr) throw std::runtime_error("bind: allocation missing a live task");
        if (!platform_.is_bound(id)) continue;
        const uarch::CpuSlot old_slot = platform_.placement(id);
        const int old_core = old_slot.core;
        const bool cross = platform_.chip_of_core(old_core) != platform_.chip_of_core(it->core);
        if (old_core != it->core) {
            ++stats.migrations;
            if (cross) ++stats.cross_chip;
        }
        if (trace && (old_core != it->core || old_slot.slot != it->slot))
            tracer_->emit({.kind = obs::EventKind::kMigration,
                           .quantum = tracer_->quantum(),
                           .task = id,
                           .core = it->core,
                           .a = old_core == it->core ? 0 : (cross ? 2 : 1),
                           .b = old_core});
    }

    // Rebind: unbind everything, then bind to the new placement.  The
    // platform only charges warmup penalties where the core (or chip)
    // actually changed.
    for (const Resident& r : residents_)
        if (platform_.is_bound(r.task->id())) platform_.unbind(r.task->id());
    for (const Resident& r : residents_) platform_.bind(*r.task, *target.find(r.task->id()));
    return stats;
}

NodeLoop::Report NodeLoop::step(std::uint64_t quantum, Lifecycle& life, int queued) {
    // Flight recorder: stamp the boundary and time the four phases with
    // host wall-clock (the "observe" bucket covers observe + finish).
    // Tracing only reads simulated state, so traced runs stay bit-identical
    // to untraced ones.
    obs::QuantumStats qs;
    qs.quantum = quantum;
    qs.live = static_cast<int>(residents_.size());
    qs.queued = queued;
    qs.utilization = static_cast<double>(qs.live) / static_cast<double>(platform_.hw_contexts());
    obs::PhaseStopwatch sw(tracer_ != nullptr);
    if (tracer_ != nullptr) tracer_->begin_quantum(quantum, qs.live, queued);

    const uarch::CycleCounts before =
        tracer_ != nullptr ? platform_.cycle_counts() : uarch::CycleCounts{};
    platform_.run_quantum();
    qs.simulate_us = sw.lap_us();
    if (tracer_ != nullptr) {
        publish_cycle_counts(tracer_->metrics(), before, platform_.cycle_counts());
    }

    Report report;
    if (!residents_.empty()) {
        std::vector<TaskObservation> obs;
        obs.reserve(residents_.size());
        for (const Resident& r : residents_) {
            obs.push_back(observe(r));
            report.aggregate_ipc += obs.back().breakdown.ipc();
        }
        life.observed(quantum, obs);
        finish(quantum, life, obs);
        qs.observe_us = sw.lap_us();

        // Let the policy regroup the survivors (a short answer means
        // trailing cores idle).
        if (!residents_.empty() && life.regroup()) {
            CoreAllocation alloc = policy_.reallocate(obs);
            qs.decide_us = sw.lap_us();
            report.binds = bind(std::move(alloc));
            qs.bind_us = sw.lap_us();
            qs.migrations = report.binds.migrations;
            qs.cross_chip = report.binds.cross_chip;
        }
    }
    if (tracer_ != nullptr) tracer_->end_quantum(qs);
    return report;
}

TaskObservation NodeLoop::observe(const Resident& r) const {
    // Counter banks are cumulative per instance; the snapshot taken at the
    // last boundary gives this quantum's deltas.
    apps::AppInstance& task = *r.task;
    TaskObservation o;
    o.task_id = task.id();
    o.slot_index = r.slot_index;
    o.app_name = r.app_name;
    const uarch::CpuSlot where = platform_.placement(task.id());
    o.core = where.core;
    o.chip = platform_.chip_of_core(where.core);
    const uarch::SmtCore& core = platform_.core(where.core);
    for (int s = 0; s < core.smt_ways(); ++s) {
        if (s == where.slot) continue;
        const auto& sibling = core.slot(s);
        if (sibling.bound()) o.corunner_task_ids.push_back(sibling.task()->id());
    }
    o.corunner_task_id = o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids.front();
    o.smt_ways = platform_.config().smt_ways;
    o.num_chips = platform_.chip_count();
    o.total_cores = platform_.core_count();
    o.instance = &task;
    o.delta = task.counters().delta_since(r.prev_bank);
    o.breakdown = model::characterize(o.delta, platform_.config().dispatch_width);
    return o;
}

void NodeLoop::finish(std::uint64_t quantum, Lifecycle& life, std::vector<TaskObservation>& obs) {
    std::vector<common::SmallIdMap<int>::Entry> relaunched;  // old id -> fresh id
    for (std::size_t i = 0; i < residents_.size();) {
        Resident& r = residents_[i];
        const int id = r.task->id();
        const std::uint64_t insts_now = r.task->insts_retired();
        if (insts_now >= r.finish_insts) {
            // Interpolate the fractional finish quantum.
            const double finish_quantum = static_cast<double>(quantum) +
                                          finish_fraction(r.insts_prev, insts_now, r.finish_insts);
            emit(obs::EventKind::kRetirement, quantum, id, obs[i].core, r.app_name, finish_quantum);
            std::unique_ptr<apps::AppInstance> fresh = life.finished(i, obs[i], finish_quantum);
            if (fresh == nullptr) {
                platform_.unbind(id);
                platform_.forget_task(id);  // retired for good; ids never reused
                policy_.on_task_finished(id);
                residents_.erase(residents_.begin() + static_cast<std::ptrdiff_t>(i));
                obs.erase(obs.begin() + static_cast<std::ptrdiff_t>(i));
                continue;
            }
            // Relaunch: the fresh instance takes over the hardware slot.
            const uarch::CpuSlot where = platform_.placement(id);
            platform_.unbind(id);
            r.task = std::move(fresh);
            platform_.bind(*r.task, where);
            platform_.forget_task(id);  // the old id never returns
            policy_.on_task_replaced(id, r.task->id());
            emit(obs::EventKind::kAdmission, quantum, r.task->id(), where.core, r.app_name);
            relaunched.push_back({id, r.task->id()});
            r.finish_insts = kNoFinish;
        }
        r.prev_bank = r.task->counters();
        r.insts_prev = r.task->insts_retired();
        ++i;
    }
    if (relaunched.empty()) return;
    const common::SmallIdMap<int> replaced(std::move(relaunched));

    // The fresh instances inherit their slots, so the policy sees live ids
    // (and no dangling pointers).
    for (std::size_t i = 0; i < obs.size(); ++i) {
        TaskObservation& o = obs[i];
        o.task_id = residents_[i].task->id();
        o.instance = residents_[i].task.get();
        for (int& partner_id : o.corunner_task_ids) {
            const int* partner = replaced.find(partner_id);
            if (partner != nullptr) partner_id = *partner;
        }
        o.corunner_task_id = o.corunner_task_ids.empty() ? -1 : o.corunner_task_ids.front();
    }
}

void NodeLoop::emit(obs::EventKind kind, std::uint64_t quantum, int task, int core,
                    const std::string& app, double value) {
    if (tracer_ != nullptr && tracer_->wants(kind))
        tracer_->emit({.kind = kind,
                       .quantum = quantum,
                       .task = task,
                       .core = core,
                       .value = value,
                       .detail = app});
}

void publish_cycle_counts(obs::MetricsRegistry& m, const uarch::CycleCounts& before,
                          const uarch::CycleCounts& after) {
    m.counter("uarch.cycles_ticked").add(after.ticked - before.ticked);
    m.counter("uarch.cycles_skipped").add(after.skipped - before.skipped);
    m.counter("uarch.cycles_jumped").add(after.jumped - before.jumped);
}

}  // namespace synpa::sched
