#include "scenario/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/spec_suite.hpp"

namespace synpa::scenario {

double ScenarioResult::mean_utilization() const noexcept {
    if (timeline.empty()) return 0.0;
    double sum = 0.0;
    for (const QuantumSample& s : timeline) sum += s.utilization;
    return sum / static_cast<double>(timeline.size());
}

ScenarioRunner::ScenarioRunner(uarch::Platform& platform, sched::AllocationPolicy& policy,
                               const ScenarioTrace& trace, Options opts)
    : platform_(platform), policy_(policy), trace_(trace), opts_(opts),
      loop_(platform, policy, opts_.tracer, /*full_groups=*/false) {
    if (!trace_.arrival_sorted())
        throw std::invalid_argument("ScenarioRunner: trace tasks must be arrival-sorted");
    if (opts_.max_quanta == 0)
        throw std::invalid_argument("ScenarioRunner: max_quanta must be > 0");
}

ScenarioResult ScenarioRunner::run() {
    result_.scenario = trace_.spec.name;
    result_.policy_name = policy_.name();
    result_.tasks.resize(trace_.tasks.size());
    for (std::size_t i = 0; i < trace_.tasks.size(); ++i) {
        TaskRecord& rec = result_.tasks[i];
        rec.plan_index = i;
        rec.app_name = trace_.tasks[i].app_name;
        rec.arrival_quantum = trace_.tasks[i].arrival_quantum;
        rec.service_insts = trace_.tasks[i].service_insts;
        rec.isolated_ipc = trace_.tasks[i].isolated_ipc;
    }
    run_quanta();
    // Online-adaptation accounting: policies that retrain their model at
    // runtime expose counters through sched::OnlinePolicy; frozen-model
    // policies leave the fields at their zero defaults.
    if (const auto* online = dynamic_cast<const sched::OnlinePolicy*>(&policy_)) {
        result_.adaptive = true;
        result_.phase_changes = online->phase_changes();
        result_.model_refits = online->model_refits();
    }
    return std::move(result_);
}

int ScenarioRunner::admit(std::uint64_t quantum) {
    const auto capacity = static_cast<std::size_t>(platform_.hw_contexts());
    while (next_plan_ < trace_.tasks.size() &&
           trace_.tasks[next_plan_].arrival_quantum <= quantum &&
           loop_.residents().size() < capacity) {
        const PlannedTask& plan = trace_.tasks[next_plan_];
        // Ids in admission order, which FIFO admission makes plan order.
        TaskRecord& rec = result_.tasks[next_plan_];
        rec.task_id = static_cast<int>(next_plan_) + 1;
        rec.admit_quantum = quantum;
        // The policy regroups the arrival from the next boundary.
        loop_.admit({.task = std::make_unique<apps::AppInstance>(
                         rec.task_id, apps::find_app(plan.app_name), plan.seed),
                     .app_name = plan.app_name,
                     .slot_index = static_cast<int>(next_plan_),
                     .finish_insts = plan.service_insts},
                    quantum);
        ++next_plan_;
    }
    std::size_t arrived = next_plan_;
    while (arrived < trace_.tasks.size() && trace_.tasks[arrived].arrival_quantum <= quantum)
        ++arrived;
    return static_cast<int>(arrived - next_plan_);
}

std::unique_ptr<apps::AppInstance> ScenarioRunner::finished(std::size_t,
                                                            const sched::TaskObservation& o,
                                                            double finish_quantum) {
    const PlannedTask& plan = trace_.tasks[static_cast<std::size_t>(o.slot_index)];
    TaskRecord& rec = result_.tasks[static_cast<std::size_t>(o.slot_index)];
    rec.chip_id = o.chip;
    rec.finish_quantum = finish_quantum;
    rec.turnaround_quanta = finish_quantum - static_cast<double>(plan.arrival_quantum);
    rec.queue_quanta = static_cast<double>(rec.admit_quantum - plan.arrival_quantum);
    rec.slowdown = plan.slowdown(rec.turnaround_quanta, platform_.config().cycles_per_quantum);
    rec.completed = true;
    ++result_.completed_tasks;
    result_.turnaround_quanta = std::max(result_.turnaround_quanta, finish_quantum);
    return nullptr;
}

void ScenarioRunner::run_quanta() {
    const int capacity = platform_.hw_contexts();
    std::uint64_t quantum = 0;
    while (quantum < opts_.max_quanta) {
        const int queued = admit(quantum);
        const int live = static_cast<int>(loop_.residents().size());
        if (live == 0 && next_plan_ >= trace_.tasks.size()) break;  // drained

        // Idle gaps before the next arrival are simulated too.
        const std::uint64_t migrations_before = result_.migrations;
        const sched::NodeLoop::Report report = loop_.step(quantum, *this, queued);
        result_.migrations += report.binds.migrations;
        result_.cross_chip_migrations += report.binds.cross_chip;
        if (opts_.record_timeline)
            result_.timeline.push_back(
                {.quantum = quantum,
                 .live = live,
                 .queued = queued,
                 .utilization = static_cast<double>(live) / static_cast<double>(capacity),
                 .aggregate_ipc = report.aggregate_ipc,
                 .migrations = migrations_before});
        ++quantum;
        if (opts_.on_quantum) opts_.on_quantum(platform_);
    }

    // Unfinished work (safety cap or never admitted) marks the run
    // incomplete; records keep whatever is known about the task.
    result_.quanta_executed = quantum;
    for (const sched::NodeLoop::Resident& r : loop_.residents()) {
        const int id = r.task->id();
        result_.tasks[static_cast<std::size_t>(r.slot_index)].chip_id =
            platform_.chip_of_core(platform_.placement(id).core);
        platform_.unbind(id);
        platform_.forget_task(id);
    }
    result_.completed = result_.completed_tasks == trace_.tasks.size();
    // Match the classic manager's convention for incomplete runs: report
    // the executed quanta rather than the (possibly zero) best finish time.
    if (!result_.completed) result_.turnaround_quanta = static_cast<double>(quantum);
}

}  // namespace synpa::scenario
