#include "scenario/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/spec_suite.hpp"
#include "sched/thread_manager.hpp"

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
      // Closed scenarios wire the tracer through the delegated ThreadManager.
      loop_(platform, policy,
            trace.spec.process == ArrivalProcess::kClosed ? nullptr : opts_.tracer,
            /*full_groups=*/false) {
    if (trace_.spec.process == ArrivalProcess::kClosed &&
        trace_.tasks.size() != static_cast<std::size_t>(platform_.hw_contexts()))
        throw std::invalid_argument(
            "ScenarioRunner: closed scenarios must fill the platform");
    if (!trace_.arrival_sorted())
        throw std::invalid_argument("ScenarioRunner: trace tasks must be arrival-sorted");
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
    if (trace_.spec.process == ArrivalProcess::kClosed)
        run_closed();
    else
        run_open();
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

// ---------------------------------------------------------------- closed --

void ScenarioRunner::run_closed() {
    // The closed system *is* the paper's methodology: delegate to the
    // classic manager so turnaround results are bit-identical with a direct
    // ThreadManager run.
    std::vector<sched::TaskSpec> specs;
    specs.reserve(trace_.tasks.size());
    for (const PlannedTask& t : trace_.tasks)
        specs.push_back({.app_name = t.app_name,
                         .seed = t.seed,
                         .target_insts = t.service_insts,
                         .isolated_ipc = t.isolated_ipc});
    sched::ThreadManager manager(
        platform_, policy_, specs,
        {.max_quanta = opts_.max_quanta,
         .record_traces = opts_.record_timeline,
         .tracer = opts_.tracer,
         .on_quantum = opts_.on_quantum});
    const sched::RunResult run = manager.run();

    result_.quanta_executed = run.quanta_executed;
    result_.migrations = run.migrations;
    result_.cross_chip_migrations = run.cross_chip_migrations;
    result_.completed = run.completed;
    result_.turnaround_quanta = run.turnaround_quanta;
    for (const sched::TaskOutcome& out : run.outcomes) {
        TaskRecord& rec = result_.tasks[static_cast<std::size_t>(out.slot_index)];
        rec.task_id = out.slot_index + 1;  // ThreadManager ids originals 1..N
        rec.chip_id = out.final_core >= 0 ? platform_.chip_of_core(out.final_core) : -1;
        rec.finish_quantum = out.finish_quantum;
        rec.turnaround_quanta = out.finish_quantum;
        rec.slowdown = trace_.tasks[static_cast<std::size_t>(out.slot_index)].slowdown(
            out.finish_quantum, platform_.config().cycles_per_quantum);
        rec.completed = true;
        ++result_.completed_tasks;
    }

    if (opts_.record_timeline && !run.traces.empty()) {
        // ThreadManager does not attribute migrations to quanta, so closed
        // timelines leave every sample's cumulative-migrations field at 0;
        // the run total is in result.migrations.
        result_.timeline.resize(static_cast<std::size_t>(run.quanta_executed));
        for (std::size_t q = 0; q < result_.timeline.size(); ++q) {
            QuantumSample& sample = result_.timeline[q];
            sample.quantum = q;
            sample.live = static_cast<int>(trace_.tasks.size());
            sample.utilization = 1.0;  // the closed system keeps the chip full
            for (const auto& trace : run.traces)
                if (q < trace.size()) sample.aggregate_ipc += trace[q].ipc;
        }
    }
}

// ------------------------------------------------------------------ open --

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

void ScenarioRunner::run_open() {
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
