#include "fleet/runner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace synpa::fleet {
namespace {

/// Admission order: highest priority first, then FIFO by arrival, then plan
/// order — a deterministic total order (plan indices are unique).
bool admission_before(const WorkItem& a, const WorkItem& b) noexcept {
    if (a.priority != b.priority) return a.priority > b.priority;
    if (a.arrival_quantum != b.arrival_quantum) return a.arrival_quantum < b.arrival_quantum;
    return a.plan_index < b.plan_index;
}

}  // namespace

FleetRunner::FleetRunner(const scenario::ScenarioTrace& trace, FleetOptions opts)
    : trace_(trace), opts_(std::move(opts)),
      fleet_([&] {
          if (!trace.arrival_sorted())
              throw std::invalid_argument("FleetRunner: trace tasks must be arrival-sorted");
          if (opts_.max_quanta == 0)
              throw std::invalid_argument("FleetRunner: max_quanta must be > 0");
          const FleetPolicyInfo* info = find_fleet_policy(opts_.fleet_policy);
          if (info == nullptr)
              make_fleet_policy(opts_.fleet_policy, {});  // throws with inventory
          FleetConfig fc;
          fc.nodes = opts_.nodes;
          fc.node_config = opts_.node_config;
          // Nested parallelism: per-node chip shards share the host with the
          // fleet pool, exactly like grid cells over campaign pools.
          fc.node_config.sim_threads =
              uarch::nested_sim_threads(opts_.node_config.sim_threads,
                                        opts_.threads > 1 ? opts_.threads : 0);
          fc.node_policy = opts_.node_policy;
          fc.policy_config = opts_.policy_config;
          fc.with_estimators = info != nullptr && info->needs_model;
          return FleetConfig(fc);
      }()),
      policy_(make_fleet_policy(opts_.fleet_policy, {.seed = opts_.fleet_seed})) {
    if (opts_.threads > 1 && fleet_.node_count() > 1)
        pool_ = std::make_unique<common::ThreadPool>(
            std::min<std::size_t>(opts_.threads,
                                  static_cast<std::size_t>(fleet_.node_count())));
    if (opts_.tracer != nullptr && opts_.tracer->enabled()) tracer_ = opts_.tracer;
}

void FleetRunner::enqueue_arrivals(std::uint64_t quantum) {
    while (next_plan_ < trace_.tasks.size() &&
           trace_.tasks[next_plan_].arrival_quantum <= quantum) {
        const scenario::PlannedTask& plan = trace_.tasks[next_plan_];
        WorkItem item;
        item.plan_index = next_plan_;
        item.app_name = plan.app_name;
        item.arrival_quantum = plan.arrival_quantum;
        item.behaviour_seed = plan.seed;
        item.service_insts = plan.service_insts;
        item.isolated_ipc = plan.isolated_ipc;
        item.slo = plan.slo;
        item.priority = plan.priority;
        item.deadline_quantum = plan.deadline_quantum;
        // Fleet-wide unique ids in plan order, assigned at arrival (a task
        // keeps its id across preemptions and re-admissions).
        item.task_id = static_cast<int>(next_plan_) + 1;
        item.enqueue_quantum = quantum;
        queue_.push_back(std::move(item));
        ++progress_.arrived;
        ++next_plan_;
    }
}

void FleetRunner::admit_and_preempt(std::uint64_t quantum) {
    if (queue_.empty()) return;
    std::sort(queue_.begin(), queue_.end(), admission_before);

    std::vector<WorkItem> waiting;
    std::vector<WorkItem> demoted;  // re-enter the queue after the scan
    std::vector<int> candidates;
    for (WorkItem& item : queue_) {
        candidates.clear();
        for (int n = 0; n < fleet_.node_count(); ++n)
            if (fleet_.node(n).free_contexts() > 0) candidates.push_back(n);

        int target = -1;
        if (!candidates.empty()) {
            target = policy_->pick_node(fleet_, item, candidates);
            if (target < 0 || target >= fleet_.node_count() ||
                fleet_.node(target).free_contexts() <= 0)
                throw std::logic_error("FleetRunner: fleet policy picked an invalid node");
        } else if (opts_.preemption) {
            // Nowhere to go: demote the fleet's weakest resident strictly
            // below this item's priority (lowest priority, then least
            // progress, then lowest id/node — a deterministic total order).
            int victim_node = -1;
            FleetNode::VictimInfo best;
            for (int n = 0; n < fleet_.node_count(); ++n) {
                const FleetNode::VictimInfo v = fleet_.node(n).best_victim(item.priority);
                if (v.task_id >= 0 && (victim_node < 0 || v.weaker_than(best))) {
                    best = v;
                    victim_node = n;
                }
            }
            if (victim_node >= 0) {
                WorkItem loser = fleet_.node(victim_node).preempt(best.task_id);
                ++progress_.preemptions;
                loser.enqueue_quantum = quantum;
                if (tracer_ != nullptr) {
                    if (tracer_->wants(obs::EventKind::kPreemption))
                        tracer_->emit({.kind = obs::EventKind::kPreemption,
                                       .quantum = quantum,
                                       .task = loser.task_id,
                                       .core = victim_node,  // node id, per the kind contract
                                       .a = loser.priority,
                                       .b = item.priority,
                                       .detail = loser.app_name});
                    tracer_->metrics().counter("fleet.preemptions").add();
                }
                demoted.push_back(std::move(loser));
                target = victim_node;
            }
        }

        if (target < 0) {
            waiting.push_back(std::move(item));
            continue;
        }
        if (tracer_ != nullptr) {
            if (tracer_->wants(obs::EventKind::kAdmission))
                tracer_->emit({.kind = obs::EventKind::kAdmission,
                               .quantum = quantum,
                               .task = item.task_id,
                               .core = target,  // node id (fleet-level admission)
                               .detail = item.app_name});
            tracer_->metrics().counter("fleet.admissions").add();
        }
        fleet_.node(target).admit(std::move(item), quantum);
        ++progress_.admissions;
    }
    queue_ = std::move(waiting);
    for (WorkItem& d : demoted) {
        // Each preemption re-queues its victim exactly once (the property
        // suite pins requeues == preemptions).
        ++progress_.requeues;
        queue_.push_back(std::move(d));
    }
}

FleetResult FleetRunner::run() {
    FleetResult result;
    result.scenario = trace_.spec.name;
    result.fleet_policy = opts_.fleet_policy;
    result.node_policy = opts_.node_policy;
    result.nodes = fleet_.node_count();
    result.tasks.resize(trace_.tasks.size());
    for (std::size_t i = 0; i < trace_.tasks.size(); ++i) {
        FleetTaskRecord& rec = result.tasks[i];
        const scenario::PlannedTask& plan = trace_.tasks[i];
        rec.plan_index = i;
        rec.app_name = plan.app_name;
        rec.slo = plan.slo;
        rec.priority = plan.priority;
        rec.arrival_quantum = plan.arrival_quantum;
        rec.deadline_quantum = plan.deadline_quantum;
        rec.service_insts = plan.service_insts;
        rec.isolated_ipc = plan.isolated_ipc;
    }

    const int capacity = fleet_.total_capacity();
    std::vector<FleetNode::StepResult> steps(
        static_cast<std::size_t>(fleet_.node_count()));
    std::uint64_t quantum = 0;
    // Fleet nodes run untraced node loops, so a traced fleet publishes the
    // nodes' summed cycle counts itself.
    const auto fleet_cycles = [this] {
        uarch::CycleCounts sum;
        for (int n = 0; n < fleet_.node_count(); ++n)
            sum += fleet_.node(n).platform().cycle_counts();
        return sum;
    };
    uarch::CycleCounts published = fleet_cycles();

    while (quantum < opts_.max_quanta) {
        enqueue_arrivals(quantum);
        admit_and_preempt(quantum);
        if (queue_.empty() && fleet_.live_count() == 0 &&
            next_plan_ >= trace_.tasks.size())
            break;  // drained

        const int live = fleet_.live_count();
        const int queued = static_cast<int>(queue_.size());
        obs::QuantumStats qstats;
        qstats.quantum = quantum;
        qstats.live = live;
        qstats.queued = queued;
        qstats.utilization = static_cast<double>(live) / static_cast<double>(capacity);
        obs::PhaseStopwatch sw(tracer_ != nullptr);
        if (tracer_ != nullptr) tracer_->begin_quantum(quantum, live, queued);

        // Step every node — concurrently when a pool exists.  Nodes share no
        // mutable state; results are folded in ascending node order below,
        // so the fold is identical at every fleet-thread count.
        for (int n = 0; n < fleet_.node_count(); ++n) {
            const auto step = [this, &steps, n, quantum] {
                steps[static_cast<std::size_t>(n)] = fleet_.node(n).step(quantum);
            };
            if (pool_ == nullptr)
                step();
            else
                pool_->submit(step);
        }
        if (pool_ != nullptr) pool_->wait_idle();
        qstats.simulate_us = sw.lap_us();
        if (tracer_ != nullptr) {
            const uarch::CycleCounts now = fleet_cycles();
            sched::publish_cycle_counts(tracer_->metrics(), published, now);
            published = now;
        }

        // Fold: retirements, counters and trace events in node order.
        double aggregate_ipc = 0.0;
        for (int n = 0; n < fleet_.node_count(); ++n) {
            FleetNode::StepResult& sr = steps[static_cast<std::size_t>(n)];
            result.migrations += sr.report.binds.migrations;
            result.cross_chip_migrations += sr.report.binds.cross_chip;
            qstats.migrations += sr.report.binds.migrations;
            qstats.cross_chip += sr.report.binds.cross_chip;
            aggregate_ipc += sr.report.aggregate_ipc;
            for (FleetNode::Retired& done : sr.retired) {
                FleetTaskRecord& rec = result.tasks[done.item.plan_index];
                rec.task_id = done.item.task_id;
                rec.admit_quantum = done.item.first_admit_quantum;
                rec.node_id = n;
                rec.finish_quantum = done.finish_quantum;
                rec.turnaround_quanta =
                    done.finish_quantum - static_cast<double>(rec.arrival_quantum);
                rec.queue_quanta = static_cast<double>(done.item.queue_wait_quanta);
                rec.preemptions = done.item.preemptions;
                rec.slowdown = trace_.tasks[done.item.plan_index].slowdown(
                    rec.turnaround_quanta, opts_.node_config.cycles_per_quantum);
                rec.completed = true;
                rec.deadline_met = rec.deadline_quantum <= 0.0 ||
                                   rec.finish_quantum <= rec.deadline_quantum;
                ++result.completed_tasks;
                ++progress_.retirements;
                if (tracer_ != nullptr) {
                    obs::MetricsRegistry& m = tracer_->metrics();
                    m.counter("fleet.retirements").add();
                    if (!rec.deadline_met) m.counter("fleet.slo_violations").add();
                    m.histogram("fleet.queue_quanta")
                        .record(done.item.queue_wait_quanta);
                    m.histogram("fleet.slowdown_milli")
                        .record(static_cast<std::uint64_t>(
                            std::llround(std::max(0.0, rec.slowdown) * 1000.0)));
                    if (tracer_->wants(obs::EventKind::kRetirement))
                        tracer_->emit({.kind = obs::EventKind::kRetirement,
                                       .quantum = quantum,
                                       .chip = n,  // the serving node
                                       .task = rec.task_id,
                                       .core = done.final_core,
                                       .value = done.finish_quantum,
                                       .detail = rec.app_name});
                }
            }
        }

        if (opts_.record_timeline)
            result.timeline.push_back({.quantum = quantum,
                                       .live = live,
                                       .queued = queued,
                                       .utilization = qstats.utilization,
                                       .aggregate_ipc = aggregate_ipc});
        qstats.observe_us = sw.lap_us();
        if (tracer_ != nullptr) {
            tracer_->metrics().gauge("fleet.utilization").set(qstats.utilization);
            tracer_->end_quantum(qstats);
        }
        ++quantum;
        if (opts_.on_quantum) {
            progress_.quantum = quantum;
            progress_.in_flight = fleet_.live_count();
            progress_.queued = static_cast<int>(queue_.size());
            opts_.on_quantum(fleet_, progress_);
        }
    }

    // Unfinished work (safety cap): records keep whatever is known.  Items
    // still resident or queued stay incomplete.
    result.quanta_executed = quantum;
    result.admissions = progress_.admissions;
    result.preemptions = progress_.preemptions;
    result.completed = result.completed_tasks == trace_.tasks.size();
    return result;
}

}  // namespace synpa::fleet
