#include "fleet/node.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <utility>

#include "apps/spec_suite.hpp"

namespace synpa::fleet {

FleetNode::FleetNode(const uarch::SimConfig& cfg, std::unique_ptr<sched::AllocationPolicy> policy,
                     std::shared_ptr<const model::InterferenceModel> scoring_model)
    : platform_(cfg),
      policy_(policy != nullptr
                  ? std::move(policy)
                  : throw std::invalid_argument("FleetNode: node policy must not be null")),
      loop_(platform_, *policy_, /*tracer=*/nullptr, /*full_groups=*/false) {
    if (scoring_model != nullptr) estimator_.emplace(*scoring_model);
}

void FleetNode::admit(WorkItem item, std::uint64_t quantum) {
    if (free_contexts() <= 0)
        throw std::logic_error("FleetNode::admit: node is full");
    if (item.task_id < 0)
        throw std::invalid_argument("FleetNode::admit: item has no task id");
    // A re-admitted item resumes from its preserved progress.
    loop_.admit({.task = item.instance != nullptr
                             ? std::move(item.instance)
                             : std::make_unique<apps::AppInstance>(
                                   item.task_id, apps::find_app(item.app_name),
                                   item.behaviour_seed),
                 .app_name = item.app_name,
                 .slot_index = static_cast<int>(item.plan_index),
                 .finish_insts = item.service_insts},
                quantum);

    if (!item.admitted_once) {
        item.admitted_once = true;
        item.first_admit_quantum = quantum;
    }
    item.queue_wait_quanta += quantum - item.enqueue_quantum;
    items_.push_back(std::move(item));
}

double FleetNode::admission_cost(const WorkItem& item) const {
    if (!estimator_) return 0.0;
    const uarch::CpuSlot where = loop_.admission_slot();
    if (where.core < 0) return 0.0;  // full — callers filter these nodes out
    // Group on the target core, plus the candidate: the core has a free
    // slot, so the two together fit in smt_ways ids.
    std::array<int, uarch::kMaxSmtWays> group{};
    std::size_t members = 0;
    const uarch::SmtCore& core = platform_.core(where.core);
    for (int s = 0; s < platform_.config().smt_ways; ++s)
        if (core.slot(s).bound()) group[members++] = core.slot(s).task()->id();
    const std::span<const int> resident(group.data(), members);
    const double before = resident.empty() ? 0.0 : estimator_->group_weight(resident);
    group[members++] = item.task_id;
    return estimator_->group_weight(std::span<const int>(group.data(), members)) - before;
}

FleetNode::VictimInfo FleetNode::best_victim(int below_priority) const {
    VictimInfo best;
    for (std::size_t i = 0; i < items_.size(); ++i) {
        const WorkItem& item = items_[i];
        if (item.priority >= below_priority) continue;
        const VictimInfo cand{item.task_id, item.priority,
                              loop_.residents()[i].task->insts_retired()};
        if (best.task_id < 0 || cand.weaker_than(best)) best = cand;
    }
    return best;
}

WorkItem FleetNode::preempt(int task_id) {
    const auto it = std::find_if(items_.begin(), items_.end(),
                                 [task_id](const WorkItem& w) { return w.task_id == task_id; });
    if (it == items_.end())
        throw std::logic_error("FleetNode::preempt: task not resident here");
    WorkItem item = std::move(*it);
    items_.erase(it);
    item.instance = loop_.preempt(task_id);
    if (estimator_) estimator_->forget(task_id);
    ++item.preemptions;
    return item;
}

void FleetNode::observed(std::uint64_t, std::span<const sched::TaskObservation> obs) {
    if (estimator_) estimator_->observe(obs);
}

std::unique_ptr<apps::AppInstance> FleetNode::finished(std::size_t index,
                                                       const sched::TaskObservation& o,
                                                       double finish_quantum) {
    if (estimator_) estimator_->forget(o.task_id);
    retired_.push_back({.item = std::move(items_[index]),
                        .finish_quantum = finish_quantum,
                        .final_core = o.core});
    items_.erase(items_.begin() + static_cast<std::ptrdiff_t>(index));
    return nullptr;
}

FleetNode::StepResult FleetNode::step(std::uint64_t quantum) {
    const sched::NodeLoop::Report report = loop_.step(quantum, *this);
    StepResult result{.retired = std::move(retired_), .report = report};
    retired_.clear();
    return result;
}

}  // namespace synpa::fleet
