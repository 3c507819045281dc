// One serving node of the fleet: an independent uarch::Platform with its own
// node-local allocation policy (any registered sched policy — SYNPA runs
// here) and, when the fleet policy wants interference scoring, a node-owned
// core::SynpaEstimator fed from the node's own observations.
//
// The node's quantum is sched::NodeLoop's, configured for a fleet node:
// admission and preemption come from the fleet front end, finished work
// retires, the observations also feed the scoring estimator, and no tracer
// is attached (only the coordinator emits).  The fleet runner steps nodes
// concurrently (they share no mutable state; each node's estimator is
// touched only by the thread stepping that node) and performs all
// admission/preemption serially on the coordinator thread between quanta,
// which is what keeps fleet runs bit-identical at every fleet-thread and
// SYNPA_SIM_THREADS count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/estimator.hpp"
#include "fleet/work_item.hpp"
#include "sched/node_loop.hpp"
#include "uarch/platform.hpp"

namespace synpa::fleet {

class FleetNode : private sched::NodeLoop::Lifecycle {
public:
    /// A resident that crossed its finish line during step().
    struct Retired {
        WorkItem item;
        double finish_quantum = 0.0;  ///< quantum + finish_fraction
        int final_core = -1;          ///< global core id on this node
    };

    /// What one quantum on this node produced (folded by the coordinator in
    /// ascending node order).
    struct StepResult {
        std::vector<Retired> retired;  ///< residency order
        sched::NodeLoop::Report report;
    };

    /// A preemption candidate as ranked by the front end.
    struct VictimInfo {
        int task_id = -1;  ///< -1 = no eligible victim on this node
        int priority = 0;
        std::uint64_t insts_retired = 0;

        /// The deterministic victim order: lowest priority, then least
        /// progress, then lowest id.
        bool weaker_than(const VictimInfo& other) const noexcept {
            return std::tie(priority, insts_retired, task_id) <
                   std::tie(other.priority, other.insts_retired, other.task_id);
        }
    };

    /// `scoring_model`: when non-null the node builds its own SynpaEstimator
    /// (fed each quantum) for fleet-level interference scoring; null skips
    /// it (fleet policies that never score save the inversion work).
    FleetNode(const uarch::SimConfig& cfg, std::unique_ptr<sched::AllocationPolicy> policy,
              std::shared_ptr<const model::InterferenceModel> scoring_model);

    const uarch::Platform& platform() const noexcept { return platform_; }
    int capacity() const noexcept { return platform_.hw_contexts(); }
    int live_count() const noexcept { return static_cast<int>(items_.size()); }
    int free_contexts() const noexcept { return capacity() - live_count(); }

    /// Binds the item here (creating its AppInstance on first admission,
    /// reusing it after a preemption) on the least-loaded core, lowest
    /// global index / lowest free slot on ties — the same CFS-style spread
    /// the single-node driver uses.  Requires a free context.
    void admit(WorkItem item, std::uint64_t quantum);

    /// Predicted marginal interference of admitting `item` here: the
    /// node-estimator's group weight of the admission-target core with the
    /// item added, minus the group's current weight (a solo placement on an
    /// empty core costs its solo weight).  0 when the node has no estimator.
    double admission_cost(const WorkItem& item) const;

    /// Lowest-(priority, progress, id) resident with priority strictly below
    /// `below_priority` — the deterministic preemption victim order.
    VictimInfo best_victim(int below_priority) const;

    /// Demotes a resident back to the caller: unbinds it, drops node-local
    /// state (platform history, policy state, estimator entry) and returns
    /// the WorkItem with its instance — and therefore its progress — intact.
    WorkItem preempt(int task_id);

    /// Runs one quantum: platform step, observation (feeding the local
    /// policy and the scoring estimator), retirement, policy regroup,
    /// rebind.  Safe to call concurrently across *different* nodes.
    StepResult step(std::uint64_t quantum);

    /// Resident task ids in residency (admission) order.
    std::vector<int> resident_ids() const { return loop_.resident_ids(); }

private:
    /// NodeLoop::Lifecycle: feed the scoring estimator, hand finished work
    /// back to the coordinator.
    void observed(std::uint64_t quantum, std::span<const sched::TaskObservation> obs) override;
    std::unique_ptr<apps::AppInstance> finished(std::size_t index,
                                                const sched::TaskObservation& o,
                                                double finish_quantum) override;

    uarch::Platform platform_;
    std::unique_ptr<sched::AllocationPolicy> policy_;
    std::optional<core::SynpaEstimator> estimator_;
    sched::NodeLoop loop_;
    /// items_[i] is the request of loop_.residents()[i] (its instance lives
    /// in the loop while resident).
    std::vector<WorkItem> items_;
    std::vector<Retired> retired_;  ///< this step's retirements
};

}  // namespace synpa::fleet
