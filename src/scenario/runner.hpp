// The open-system driver: admits arriving tasks onto free hardware
// threads, retires them when their service demand completes, and lets the
// allocation policy regroup the live set every quantum — including partial
// allocations (cores running fewer than smt_ways threads, idle cores)
// whenever the runnable count differs from smt_ways x cores.
//
// The quantum itself is sched::NodeLoop's, configured for an open system:
// FIFO arrivals on the least-loaded slot, retirement at the finish line,
// partial groups.  The paper's closed system (fixed slots, relaunch on
// finish) is sched::ThreadManager, the same NodeLoop configured closed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "sched/node_loop.hpp"
#include "uarch/platform.hpp"

namespace synpa::scenario {

/// Final record for one planned task, in plan (arrival) order.
struct TaskRecord {
    int task_id = -1;  ///< -1 when the task was never admitted
    std::size_t plan_index = 0;
    std::string app_name;
    std::uint64_t arrival_quantum = 0;
    std::uint64_t admit_quantum = 0;   ///< when it got a hardware thread
    int chip_id = -1;                  ///< chip it last ran on (-1: never admitted)
    double finish_quantum = -1.0;      ///< fractional; -1 when unfinished
    std::uint64_t service_insts = 0;
    double isolated_ipc = 0.0;
    double turnaround_quanta = 0.0;  ///< finish - arrival (includes queueing)
    double queue_quanta = 0.0;       ///< admit - arrival
    double slowdown = 0.0;           ///< turnaround / isolated service time
    bool completed = false;
};

/// One per executed quantum (when timeline recording is on).
struct QuantumSample {
    std::uint64_t quantum = 0;
    int live = 0;             ///< tasks holding a hardware thread
    int queued = 0;           ///< arrived but waiting for a free thread
    double utilization = 0.0; ///< live / (smt_ways * cores)
    double aggregate_ipc = 0.0;  ///< sum of per-task IPCs this quantum
    std::uint64_t migrations = 0;  ///< cumulative core changes so far
};

struct ScenarioResult {
    std::string scenario;
    std::string policy_name;
    std::vector<TaskRecord> tasks;       ///< plan order
    std::vector<QuantumSample> timeline; ///< per executed quantum
    std::uint64_t quanta_executed = 0;
    std::uint64_t migrations = 0;
    std::uint64_t cross_chip_migrations = 0;  ///< subset that changed chips
    std::size_t completed_tasks = 0;
    bool completed = true;  ///< every planned task finished within max_quanta
    double turnaround_quanta = 0.0;  ///< slowest completed task's finish time

    /// Online-adaptation accounting (policies implementing
    /// sched::OnlinePolicy; zero for frozen-model policies).
    bool adaptive = false;
    std::uint64_t phase_changes = 0;  ///< CUSUM alarms the policy raised
    std::uint64_t model_refits = 0;   ///< incremental refits folded in

    /// Mean utilization over the executed timeline (0 when not recorded).
    double mean_utilization() const noexcept;
};

class ScenarioRunner : private sched::NodeLoop::Lifecycle {
public:
    struct Options {
        std::uint64_t max_quanta = 20'000;  ///< safety cap
        bool record_timeline = true;
        /// Flight recorder (not owned; may be null or disabled): quantum
        /// boundaries, phase wall-clock, and admission/retirement/migration
        /// events.
        obs::Tracer* tracer = nullptr;
        /// Invariant hook for the property suite: called after every
        /// quantum's rebind, while the placement is live.
        std::function<void(const uarch::Platform&)> on_quantum{};
    };

    /// The trace's tasks may exceed hardware capacity at any instant —
    /// excess arrivals queue (FIFO) until a thread frees up.  Throws
    /// std::invalid_argument when the trace is not arrival-sorted or
    /// opts.max_quanta is 0.
    ScenarioRunner(uarch::Platform& platform, sched::AllocationPolicy& policy,
                   const ScenarioTrace& trace)
        : ScenarioRunner(platform, policy, trace, Options()) {}
    ScenarioRunner(uarch::Platform& platform, sched::AllocationPolicy& policy,
                   const ScenarioTrace& trace, Options opts);

    /// Executes the scenario; returns the measured result.
    ScenarioResult run();

private:
    /// Steps quanta until the trace drains or max_quanta is reached.
    void run_quanta();
    /// Admits arrivals up to `quantum` while threads are free (FIFO);
    /// returns how many arrived tasks still wait.
    int admit(std::uint64_t quantum);
    /// NodeLoop::Lifecycle: record the finished task and retire it.
    std::unique_ptr<apps::AppInstance> finished(std::size_t index,
                                                const sched::TaskObservation& o,
                                                double finish_quantum) override;

    uarch::Platform& platform_;
    sched::AllocationPolicy& policy_;
    const ScenarioTrace& trace_;
    Options opts_;
    sched::NodeLoop loop_;       ///< residents keyed by plan index
    ScenarioResult result_;      ///< the run being measured
    std::size_t next_plan_ = 0;  ///< first not-yet-admitted plan index
};

}  // namespace synpa::scenario
