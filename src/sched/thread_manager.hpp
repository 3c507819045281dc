// The user-level experimental manager (paper §V-A / §V-B).
//
// Owns the workload run: creates one task per workload slot, performs the
// initial allocation, then runs sched::NodeLoop's quantum (run, read
// counters per task, characterize, let the policy re-pair, migrate) in its
// closed configuration — fixed slots, full groups.  Implements the paper's
// measurement methodology: each original task carries a target instruction
// count (from isolated profiling); when it reaches the target its finish
// time and IPC are recorded and a fresh instance of the same application is
// launched in its slot so the machine load stays constant; the run ends
// when the slowest *original* task finishes.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "model/categories.hpp"
#include "sched/policy.hpp"
#include "sched/node_loop.hpp"
#include "uarch/platform.hpp"

namespace synpa::sched {

/// One workload slot: which application, its behaviour seed, and the
/// instruction target that defines its finish line.
struct TaskSpec {
    std::string app_name;
    std::uint64_t seed = 1;
    std::uint64_t target_insts = 0;
    double isolated_ipc = 0.0;  ///< from the target-profiling run (for metrics)
};

/// Per-quantum trace row for one workload slot (drives Figures 6/7 and
/// Table V).
struct QuantumTrace {
    std::uint64_t quantum = 0;
    std::array<double, model::kCategoryCount> fractions{};  ///< own characterization
    int corunner_slot = -1;             ///< workload position of the co-runner
    double ipc = 0.0;
    bool frontend_dominant = false;     ///< FE fraction > BE fraction this quantum
};

/// Final record for one original task.
struct TaskOutcome {
    std::string app_name;
    int slot_index = -1;
    std::uint64_t target_insts = 0;
    double finish_quantum = 0.0;  ///< fractional quantum where the target was hit
    double ipc_smt = 0.0;         ///< target instructions / cycles to finish
    double isolated_ipc = 0.0;
    double individual_speedup = 0.0;  ///< ipc_smt / isolated_ipc
    int final_core = -1;  ///< global core the task finished on

    /// Aggregate category fractions over the task's run (Figure 6 bars).
    std::array<double, model::kCategoryCount> mean_fractions{};
};

struct RunResult {
    std::string policy_name;
    double turnaround_quanta = 0.0;  ///< slowest original task's finish time
    std::uint64_t quanta_executed = 0;
    std::uint64_t migrations = 0;  ///< core changes applied across the run
    std::uint64_t cross_chip_migrations = 0;  ///< subset that changed chips
    std::vector<TaskOutcome> outcomes;              ///< one per workload slot
    std::vector<std::vector<QuantumTrace>> traces;  ///< per slot, per quantum
    bool completed = true;  ///< false if the safety quantum cap was hit
};

class ThreadManager : private NodeLoop::Lifecycle {
public:
    struct Options {
        std::uint64_t max_quanta = 20'000;  ///< safety cap
        bool record_traces = true;
        /// Flight recorder (not owned; may be null or disabled).  The
        /// manager stamps quantum boundaries and phase wall-clock, emits
        /// admission/retirement/migration events, and attaches the tracer
        /// to the platform and policy for their own event sites.
        obs::Tracer* tracer = nullptr;
        /// Invariant hook for the property suite: called after every
        /// quantum's rebind, while the placement is live.
        std::function<void(const uarch::Platform&)> on_quantum{};
    };

    /// The platform must have exactly specs.size() hardware threads free
    /// (specs.size() == platform.hw_contexts()), and opts.max_quanta must
    /// be at least 1; otherwise throws std::invalid_argument.
    ThreadManager(uarch::Platform& platform, AllocationPolicy& policy,
                  std::span<const TaskSpec> specs)
        : ThreadManager(platform, policy, specs, Options()) {}
    ThreadManager(uarch::Platform& platform, AllocationPolicy& policy,
                  std::span<const TaskSpec> specs, Options opts);

    /// Executes the workload to completion; returns the measured result.
    RunResult run();

private:
    struct Slot {
        TaskSpec spec;
        std::uint64_t relaunches = 0;
        std::optional<TaskOutcome> outcome{};  ///< set when the original finished
        // Accumulated categories for mean_fractions of the original task.
        std::array<double, model::kCategoryCount> category_cycles{};
        double cycles_observed = 0.0;
        std::vector<QuantumTrace> trace{};
    };

    // NodeLoop::Lifecycle: record traces, relaunch finished originals, and
    // stop regrouping once every original has finished.
    void observed(std::uint64_t quantum, std::span<const TaskObservation> obs) override;
    std::unique_ptr<apps::AppInstance> finished(std::size_t index, const TaskObservation& o,
                                                double finish_quantum) override;
    bool regroup() const override { return finished_ < slots_.size(); }

    uarch::Platform& platform_;
    AllocationPolicy& policy_;
    Options opts_;
    NodeLoop loop_;
    std::vector<Slot> slots_;
    int next_task_id_ = 1;
    std::size_t finished_ = 0;  ///< originals past their finish line
};

}  // namespace synpa::sched
