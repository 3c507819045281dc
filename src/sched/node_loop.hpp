// The per-quantum loop of the user-level manager (paper §V-A / §V-B), shared
// by every driver: the classic closed-system ThreadManager, the open-system
// scenario::ScenarioRunner and each fleet::FleetNode.
//
// One quantum is: simulate it on the platform, observe every resident
// (counter deltas and the three-step characterization), check finish lines,
// let the allocation policy regroup the survivors, and rebind.  The loop owns
// the resident list in stable slot order — the order observations reach the
// policy and the rebind sequence runs in — so every driver measures and
// migrates identically, on one chip or many.  What differs per driver is a
// lifecycle configuration:
//   - closed: fixed slots placed by initial_allocation, relaunch-in-place
//     at a finish line, full groups only;
//   - open:   FIFO arrivals admitted on the least-loaded slot, retirement,
//     partial groups;
//   - fleet node: admission and preemption from outside, retirement, an
//     interference estimator fed from the observations, no tracer.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "obs/trace.hpp"
#include "pmu/counters.hpp"
#include "sched/policy.hpp"
#include "uarch/platform.hpp"

namespace synpa::sched {

/// What one rebind did to the placement.
struct BindStats {
    std::uint64_t migrations = 0;   ///< tasks whose (global) core changed
    std::uint64_t cross_chip = 0;   ///< subset of those that changed chips
};

class NodeLoop {
public:
    /// Finish line of a resident that never finishes (a relaunched slot).
    static constexpr std::uint64_t kNoFinish = std::numeric_limits<std::uint64_t>::max();

    /// One task holding a hardware thread.
    struct Resident {
        std::unique_ptr<apps::AppInstance> task;
        std::string app_name;
        int slot_index = 0;  ///< driver key, reported as TaskObservation::slot_index
        std::uint64_t finish_insts = kNoFinish;  ///< retired instructions that finish it
        pmu::CounterBank prev_bank{};            ///< counters at the last boundary
        std::uint64_t insts_prev = 0;            ///< insts_retired at the last boundary
    };

    /// The driver's side of the loop.
    class Lifecycle {
    public:
        virtual ~Lifecycle() = default;
        /// Every resident's observation of `quantum`, in slot order, before
        /// any finish line is checked.
        virtual void observed(std::uint64_t /*quantum*/,
                              std::span<const TaskObservation> /*obs*/) {}
        /// Resident `index` (observed as `o`) crossed its finish line at the
        /// fractional quantum `finish_quantum`.  Return a fresh instance to
        /// relaunch in the same hardware slot, or null to retire the resident.
        virtual std::unique_ptr<apps::AppInstance> finished(std::size_t index,
                                                            const TaskObservation& o,
                                                            double finish_quantum) = 0;
        /// false ends the quantum after the finish phase: no decide, no bind.
        virtual bool regroup() const { return true; }
    };

    /// What one quantum did.
    struct Report {
        double aggregate_ipc = 0.0;  ///< sum of the residents' IPCs, before retirement
        BindStats binds;
    };

    /// `tracer` (not owned) may be null or disabled; an enabled one is
    /// attached to the platform and the policy, and the loop stamps quantum
    /// boundaries, host phase timings and admission/retirement/migration
    /// events into it.  With `full_groups` every core must run exactly
    /// smt_ways threads (the closed system keeps every chip saturated).
    NodeLoop(uarch::Platform& platform, AllocationPolicy& policy, obs::Tracer* tracer,
             bool full_groups);

    const std::vector<Resident>& residents() const noexcept { return residents_; }
    std::vector<int> resident_ids() const;

    /// Where an arrival goes: the least-loaded core platform-wide (ties to
    /// the lowest global index, so chip 0 fills first at equal load) in its
    /// lowest free SMT slot — the CFS spread-before-doubling-up the paper
    /// observes.  {-1, -1} when every context is taken.
    uarch::CpuSlot admission_slot() const;

    /// Appends a resident without binding it; place it with bind().
    void add(Resident r);
    /// Appends a resident bound on admission_slot(); the event is stamped
    /// `quantum`.  Counting starts from the instance's current progress.
    void admit(Resident r, std::uint64_t quantum);
    /// Takes a resident out without finishing it: unbinds it, drops the
    /// platform's and the policy's state for it, and hands back the
    /// instance with its progress intact.
    std::unique_ptr<apps::AppInstance> preempt(int task_id);

    /// Validates `alloc` (entry g = global core g; a short allocation leaves
    /// the trailing cores idle; see the CoreAllocation contract in
    /// policy.hpp) as a placement of exactly the residents and applies it:
    /// unbind everything, then bind in slot order.  The platform charges a
    /// local cache-warmup penalty where the core changed and the larger
    /// cross-chip window where the chip changed.  Each moved task emits a
    /// migration event (slot moves included, though they stay free and
    /// uncounted in the returned BindStats).
    BindStats bind(CoreAllocation alloc);

    /// Runs quantum `quantum`: simulate, observe, finish, decide, bind.
    /// `queued` is recorded in the quantum's trace sample.
    Report step(std::uint64_t quantum, Lifecycle& life, int queued = 0);

private:
    TaskObservation observe(const Resident& r) const;
    void finish(std::uint64_t quantum, Lifecycle& life, std::vector<TaskObservation>& obs);
    void emit(obs::EventKind kind, std::uint64_t quantum, int task, int core,
              const std::string& app, double value = 0.0);

    uarch::Platform& platform_;
    AllocationPolicy& policy_;
    obs::Tracer* tracer_ = nullptr;  ///< the tracer when enabled, else null
    bool full_groups_;
    std::vector<Resident> residents_;  ///< stable slot order
};

}  // namespace synpa::sched
