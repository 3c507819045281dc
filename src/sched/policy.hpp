// Thread-to-core allocation policy interface.
//
// The experimental manager (paper §V-A) drives execution in quanta: after
// each quantum it reads every task's counters, characterizes them, and asks
// the policy for next quantum's grouping.  Policies see exactly what a
// user-level manager on the ThunderX2 sees — counter deltas and placements —
// with one exception: TaskObservation carries an instance pointer that only
// the Oracle baseline is allowed to dereference (it is *not* information a
// real policy could obtain, and SYNPA never touches it).
//
// SMT width is a *runtime* property of the chip (the TX2 BIOS configures
// SMT-1/2/4), not a property of the types: a CoreAllocation assigns each
// core a CoreGroup of up to smt_ways tasks, and the same policies drive
// every width.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/instance.hpp"
#include "model/categories.hpp"
#include "pmu/counters.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::obs {
class Tracer;
}  // namespace synpa::obs

namespace synpa::sched {

/// Sentinel for an empty SMT slot in a CoreGroup.
inline constexpr int kNoTask = -1;

/// The tasks co-scheduled on one SMT core: up to uarch::kMaxSmtWays task
/// ids, occupied slots first, kNoTask-padded.  How many slots are *legal*
/// is the chip's runtime smt_ways — NodeLoop::bind rejects groups that
/// overflow it.  {kNoTask, ...} is an idle core; {task, kNoTask, ...} a
/// core running a single thread (the partial-allocation contract of the
/// open-system driver, generalized from the old {task, kNoTask} pairs).
struct CoreGroup {
    // The initializer must name one kNoTask per slot: value-initialized
    // extras would read as task id 0.
    static_assert(uarch::kMaxSmtWays == 4, "update CoreGroup's default initializer");
    std::array<int, uarch::kMaxSmtWays> tasks{kNoTask, kNoTask, kNoTask, kNoTask};

    constexpr CoreGroup() = default;
    /// Builds a group from the given ids in slot order (rest kNoTask).
    CoreGroup(std::initializer_list<int> ids);

    /// Number of occupied slots (valid groups keep them in front).
    int occupancy() const noexcept {
        int n = 0;
        while (n < uarch::kMaxSmtWays && tasks[static_cast<std::size_t>(n)] != kNoTask) ++n;
        return n;
    }
    bool empty() const noexcept { return tasks[0] == kNoTask; }
    bool contains(int task_id) const noexcept {
        for (int t : tasks)
            if (t == task_id) return task_id != kNoTask;
        return false;
    }
    /// Appends a task in the first free slot; throws std::length_error when
    /// all kMaxSmtWays slots are taken.
    void add(int task_id);

    /// The occupied prefix as a span (occupied-slots-first contract).
    std::span<const int> members() const noexcept {
        return {tasks.data(), static_cast<std::size_t>(occupancy())};
    }

    int operator[](std::size_t slot) const { return tasks.at(slot); }
    friend bool operator==(const CoreGroup&, const CoreGroup&) = default;
};

/// One entry per *global* core (chip-major: chip c owns cores
/// [c*cores_per_chip, (c+1)*cores_per_chip)), in core order:
/// allocation[g] = the group running on global core g.  Every live task
/// must appear exactly once across the allocation.
///
/// (The PR-3 `PairAllocation` alias and its from_pairs/to_pairs converters
/// completed their one-release deprecation window and are gone; spell
/// allocations as CoreAllocation directly.)
using CoreAllocation = std::vector<CoreGroup>;

/// What the manager hands the policy about one task after a quantum.
struct TaskObservation {
    int task_id = -1;
    int slot_index = -1;  ///< stable workload position 0..N-1 (paper's (04) etc.)
    std::string app_name;
    int core = -1;              ///< *global* core it ran on during the quantum
    int chip = 0;               ///< chip owning that core (core / cores-per-chip)
    std::vector<int> corunner_task_ids;  ///< every task sharing the core, slot order
    int smt_ways = 2;           ///< the platform's runtime SMT width
    int num_chips = 1;          ///< chips in the platform
    int total_cores = 0;        ///< platform-wide core count; always populated
    pmu::CounterBank delta;     ///< counter deltas over the quantum
    model::CategoryBreakdown breakdown;  ///< three-step characterization of delta

    /// Oracle-only escape hatch (see file comment).
    const apps::AppInstance* instance = nullptr;
};

class AllocationPolicy {
public:
    virtual ~AllocationPolicy() = default;

    virtual std::string name() const = 0;

    /// Initial placement, before any measurement exists.  `task_ids` is in
    /// arrival order; the default reproduces the Linux assignment the paper
    /// observes, generalized to any width: tasks spread across ceil(N/W)
    /// cores before doubling up, so task k lands on core k mod C, slot
    /// k div C (C = ceil(N / smt_ways)).  For W = 2 that is the paper's
    /// "task k pairs with task k + ceil(N/2) on core k" layout exactly.
    virtual CoreAllocation initial_allocation(std::span<const int> task_ids,
                                              int smt_ways = 2);

    /// Called after every quantum; returns next quantum's grouping.  The
    /// default keeps the current placement (observations carry it).
    virtual CoreAllocation reallocate(std::span<const TaskObservation> observations);

    /// A finished task was replaced by a fresh instance of the same
    /// application in the same hardware slot (classic methodology mode).
    virtual void on_task_replaced(int old_task_id, int new_task_id);

    /// A task left the system for good (open-system retirement).  Policies
    /// holding per-task state should drop it; the id is never reused within
    /// a run.
    virtual void on_task_finished(int task_id);

    /// A task was preempted off this policy's node (fleet priority
    /// preemption) and re-queued; it may later be re-admitted *anywhere* in
    /// the fleet under the same id.  From the node-local policy's view the
    /// task is gone — the default forwards to on_task_finished so existing
    /// policies drop their per-task state — but policies may distinguish the
    /// two (e.g. to keep a behaviour estimate warm for a possible return).
    virtual void on_task_preempted(int task_id);

    /// Observability hook: the driver attaches its flight recorder before
    /// the run so instrumented policies (SYNPA, the online wrapper) can emit
    /// allocation/alarm/refit events.  The tracer outlives the run; nullptr
    /// detaches.  The default ignores it — tracing never changes decisions.
    virtual void set_tracer(obs::Tracer* tracer) { (void)tracer; }
};

/// Optional side-interface for policies that adapt online — detecting task
/// phase changes from PMU deltas and folding fresh observations back into
/// their interference model.  Drivers discover it via dynamic_cast and
/// report the counters in their results (the scenario CSV's `adaptive`
/// column); policies without it are "frozen-model" by definition.
class OnlinePolicy {
public:
    virtual ~OnlinePolicy() = default;
    /// Phase-change alarms raised so far.
    virtual std::uint64_t phase_changes() const = 0;
    /// Incremental model refits folded into the running policy so far.
    virtual std::uint64_t model_refits() const = 0;
    /// Online training samples absorbed so far.
    virtual std::uint64_t samples_absorbed() const = 0;
};

/// Reconstructs the current grouping from a set of observations (helper
/// shared by the keep-current default and several policies).  The result is
/// core-aligned: entry c describes core c, with empty groups for idle cores
/// — re-applying it never migrates anything.  `total_cores` must be
/// positive (every driver populates TaskObservation::total_cores; the old
/// "driver predates it" compact form is gone).
CoreAllocation current_allocation(std::span<const TaskObservation> observations,
                                  int total_cores);

/// The SMT width the observations were taken under (2 when `observations`
/// is empty, matching the historical default).
int observed_smt_ways(std::span<const TaskObservation> observations) noexcept;

/// The platform-wide core count the observations were taken under.  Throws
/// std::invalid_argument when the driver failed to populate total_cores —
/// a clean diagnostic instead of downstream division by zero.
std::size_t observed_total_cores(std::span<const TaskObservation> observations);

/// Chips in the platform the observations were taken under (1 when
/// `observations` is empty — the single-socket default).
int observed_chip_count(std::span<const TaskObservation> observations) noexcept;

}  // namespace synpa::sched
