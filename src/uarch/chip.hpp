// The chip: N SMT cores (runtime width smt_ways, 1..kMaxSmtWays) sharing a
// last-level cache and the DRAM system.
//
// The chip owns the quantum loop.  At each quantum boundary it derives every
// bound thread's EffectiveRates from:
//   * its current phase parameters (demand, event rates, footprints),
//   * its co-runners' footprints (L1I and L2 are shared within the core),
//   * every chip task's LLC footprint (the 28 MB LLC is chip-wide),
//   * last quantum's DRAM utilization (bandwidth queueing), and
//   * the task's post-migration warmup state.
// Cache-sharing effects are *relative to isolated execution*: an app's
// profile rates describe its isolated behaviour, so multipliers are the
// ratio of shared-coverage to isolated-coverage miss factors.  Running an
// app alone on the chip reproduces its isolated profile by construction.
//
// Within a quantum the cores are independent: each has its own ICache miss
// port and rotation pointers, every task is bound to one slot and carries
// its own RNG streams and counters, and the DRAM queue factor is read in
// refresh_rates and written only after the last cycle.  run_quantum
// therefore runs each core through the whole quantum in turn (core-major,
// SmtCore::run), which cannot be told apart from ticking all cores in
// lockstep.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/instance.hpp"
#include "common/flat_map.hpp"
#include "pmu/perf_session.hpp"
#include "uarch/memory.hpp"
#include "uarch/sim_config.hpp"
#include "uarch/smt_core.hpp"

namespace synpa::uarch {

/// Physical placement of a task: core id and SMT slot within the core.
struct CpuSlot {
    int core = 0;
    int slot = 0;
    friend bool operator==(const CpuSlot&, const CpuSlot&) = default;
};

class Chip : public pmu::CounterSource {
public:
    explicit Chip(const SimConfig& cfg);

    const SimConfig& config() const noexcept { return cfg_; }
    int core_count() const noexcept { return static_cast<int>(cores_.size()); }
    const SmtCore& core(int c) const { return cores_.at(static_cast<std::size_t>(c)); }

    /// Binds a task to a hardware thread (the sched_setaffinity analogue).
    /// Rebinding to a *different core* than the task last ran on starts a
    /// cold-cache warmup window.  The slot must currently be free.
    void bind(apps::AppInstance& task, CpuSlot where);

    /// Removes the task from its hardware thread (it keeps architectural
    /// state and can be bound again later).
    void unbind(int task_id);

    /// Drops the task's migration history (last-core memory).  For tasks
    /// that retired for good — their ids are never reused, so keeping the
    /// entry would only grow the map for the lifetime of the run.
    void forget_task(int task_id) noexcept { last_core_.erase(task_id); }

    /// Where a task currently runs; throws if not bound.
    CpuSlot placement(int task_id) const;
    bool is_bound(int task_id) const noexcept { return placement_.contains(task_id); }

    /// All currently bound tasks (unspecified order).
    std::vector<apps::AppInstance*> bound_tasks() const;

    /// Runs one scheduling quantum (config().cycles_per_quantum cycles):
    /// refreshes contention rates, runs every core through the quantum,
    /// updates the DRAM model.
    void run_quantum();

    /// Core-cycles ticked and skipped so far over every core; ticked +
    /// skipped == core_count() x now().
    CycleCounts cycle_counts() const noexcept;

    /// Cycles simulated so far.
    std::uint64_t now() const noexcept { return now_; }
    /// Quanta completed so far.
    std::uint64_t quanta_elapsed() const noexcept { return quanta_; }

    const MemorySystem& memory() const noexcept { return memory_; }

    // pmu::CounterSource: cumulative counters for a bound-or-known task.
    pmu::CounterBank task_counters(int task_id) const override;

private:
    void refresh_rates();

    SimConfig cfg_;
    std::vector<SmtCore> cores_;
    MemorySystem memory_;
    std::uint64_t now_ = 0;
    std::uint64_t quanta_ = 0;

    // Flat (id-indexed) maps: every one is probed per live task per
    // quantum on the counter/bind paths, where hashing showed up at 512
    // hardware contexts.
    common::FlatIdMap<apps::AppInstance*> tasks_;  ///< bound tasks by id
    common::FlatIdMap<CpuSlot> placement_;
    common::FlatIdMap<int> last_core_;  ///< survives unbind; drives warmup
};

}  // namespace synpa::uarch
