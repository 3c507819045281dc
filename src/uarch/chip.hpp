// The chip: N SMT cores (runtime width smt_ways, 1..kMaxSmtWays) sharing a
// last-level cache and the DRAM system.  The chip only simulates: which
// task runs where is the Platform's (uarch/platform.hpp), which binds tasks
// into the chip's hardware threads through the slot accessor below.
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

class Platform;

class Chip {
public:
    explicit Chip(const SimConfig& cfg);

    const SimConfig& config() const noexcept { return cfg_; }
    int core_count() const noexcept { return static_cast<int>(cores_.size()); }
    const SmtCore& core(int c) const { return cores_.at(static_cast<std::size_t>(c)); }

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

private:
    friend class Platform;
    /// The hardware thread at a chip-local slot; the Platform binds and
    /// unbinds tasks here.
    ThreadContext& slot(CpuSlot local) {
        return cores_.at(static_cast<std::size_t>(local.core)).slot(local.slot);
    }

    void refresh_rates();

    SimConfig cfg_;
    std::vector<SmtCore> cores_;
    MemorySystem memory_;
    std::uint64_t now_ = 0;
    std::uint64_t quanta_ = 0;
};

}  // namespace synpa::uarch
