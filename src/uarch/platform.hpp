// The platform: num_chips identical chips (sockets), each with its own
// cores, LLC and DRAM channel, addressed through one *global* core-id
// space: global core g lives on chip g / cores_per_chip at local index
// g % cores_per_chip.
//
// The platform is every driver's substrate (NodeLoop, the trainer, the
// benches) and the only owner of placement: one id-keyed table holds each
// task's global core and slot, and the chips only simulate (the bound task
// itself is read back from the slot's ThreadContext).  It also owns the
// topology-aware migration-cost model.  Moves form a cost hierarchy,
// charged from the task's last global core:
//   * slot move within a core        — free (architectural state follows),
//   * core move within a chip        — the local L1/L2 warmup window
//     (SimConfig::warmup_insts / warmup_miss_multiplier),
//   * move across chips              — the local window, then on top of it
//     (AppInstance::start_warmup keeps the larger) the cross-chip window:
//     everything is cold *and* remote, so cross_chip_warmup_quanta quanta
//     of degraded IPC at cross_chip_miss_multiplier, decaying linearly
//     (cold L2/TLB plus remote-memory latency until the working set
//     migrates).
// A one-chip platform (num_chips = 1) is how the trainer and the benches
// run a bare chip: the cross-chip path never triggers.
//
// Execution can be chip-sharded: with SimConfig::sim_threads > 1 (env
// SYNPA_SIM_THREADS) run_quantum steps the chips with one
// common::parallel_for over a pool of min(sim_threads, chips) threads (the
// caller among them), and the join completes before it returns, so the observe/decide/bind phases
// of the drivers stay on the coordinating thread.  Results are
// bit-identical to the serial path at every thread count: chips share no
// mutable state inside a quantum (RNG streams live in the per-task
// AppInstances, each bound to exactly one chip) and the platform's own
// counters advance only after the join.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/instance.hpp"
#include "common/flat_map.hpp"
#include "common/thread_pool.hpp"
#include "uarch/chip.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::obs {
class Tracer;
}  // namespace synpa::obs

namespace synpa::uarch {

class Platform {
public:
    /// Builds cfg.num_chips chips of cfg.cores cores each (all identical).
    explicit Platform(const SimConfig& cfg);

    const SimConfig& config() const noexcept { return cfg_; }
    int chip_count() const noexcept { return static_cast<int>(chips_.size()); }
    int cores_per_chip() const noexcept { return cfg_.cores; }
    /// Total cores across every chip — the size of the global core-id space.
    int core_count() const noexcept { return chip_count() * cores_per_chip(); }
    /// Total hardware threads (cores x smt_ways).
    int hw_contexts() const noexcept { return core_count() * cfg_.smt_ways; }

    Chip& chip(int c) { return *chips_.at(static_cast<std::size_t>(c)); }
    const Chip& chip(int c) const { return *chips_.at(static_cast<std::size_t>(c)); }

    /// Which chip a global core id belongs to.
    int chip_of_core(int global_core) const noexcept { return global_core / cfg_.cores; }
    /// A global core id's index within its chip.
    int local_core(int global_core) const noexcept { return global_core % cfg_.cores; }

    /// The SMT core behind a global core id.
    const SmtCore& core(int global_core) const {
        return chip(chip_of_core(global_core)).core(local_core(global_core));
    }

    /// Binds a task to a free hardware thread (the sched_setaffinity
    /// analogue); `where.core` is a *global* core id.  A core move charges
    /// the local warmup window, a chip move the cross-chip one on top (see
    /// file comment).
    void bind(apps::AppInstance& task, CpuSlot where);

    /// Removes the task from its hardware thread (architectural state and
    /// migration history survive, so it can be bound again later).
    void unbind(int task_id);

    /// Drops a task's migration history platform-wide.  Drivers call this
    /// when a task leaves the system for good (retirement, relaunch
    /// replacement): ids are never reused, so the placement table would
    /// otherwise keep one dead entry per task ever admitted.
    void forget_task(int task_id) noexcept;

    /// Where a task currently runs (global core id); throws if not bound.
    CpuSlot placement(int task_id) const;
    bool is_bound(int task_id) const noexcept;

    /// All currently bound tasks across every chip (unspecified order).
    std::vector<const apps::AppInstance*> bound_tasks() const;

    /// Runs one scheduling quantum on every chip in lockstep.  With
    /// cfg.sim_threads > 1 the per-chip work is sharded across host
    /// threads and joined before returning (bit-identical to serial).
    void run_quantum();

    /// Host threads a quantum actually uses: min(sim_threads, chips), and 1
    /// on the serial path.
    int sim_shards() const noexcept { return pool_ ? static_cast<int>(pool_->size()) : 1; }

    /// Attaches the drivers' flight recorder (not owned; nullptr detaches).
    /// With tracing on, run_quantum times each chip's quantum with host
    /// wall-clock: each chip writes its own ring during the quantum and
    /// the coordinator merges them after the join, so the trace stream is
    /// identical at every SYNPA_SIM_THREADS.
    void set_tracer(obs::Tracer* tracer);

    /// Cycles simulated so far.
    std::uint64_t now() const noexcept { return now_; }
    /// Quanta completed so far.
    std::uint64_t quanta_elapsed() const noexcept { return quanta_; }

    /// Core-cycles ticked and skipped so far, summed over every chip (see
    /// Chip::cycle_counts); read between quanta, after the join.
    CycleCounts cycle_counts() const noexcept;

    /// Cross-chip migrations charged so far (each one started a cross-chip
    /// warmup window on the moved task).
    std::uint64_t cross_chip_migrations() const noexcept { return cross_chip_migrations_; }

private:
    SimConfig cfg_;
    /// unique_ptr: Chip's SmtCores point into the owning Chip's SimConfig,
    /// so Chip must never relocate once constructed.
    std::vector<std::unique_ptr<Chip>> chips_;
    /// Threads stepping the chips of a quantum, the caller included; null on
    /// the serial path (sim_threads <= 1 or a single chip).
    std::unique_ptr<common::ThreadPool> pool_;
    /// Flight recorder (not owned); null when detached or disabled.
    obs::Tracer* tracer_ = nullptr;
    /// Slot value of a task that is known but not bound.
    static constexpr int kUnbound = -1;
    /// The hardware thread behind a global placement.
    ThreadContext& context(CpuSlot where) {
        return chip(chip_of_core(where.core))
            .slot({.core = local_core(where.core), .slot = where.slot});
    }

    /// Task id -> the global core it runs on and its slot there; after
    /// unbind the core it last ran on, with slot kUnbound.  Survives
    /// unbind until forget_task, since the last core drives the warmup
    /// windows.  Flat (id-indexed): probed for every live task every
    /// quantum through bind/placement.
    common::FlatIdMap<CpuSlot> placement_;
    std::uint64_t now_ = 0;
    std::uint64_t quanta_ = 0;
    std::uint64_t cross_chip_migrations_ = 0;
};

/// Structural invariant check, used by the property/fuzz suite after every
/// quantum: every bound task occupies exactly one slot platform-wide, no
/// core runs more threads than smt_ways (slots beyond the width stay
/// empty), occupancy never exceeds chips x cores x smt_ways, and the
/// placement map agrees with the slot-level state.  Throws std::logic_error
/// naming the first violation.
void validate_platform(const Platform& platform);

}  // namespace synpa::uarch
