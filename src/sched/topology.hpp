// Topology-aware allocation helpers shared by the informed policies
// (SynpaPolicy, OraclePolicy).
//
// On a multi-chip platform the grouping problem decomposes: co-run
// interference is a *within-core* phenomenon, so once every task is
// assigned a chip, each chip's grouping is the familiar single-chip
// problem.  What is new is the chip assignment itself — and unlike a
// regroup within a chip, moving a task across chips is not free (the
// platform charges a multi-quantum cold-cache window, see
// uarch/platform.hpp).  The balancing pass here therefore only proposes a
// cross-chip move when the *predicted* slowdown benefit exceeds a
// configured migration-cost threshold, per the follow-up allocation-policy
// work (arXiv:2507.00855) and AMTHA's communication-penalty framing.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sched/policy.hpp"

namespace synpa::sched {

/// Shape of the platform as seen through a quantum's observations.
struct TopologyView {
    int chips = 1;
    int cores_per_chip = 0;
    int smt_ways = 2;

    int capacity_per_chip() const noexcept { return cores_per_chip * smt_ways; }
};

/// Derives the topology from a non-empty observation span; throws
/// std::invalid_argument when the driver left total_cores unpopulated or
/// the core count does not divide evenly across the chips.
TopologyView observed_topology(std::span<const TaskObservation> observations);

/// Predicted slowdown of task (by observation index) running alone.
using SoloCost = std::function<double(std::size_t)>;
/// Predicted combined slowdown of two tasks (by observation index)
/// sharing a core.
using PairCost = std::function<double(std::size_t, std::size_t)>;

/// Assigns every observation a target chip: tasks start on their current
/// chip, then a balancing pass moves tasks from the most- to the
/// least-loaded chip while (a) the imbalance is at least two tasks (a
/// one-task gap only relocates the imbalance) and (b) the best candidate's
/// predicted benefit — its cheapest co-run cost on the crowded chip minus
/// its predicted cost on the target chip (solo when a core frees up there,
/// cheapest pair otherwise) — exceeds `migration_penalty`.  Deterministic:
/// ties resolve to the lowest chip / observation index.  Returns the
/// target chip per observation index.
std::vector<int> balance_across_chips(std::span<const TaskObservation> observations,
                                      const TopologyView& topo, const SoloCost& solo_cost,
                                      const PairCost& pair_cost, double migration_penalty);

/// Splits observation indices by target chip (entry c = indices assigned
/// to chip c, in observation order).
std::vector<std::vector<std::size_t>> indices_by_chip(std::span<const int> target_chips,
                                                      int chips);

/// Copies the given observations localizing their core ids to the chip
/// (core - chip * cores_per_chip), so single-chip solvers and
/// incumbent-aware placement work unchanged on the subset.
std::vector<TaskObservation> localize_observations(
    std::span<const TaskObservation> observations, std::span<const std::size_t> indices,
    int chip, int cores_per_chip);

/// Stitches per-chip allocations (each cores_per_chip entries, local core
/// order) into one platform-wide allocation in chip-major global core
/// order.  Throws std::invalid_argument if a chip allocation has the wrong
/// size.
CoreAllocation concat_chip_allocations(std::span<const CoreAllocation> per_chip,
                                       int cores_per_chip);

/// Default cross-chip migration-penalty gate (in predicted-slowdown
/// units), shared by every topology-aware policy so the knobs cannot
/// silently drift apart.
inline constexpr double kDefaultCrossChipPenalty = 0.15;

/// Solves one chip's (localized) sub-problem.  `local` is the chip's
/// observation subset with core ids localized (see
/// localize_observations); `indices` are the corresponding indices into
/// the original observation span, so policies can subset side arrays
/// (e.g. the oracle's truth vectors) in step.  May return fewer than
/// cores_per_chip entries; the driver pads with idle cores.
using ChipAllocator = std::function<CoreAllocation(
    std::span<const TaskObservation> local, std::span<const std::size_t> indices)>;

/// The whole multi-chip orchestration the informed policies share: run the
/// balancing pass, split the observations by target chip, localize each
/// subset, invoke `allocate` per chip, and stitch the results into one
/// platform-wide allocation.
CoreAllocation allocate_across_chips(std::span<const TaskObservation> observations,
                                     const TopologyView& topo, const SoloCost& solo_cost,
                                     const PairCost& pair_cost, double migration_penalty,
                                     const ChipAllocator& allocate);

}  // namespace synpa::sched
