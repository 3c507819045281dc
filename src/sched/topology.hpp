// SYNPA's Step 3 (paper §IV-B), shared by the informed policies
// (SynpaPolicy, OraclePolicy): given the costs a policy predicts, pick the
// cheapest grouping of a whole platform's tasks.  The policies differ only
// in their group-cost oracle; everything else — the topology, the
// cross-chip balancing pass and the per-chip solve — is solve_platform.
//
// One oracle prices every candidate: a matching::GroupCost over ascending
// positions in the platform's observation span.  A task running alone is a
// 1-member group and two tasks sharing a core a 2-member group, which the
// pairwise-built group predictor reduces to the solo term and to Equation 1
// in both directions bit for bit.
//
// On a multi-chip platform the grouping problem decomposes: co-run
// interference is a *within-core* phenomenon, so once every task is
// assigned a chip, each chip's grouping is the familiar single-chip
// problem.  What is new is the chip assignment itself — and unlike a
// regroup within a chip, moving a task across chips is not free (the
// platform charges a multi-quantum cold-cache window, see
// uarch/platform.hpp).  The balancing pass therefore only proposes a
// cross-chip move when the *predicted* slowdown benefit exceeds a
// configured migration-cost threshold, per the follow-up allocation-policy
// work (arXiv:2507.00855) and AMTHA's communication-penalty framing.
#pragma once

#include <span>
#include <vector>

#include "matching/matching.hpp"
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

/// Default cross-chip migration-penalty gate (in predicted-slowdown
/// units), shared by every topology-aware policy so the knobs cannot
/// silently drift apart.
inline constexpr double kDefaultCrossChipPenalty = 0.15;

/// Assigns every observation a target chip: tasks start on their current
/// chip, then a balancing pass moves tasks from the most- to the
/// least-loaded chip while (a) the imbalance is at least two tasks (a
/// one-task gap only relocates the imbalance) and (b) the best candidate's
/// predicted benefit — its cheapest co-run cost on the crowded chip minus
/// its predicted cost on the target chip (solo when a core frees up there,
/// cheapest pair otherwise) — exceeds `migration_penalty`.  Prices only
/// 1- and 2-member groups.  Deterministic: ties resolve to the lowest
/// chip / observation index.  Returns the target chip per observation
/// index.
std::vector<int> balance_across_chips(std::span<const TaskObservation> observations,
                                      const TopologyView& topo,
                                      const matching::GroupCost& cost, double migration_penalty);

/// Step 3 over a whole platform's observations.  With more than one chip,
/// balance_across_chips first picks each task's chip; then each chip is
/// solved over its own tasks (in observation order), with each task's
/// incumbent core counted only when it already ran on that chip:
///   * width 1: every task keeps a core of its own;
///   * width > 2: matching::min_weight_grouping over `cost`;
///   * width 2: matching::min_weight_pairs over the pair weights (every
///     u < v of the chip, row-major) and the incumbent pairing — `matcher`
///     with hysteresis at full load, the padded `exact` solve with solo
///     weights under partial load.
/// The chosen groups (solver pairs first, then singles ascending) reach one
/// place_groups call per chip, which keeps survivors on their incumbent
/// cores.  Returns one entry per platform core, chip-major.
CoreAllocation solve_platform(std::span<const TaskObservation> observations,
                              const matching::GroupCost& cost, const matching::Matcher& matcher,
                              const matching::Matcher& exact, double stability_bias,
                              double keep_threshold, double cross_chip_penalty);

}  // namespace synpa::sched
