// Baseline allocation policies.
//
//  * LinuxPolicy — the paper's comparison point: behaviour-unaware,
//    arrival-order grouping (tasks spread across cores, then double up),
//    never migrates; a relaunched application inherits its predecessor's
//    hardware thread.  This matches the CFS behaviour the paper observes
//    ("once allocated, an application remains in the core until its
//    execution finishes").
//  * RandomPolicy — regroups uniformly at random every quantum; isolates
//    how much of SYNPA's win is *informed* grouping rather than mere churn.
//  * OraclePolicy — upper bound: uses the true current-phase isolated
//    categories of every task (information no real policy has) with the
//    forward model and exact matching/grouping.  Requires calibrated
//    profiles (workloads::calibrate_suite).  Its Step 3 is
//    sched::solve_platform (sched/topology.hpp), the same call SynpaPolicy
//    makes; only the costs differ.
//
// Also the placement helpers every policy uses.
#pragma once

#include <cstdint>
#include <memory>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "sched/policy.hpp"
#include "sched/topology.hpp"

namespace synpa::sched {

class LinuxPolicy final : public AllocationPolicy {
public:
    std::string name() const override { return "linux"; }
    // Inherits the arrival-order initial allocation and the keep-current
    // reallocation — exactly the baseline behaviour.
};

class RandomPolicy final : public AllocationPolicy {
public:
    explicit RandomPolicy(std::uint64_t seed) : rng_(seed, 0x7a2d) {}
    std::string name() const override { return "random"; }
    CoreAllocation reallocate(std::span<const TaskObservation> observations) override;

private:
    common::Rng rng_;
};

class OraclePolicy final : public AllocationPolicy {
public:
    /// The largest chip the oracle solves at SMT-2: its exact matcher pads
    /// every chip to 2 x cores vertices, and SubsetDpMatcher stops at 24.
    static constexpr std::size_t kMaxSmt2Cores = matching::SubsetDpMatcher::kMaxVertices / 2;

    /// `cross_chip_penalty` is the predicted-slowdown benefit a cross-chip
    /// move must exceed before the multi-chip balancing pass migrates a
    /// task (see sched/topology.hpp); irrelevant on one chip.  It must be
    /// >= 0 (+infinity never crosses); anything else throws
    /// std::invalid_argument naming it.
    explicit OraclePolicy(model::InterferenceModel model,
                          double cross_chip_penalty = kDefaultCrossChipPenalty);
    std::string name() const override { return "oracle"; }
    /// Throws std::invalid_argument on an SMT-2 chip of more than
    /// kMaxSmt2Cores cores.
    CoreAllocation reallocate(std::span<const TaskObservation> observations) override;

private:
    /// The model's group predictor fed the given true phase vectors
    /// (observation order).
    matching::GroupCost costs(std::span<const model::CategoryVector> truth) const;

    model::InterferenceModel model_;
    double cross_chip_penalty_;
    matching::SubsetDpMatcher matcher_;
};

/// Sampling-based symbiotic scheduler in the spirit of Snavely & Tullsen
/// [7] (paper §II): instead of a model, it *measures* — it explores a few
/// random groupings for one quantum each, scores each configuration by the
/// aggregate IPC it delivered, then exploits the best one for a longer
/// window before re-sampling.  The paper's argument against this family is
/// the sampling overhead: every explored configuration costs a quantum of
/// potentially bad grouping, and the sample budget explodes with core count
/// (and even faster with SMT width).
class SamplingPolicy final : public AllocationPolicy {
public:
    struct Options {
        int explore_quanta = 6;   ///< sampled configurations per cycle
        int exploit_quanta = 40;  ///< quanta to run the winner before resampling

        /// Throws std::invalid_argument naming the first field below 1;
        /// returns *this for constructor initializer lists.
        const Options& validate() const;
    };

    /// Throws std::invalid_argument when `opts` does not validate().
    SamplingPolicy(std::uint64_t seed, Options opts)
        : rng_(seed, 0x5a31), opts_(opts.validate()) {}
    explicit SamplingPolicy(std::uint64_t seed) : SamplingPolicy(seed, Options()) {}

    std::string name() const override { return "sampling"; }
    CoreAllocation reallocate(std::span<const TaskObservation> observations) override;
    void on_task_replaced(int old_task_id, int new_task_id) override;

private:
    /// Grouping canonicalized to slot indices so it survives relaunches.
    using SlotGrouping = std::vector<std::vector<int>>;
    SlotGrouping random_grouping(std::size_t n, std::size_t width, std::size_t cores);

    common::Rng rng_;
    Options opts_;
    int phase_left_ = 0;          ///< quanta remaining in the current phase
    bool exploring_ = true;
    std::size_t sampled_n_ = 0;   ///< live-set size the groupings were sampled for
    SlotGrouping current_;        ///< configuration running this quantum
    SlotGrouping best_;
    double best_score_ = -1.0;
    int samples_taken_ = 0;
};

/// Spells pair entries as CoreGroups ({a}, {a, b}; kNoTask members are
/// skipped) — the bridge pair-based solvers use to reach place_groups now
/// that the deprecated pair-allocation converters are gone.
std::vector<CoreGroup> groups_from_pairs(const std::vector<std::pair<int, int>>& pairs);

/// Places chosen groups onto an explicit number of cores: each entry keeps
/// an incumbent core of one of its members when that core is free, the rest
/// fill the remaining cores in order, and left-over cores idle (empty
/// groups).  Throws when entries outnumber cores.
CoreAllocation place_groups(const std::vector<CoreGroup>& entries,
                            std::span<const TaskObservation> observations,
                            std::size_t cores);

/// place_groups with each task's incumbent core given directly (an absent
/// or negative core means none) — the form solve_platform uses for one
/// chip's tasks in chip-local core ids.
CoreAllocation place_groups(const std::vector<CoreGroup>& entries,
                            const common::SmallIdMap<int>& incumbent_core, std::size_t cores);

}  // namespace synpa::sched
