// The SYNPA allocation policy (paper §IV-B, Figure 3).
//
// Per quantum:
//   Step 1 — estimate isolated category values by inverting the
//            interference model on the observed SMT fractions,
//   Step 2 — predict the slowdown of every candidate pair with the forward
//            model (Equation 1 applied in both directions),
//   Step 3 — pick the minimum-total-slowdown perfect matching (Blossom, as
//            in the paper; a greedy selector is available for the
//            ablation benches) and allocate pairs to
//            cores, preferring placements that avoid migrations.
//
// SMT width is a runtime property: at smt_ways == 2 Step 3 runs the paper's
// pair solvers unchanged, while wider chips (SMT-4) switch to the k-way
// grouping of the follow-up work — group costs built from the estimator's
// symmetrized pairwise terms, solved by matching::min_weight_grouping.  The
// whole Step 3 flow is sched::solve_chip, shared with the oracle policy;
// this class supplies only the costs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/estimator.hpp"
#include "core/weight_cache.hpp"
#include "matching/matching.hpp"
#include "model/interference_model.hpp"
#include "sched/baselines.hpp"
#include "sched/policy.hpp"
#include "sched/topology.hpp"

namespace synpa::core {

/// Pair-selection strategy for Step 3.
enum class PairSelector {
    kBlossom,   ///< Edmonds' Blossom algorithm (the paper's choice)
    kGreedy,    ///< best-first greedy (ablation: cheaper, possibly worse)
};

/// Allocation objective (the follow-up "New Family of Thread to Core
/// Allocation Policies" direction): how a candidate group's per-member
/// predicted slowdowns fold into the cost Step 3 minimizes.  Every variant
/// shares the SYNPA estimator — they differ only in this folding.
enum class Objective {
    kTotalSlowdown,  ///< the paper's SYNPA: minimize the summed slowdowns
    kThroughput,     ///< STP: minimize summed throughput loss (1 - 1/s)
    kFairness,       ///< minimize the worst member (soft-max: sum of s^4)
    kTail,           ///< turnaround tail: sum of s^2 (penalize stragglers)
};

/// Short name used in policy labels ("total", "stp", "fair", "tail").
const char* objective_name(Objective objective) noexcept;

/// Folds per-member predicted slowdowns into one group cost under the given
/// objective.  kTotalSlowdown is the plain sum (identical to the
/// estimator's group_weight); the others are monotone but nonlinear, so
/// they trade total progress against the worst-off members differently.
double objective_cost(Objective objective, std::span<const double> member_slowdowns) noexcept;

class SynpaPolicy final : public sched::AllocationPolicy {
public:
    struct Options {
        PairSelector selector = PairSelector::kBlossom;
        /// What Step 3 optimizes.  kTotalSlowdown reproduces the paper's
        /// SYNPA exactly (bit-identical goldens); the other objectives are
        /// the family-paper variants sharing the same estimator.
        Objective objective = Objective::kTotalSlowdown;
        SynpaEstimator::Options estimator{};
        /// Hysteresis (see matching::min_weight_pairs): prediction noise
        /// creates near-tie matchings, and oscillating between them costs
        /// real migrations.  Set both to 0 for the paper's plain
        /// re-solve-every-quantum behaviour (bench_ablation_policy).
        double stability_bias = matching::kDefaultStabilityBias;
        double keep_threshold = matching::kDefaultKeepThreshold;
        /// Multi-chip platforms only: the predicted-slowdown benefit a
        /// cross-chip move must exceed before the balancing pass migrates a
        /// task (sched/topology.hpp) — the policy-side counterpart of the
        /// platform's cross-chip warmup window.
        double cross_chip_penalty = sched::kDefaultCrossChipPenalty;
        /// Ignored: the cross-quantum weight cache it switched is gone.
        /// The field survives only because the end-to-end benchmark
        /// assigns it, and goes with the benchmark change that retires the
        /// core.weight_cache.* rows.
        bool weight_cache = true;
    };

    explicit SynpaPolicy(model::InterferenceModel model)
        : SynpaPolicy(std::move(model), Options()) {}
    SynpaPolicy(model::InterferenceModel model, Options opts);

    std::string name() const override;
    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override;
    void on_task_replaced(int old_task_id, int new_task_id) override;
    void on_task_finished(int task_id) override;
    void set_tracer(obs::Tracer* tracer) override;

    const SynpaEstimator& estimator() const noexcept { return estimator_; }

    /// Swaps the interference model mid-run while keeping every per-task
    /// estimate — the hook online::AdaptiveSynpaPolicy uses to fold
    /// incremental retraining results back in.
    void set_model(model::InterferenceModel model);

    /// Drops one task's isolated estimate so the next quantum re-seeds it
    /// from a fresh inversion (phase-change reaction).
    void reset_estimate(int task_id);

    /// Cumulative Step-2 cost evaluations (solo, pair and group costs
    /// priced for Step 3 and for allocation trace events).
    std::uint64_t cost_evaluations() const noexcept { return cost_evaluations_; }

    /// cost_evaluations() in the retired weight cache's shape: `misses`
    /// is the evaluation count, `hits` and `solve_reuse` are 0.
    WeightCache::Stats weight_cache_stats() const noexcept {
        return {.misses = cost_evaluations_};
    }

    /// The Matcher implementing the configured selector.
    const matching::Matcher& matcher() const;

private:
    /// Steps 2+3 on one chip's (possibly chip-localized) observations
    /// (sched::solve_chip over chip_costs); the estimator was already
    /// refreshed for the quantum.
    sched::CoreAllocation allocate_chip(
        std::span<const sched::TaskObservation> observations) const;

    /// The objective-folded costs below, indexed by position in
    /// `observations`, which must outlive the returned oracles.
    sched::ChipCosts chip_costs(std::span<const sched::TaskObservation> observations) const;

    /// Emits a kAllocation event for the decided grouping (group membership
    /// and the predicted per-group costs).  The extra estimator passes run
    /// only when the tracer wants allocation events.
    void trace_allocation(const sched::CoreAllocation& alloc) const;

    /// Objective-folded candidate costs, each counted in
    /// cost_evaluations().  Under kTotalSlowdown these are exactly the
    /// estimator's pair/solo/group weights (the bit-exact golden path);
    /// other objectives fold the per-member slowdowns.
    double pair_cost(int task_u, int task_v) const;
    double solo_cost(int task_id) const;
    double group_cost(std::span<const int> task_ids) const;

    model::InterferenceModel model_;
    Options opts_;
    SynpaEstimator estimator_;
    matching::BlossomMatcher blossom_;
    obs::Tracer* tracer_ = nullptr;  ///< flight recorder (not owned)
    mutable std::vector<double> slowdown_scratch_;  ///< member_slowdowns reuse
    mutable std::uint64_t cost_evaluations_ = 0;
};

}  // namespace synpa::core
