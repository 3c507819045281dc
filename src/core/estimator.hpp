// SYNPA's runtime estimation engine (paper §IV-B, Steps 1-2).
//
// Each quantum the estimator receives every task's SMT category fractions
// together with who it shared a core with.  Per co-running pair it inverts
// the interference model to recover isolated-execution estimates, smooths
// them with an EMA (phases last several quanta, and smoothing rejects
// single-quantum noise), and can then predict the slowdown of *any*
// candidate pair with the forward model — two evaluations of Equation 1
// per pair, six coefficient multiplications total, which is the 40%
// overhead reduction vs. the five-equation IBM-style model the paper
// quantifies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "common/flat_map.hpp"
#include "model/interference_model.hpp"
#include "model/inversion.hpp"
#include "sched/policy.hpp"

namespace synpa::core {

class SynpaEstimator {
public:
    struct Options {
        double ema_alpha = 0.5;  ///< weight of the newest inversion result
        /// Ignored: the EMA has no deadband filter.  The field survives
        /// only because the end-to-end benchmark assigns it (0.0), and goes
        /// with the benchmark change that retires the core.weight_cache.*
        /// rows.
        double ema_deadband = 0.0;
        model::ModelInverter::Options inversion{};

        /// Throws std::invalid_argument naming the field unless ema_alpha
        /// is in (0, 1] and `inversion` passes its own validate(); returns
        /// *this for constructor initializer lists.
        const Options& validate() const;
    };

    /// The model is copied: the estimator owns its coefficients.
    explicit SynpaEstimator(model::InterferenceModel model)
        : SynpaEstimator(std::move(model), Options()) {}
    SynpaEstimator(model::InterferenceModel model, Options opts);

    /// Digests one quantum of observations: inverts the model for every
    /// co-running pair and updates the per-task isolated estimates.
    void observe(std::span<const sched::TaskObservation> observations);

    /// Current isolated-fraction estimate for a task; tasks never observed
    /// yet return a uniform prior.
    model::CategoryVector estimate(int task_id) const;

    bool has_estimate(int task_id) const { return estimates_.contains(task_id); }

    /// Predicted combined badness of co-scheduling the whole group on one
    /// SMT core: for each member, the forward model is evaluated against
    /// the superposed category pressure of every other member.  Because
    /// Equation 1 is affine in the co-runner vector, this equals the sum of
    /// the symmetrized pairwise terms minus (k - 2) solo terms:
    ///   sum_i s(i | sum_j e_j) = sum_{i != j} s(i|j) - (k-2) * sum_i s(i|0),
    /// the follow-up paper's pairwise-built group predictor.  A 2-group is
    /// exactly the slowdown of each member next to the other, summed (in
    /// either member order), and a 1-group the "runs alone" term: the
    /// forward model against an all-zero co-runner, which the partial
    /// allocator weighs against pair slowdowns.  It is
    /// model::predict_group_slowdown over the members' estimates.  Throws
    /// std::length_error for more than uarch::kMaxSmtWays ids.
    double group_weight(std::span<const int> task_ids) const;

    /// The per-member addends of group_weight: each member's predicted
    /// slowdown against the superposed pressure of the rest of the group (a
    /// singleton gets its solo term), written into `out` (out.size() must
    /// equal task_ids.size()).  The objective-parameterized policies (STP,
    /// fairness, tail) fold these nonlinearly instead of summing them.
    /// Throws like group_weight.
    void member_slowdowns(std::span<const int> task_ids, std::span<double> out) const;

    /// Transfers the estimate across a relaunch (same application, so the
    /// behaviour estimate remains the best prior available).
    void transfer(int old_task_id, int new_task_id);

    /// Drops a retired task's estimate (open-system departures).
    void forget(int task_id);

    const model::InterferenceModel& model() const noexcept { return model_; }

    /// Swaps the interference model while keeping every per-task estimate —
    /// the online incremental-retraining hook.  The next observe() inverts
    /// against the new coefficients.
    void set_model(model::InterferenceModel model) {
        model_ = std::move(model);
        inverter_ = model::ModelInverter(model_, opts_.inversion);
    }

    /// Cumulative Step-1 work since construction: model inversions run,
    /// how many of them fell back to the raw SMT fractions, and the sum of
    /// their InversionResult::iterations.
    struct InversionStats {
        std::uint64_t inversions = 0;
        std::uint64_t fallbacks = 0;
        std::uint64_t iterations = 0;
    };
    const InversionStats& inversion_stats() const noexcept { return inversion_stats_; }

private:
    /// EMA-blends `fresh` into the task's stored estimate (first
    /// observation: stores it).
    void ema_update(int id, const model::CategoryVector& fresh);

    /// inverter_.invert, counted in inversion_stats_.
    model::InversionResult invert(const model::CategoryVector& smt_i,
                                  const model::CategoryVector& smt_j);

    model::InterferenceModel model_;
    Options opts_;
    model::ModelInverter inverter_;  ///< over model_ with opts_.inversion
    InversionStats inversion_stats_;
    common::FlatIdMap<model::CategoryVector> estimates_;
};

}  // namespace synpa::core
