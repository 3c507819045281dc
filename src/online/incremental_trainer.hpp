// Incremental (recursive least-squares) refitting of the interference model.
//
// The offline Trainer (model/trainer.hpp) solves Equation 1 per category by
// QR over a design matrix of model::design_row rows.  Online, samples
// arrive one quantum at a time, so this class keeps the per-category
// *sufficient statistics* of exactly that regression — the Gram matrix
// G = A^T A and moment vector c = A^T b — and folds each new sample in as a
// rank-one update: G += r r^T, c += t r.  A refit then solves the 4x4
// normal equations, optionally ridge-anchored to a prior model:
//
//   (G + lambda I) theta = c + lambda theta_prior
//
// so with no samples the fit *is* the prior (the offline coefficients) and
// every online observation pulls it toward the live workload.  decay()
// scales G and c by a forgetting factor, aging out evidence from phases
// that ended.
//
// fit_offline() is the batch reference: it materializes the full design
// matrix exactly like the offline Trainer and forms the same normal
// equations with the sample-major accumulation order, so "full offline
// retrain" and "incremental updates" are bit-identical on shared data —
// pinned by tests/test_online.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "model/interference_model.hpp"
#include "model/trainer.hpp"

namespace synpa::online {

class IncrementalTrainer {
public:
    struct Options {
        /// Ridge weight anchoring the fit to the prior model's
        /// coefficients.  0 is a pure least-squares fit on the online
        /// samples (throws until they determine the regression); larger
        /// values make early refits conservative.
        double prior_strength = 0.0;

        /// Throws std::invalid_argument naming
        /// `IncrementalTrainer::Options::prior_strength` unless it is
        /// finite and >= 0; returns *this.
        const Options& validate() const;
    };

    IncrementalTrainer() : IncrementalTrainer(model::InterferenceModel{}, Options{}) {}
    /// Throws std::invalid_argument when opts.validate() does.
    IncrementalTrainer(model::InterferenceModel prior, Options opts);

    /// Rank-one update with one aligned observation.
    void add_sample(const model::TrainingSample& sample);

    /// Exponential forgetting: scales every sufficient statistic by
    /// `lambda` in [0, 1], so older evidence fades relative to what is
    /// added afterwards.  The prior anchor is unaffected.
    void decay(double lambda);

    /// Samples folded in since construction (not reduced by decay()).
    std::size_t sample_count() const noexcept { return count_; }

    /// Effective (decayed) sample weight currently in the statistics.
    double effective_weight() const noexcept { return weight_; }

    /// Solves the per-category normal equations.  Throws
    /// std::runtime_error when the system is singular (not enough
    /// independent samples and no prior anchor).
    model::InterferenceModel fit() const;

    const model::InterferenceModel& prior() const noexcept { return prior_; }

    /// Batch reference: builds the full design matrix (offline-Trainer
    /// style) and solves the same anchored normal equations.  Accumulation
    /// order matches sequential add_sample calls, so the result is
    /// bit-identical to the incremental path on the same samples.
    /// Throws std::invalid_argument when opts.validate() does.
    static model::InterferenceModel fit_offline(
        std::span<const model::TrainingSample> samples,
        const model::InterferenceModel& prior, Options opts);

private:
    /// Sufficient statistics of one category's regression.
    struct Normal {
        std::array<double, model::kDesignColumns * model::kDesignColumns> gram{};
        std::array<double, model::kDesignColumns> moment{};
    };

    static model::InterferenceModel solve(
        const std::array<Normal, model::kCategoryCount>& normal,
        const model::InterferenceModel& prior, double prior_strength);

    model::InterferenceModel prior_;
    Options opts_;
    std::array<Normal, model::kCategoryCount> normal_{};
    double weight_ = 0.0;
    std::size_t count_ = 0;
};

}  // namespace synpa::online
