#include "online/incremental_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/matrix.hpp"

namespace synpa::online {
namespace {

constexpr std::size_t kCols = model::kDesignColumns;

std::array<double, kCols> coefficients_of(const model::CategoryCoefficients& k) {
    return {k.alpha, k.beta, k.gamma, k.rho};
}

}  // namespace

const IncrementalTrainer::Options& IncrementalTrainer::Options::validate() const {
    if (!std::isfinite(prior_strength) || prior_strength < 0.0)
        throw std::invalid_argument(
            "IncrementalTrainer::Options::prior_strength must be finite and >= 0, got " +
            std::to_string(prior_strength));
    return *this;
}

IncrementalTrainer::IncrementalTrainer(model::InterferenceModel prior, Options opts)
    : prior_(std::move(prior)), opts_(opts.validate()) {}

void IncrementalTrainer::add_sample(const model::TrainingSample& sample) {
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        const auto row = model::design_row(sample, c);
        Normal& n = normal_[c];
        for (std::size_t i = 0; i < kCols; ++i) {
            for (std::size_t j = 0; j < kCols; ++j) n.gram[i * kCols + j] += row[i] * row[j];
            n.moment[i] += sample.smt_per_st[c] * row[i];
        }
    }
    weight_ += 1.0;
    ++count_;
}

void IncrementalTrainer::decay(double lambda) {
    lambda = std::clamp(lambda, 0.0, 1.0);
    for (Normal& n : normal_) {
        for (double& g : n.gram) g *= lambda;
        for (double& m : n.moment) m *= lambda;
    }
    weight_ *= lambda;
}

model::InterferenceModel IncrementalTrainer::solve(
    const std::array<Normal, model::kCategoryCount>& normal,
    const model::InterferenceModel& prior, double prior_strength) {
    model::InterferenceModel out;
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        auto gram = normal[c].gram;
        auto moment = normal[c].moment;
        if (prior_strength > 0.0) {
            const auto anchor =
                coefficients_of(prior.coefficients(static_cast<model::Category>(c)));
            for (std::size_t i = 0; i < kCols; ++i) {
                gram[i * kCols + i] += prior_strength;
                moment[i] += prior_strength * anchor[i];
            }
        }
        std::array<double, kCols> theta{};
        if (!linalg::solve_gaussian_fixed<kCols>(gram, moment, theta))
            throw std::runtime_error("IncrementalTrainer: singular normal equations");
        out.coefficients(static_cast<model::Category>(c)) = {
            .alpha = theta[0], .beta = theta[1], .gamma = theta[2], .rho = theta[3]};
    }
    return out;
}

model::InterferenceModel IncrementalTrainer::fit() const {
    return solve(normal_, prior_, opts_.prior_strength);
}

model::InterferenceModel IncrementalTrainer::fit_offline(
    std::span<const model::TrainingSample> samples, const model::InterferenceModel& prior,
    Options opts) {
    opts.validate();
    // Materialize the full design matrix per category (exactly the offline
    // Trainer's shape) and contract it to normal equations sample-major, so
    // every addition happens in the same order as sequential add_sample
    // rank-one updates — the bit-exactness the equivalence test pins.
    std::array<Normal, model::kCategoryCount> normal{};
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        std::vector<std::array<double, kCols>> design;
        std::vector<double> target;
        design.reserve(samples.size());
        target.reserve(samples.size());
        for (const model::TrainingSample& s : samples) {
            design.push_back(model::design_row(s, c));
            target.push_back(s.smt_per_st[c]);
        }
        Normal& n = normal[c];
        for (std::size_t r = 0; r < design.size(); ++r)
            for (std::size_t i = 0; i < kCols; ++i) {
                for (std::size_t j = 0; j < kCols; ++j)
                    n.gram[i * kCols + j] += design[r][i] * design[r][j];
                n.moment[i] += target[r] * design[r][i];
            }
    }
    return solve(normal, prior, opts.prior_strength);
}

}  // namespace synpa::online
