#include "online/incremental_trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace synpa::online {
namespace {

constexpr std::size_t kCols = model::kDesignColumns;

/// Solves the 4x4 system M x = b by Gaussian elimination with partial
/// pivoting.  Throws on a (numerically) singular matrix.
std::array<double, kCols> solve4(std::array<double, kCols * kCols> m,
                                 std::array<double, kCols> b) {
    for (std::size_t col = 0; col < kCols; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < kCols; ++r)
            if (std::abs(m[r * kCols + col]) > std::abs(m[pivot * kCols + col])) pivot = r;
        if (std::abs(m[pivot * kCols + col]) < 1e-12)
            throw std::runtime_error("IncrementalTrainer: singular normal equations");
        if (pivot != col) {
            for (std::size_t k = 0; k < kCols; ++k)
                std::swap(m[col * kCols + k], m[pivot * kCols + k]);
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t r = col + 1; r < kCols; ++r) {
            const double f = m[r * kCols + col] / m[col * kCols + col];
            if (f == 0.0) continue;
            for (std::size_t k = col; k < kCols; ++k) m[r * kCols + k] -= f * m[col * kCols + k];
            b[r] -= f * b[col];
        }
    }
    std::array<double, kCols> x{};
    for (std::size_t ri = kCols; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t k = ri + 1; k < kCols; ++k) acc -= m[ri * kCols + k] * x[k];
        x[ri] = acc / m[ri * kCols + ri];
    }
    return x;
}

std::array<double, kCols> coefficients_of(const model::CategoryCoefficients& k) {
    return {k.alpha, k.beta, k.gamma, k.rho};
}

}  // namespace

IncrementalTrainer::IncrementalTrainer(model::InterferenceModel prior, Options opts)
    : prior_(std::move(prior)), opts_(opts) {
    if (opts_.prior_strength < 0.0)
        throw std::invalid_argument("IncrementalTrainer: negative prior_strength");
}

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
        const auto theta = solve4(gram, moment);
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
