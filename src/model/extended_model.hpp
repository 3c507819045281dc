// Extended fine-grained category model — the ablation of paper §VI-A.
//
// The authors first built a ~ten-category model that split the backend
// stalls by cause (ROB full, IQ full, ...) and found it *worse*: each extra
// category adds its own regression error, and the errors compound when the
// predictions are summed into a slowdown.  We reproduce that experiment
// with the eight categories our PMU can attribute:
//
//   0 full-dispatch cycles          4 backend: LLC-hit episodes
//   1 frontend: branch redirects    5 backend: DRAM episodes
//   2 frontend: ICache misses       6 backend: dispatch-slot contention
//   3 backend: L2-hit episodes      7 backend: revealed horizontal waste
//
// Frontend attribution splits STALL_FRONTEND in proportion to
// penalty-weighted event counts, and backend episode attribution uses the
// refill counters — exactly the kind of noisy secondary attribution the
// paper calls out.  Pair runs, cut isolated profiles, alignment and the
// Equation-1 form per category are the three-category pipeline's own
// (collect_training_set).  The fit is not: it ridge-regularizes every
// category and fits on every aligned sample, where Trainer::fit uses plain
// least squares (ridge only as a fallback) on a sample_fraction subset.
// bench_ablation_categories therefore compares fits over different sample
// sets.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "model/interference_model.hpp"
#include "model/trainer.hpp"
#include "pmu/counters.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::model {

inline constexpr std::size_t kExtendedCategoryCount = 8;
using ExtendedVector = std::array<double, kExtendedCategoryCount>;

extern const std::array<const char*, kExtendedCategoryCount> kExtendedCategoryNames;

/// Splits a counter delta into the eight extended categories (cycle counts
/// summing to the window's cycles).
ExtendedVector characterize_extended(const pmu::CounterBank& delta,
                                     const uarch::SimConfig& cfg);

using ExtendedSample = BasicTrainingSample<kExtendedCategoryCount>;

/// Eight independent Equation-1 regressions; slowdown = sum of predictions.
class ExtendedModel {
public:
    const CategoryCoefficients& coefficients(std::size_t c) const { return coeffs_.at(c); }
    CategoryCoefficients& coefficients(std::size_t c) { return coeffs_.at(c); }

    ExtendedVector predict(const ExtendedVector& st_i, const ExtendedVector& st_j) const;
    double predict_slowdown(const ExtendedVector& st_i, const ExtendedVector& st_j) const;

private:
    std::array<CategoryCoefficients, kExtendedCategoryCount> coeffs_{};
};

struct ExtendedTrainingResult {
    ExtendedModel model;
    std::array<double, kExtendedCategoryCount> mse{};
    std::size_t sample_count = 0;
};

/// Trainer's pipeline under the extended characterization, then a ridge
/// fit per category over every aligned sample.
class ExtendedTrainer {
public:
    ExtendedTrainer(const uarch::SimConfig& cfg, TrainerOptions opts)
        : cfg_(cfg), opts_(opts) {}

    /// Throws like Trainer::train on bad options, and std::runtime_error
    /// when fewer than 16 samples align.
    ExtendedTrainingResult train(std::span<const std::string> app_names) const;

private:
    uarch::SimConfig cfg_;
    TrainerOptions opts_;
};

}  // namespace synpa::model
