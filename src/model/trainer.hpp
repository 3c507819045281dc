// Offline model training (paper §IV-C).
//
// 1. Run every pair of training applications together on one SMT core and
//    record, per quantum after the warmup, the instruction interval each
//    task executed and its SMT category cycles.
// 2. Run each training application alone on a chip and record, per quantum,
//    its cumulative instructions, cycles, and category values: the
//    *isolated profile*.  A profile stops after the first quantum that
//    reaches the furthest instruction the application's pair quanta
//    retired; `isolated_quanta` caps its length.
// 3. Align: each pair quantum's instruction interval maps back into the
//    isolated profile ("the number of committed instructions allows us to
//    map the category values"), yielding:
//      * the isolated category fractions for exactly that work, and
//      * the SMT category cycle counts normalized by the isolated cycles of
//        that work (so the values sum to the observed slowdown).
// 4. Fit Equation 1 per category with linear least squares on a random
//    subset of the aligned quanta.
//
// Steps 1-3 (collect_training_set) are written once over the
// characterization; Trainer runs them on the paper's three categories and
// ExtendedTrainer on the eight of the §VI-A ablation.
//
// Training needs no oracle knowledge: it only reads the PMU, exactly like
// the paper's profiling campaign on the ThunderX2.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apps/profile.hpp"
#include "model/categories.hpp"
#include "model/interference_model.hpp"
#include "pmu/counters.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::model {

/// A characterization: splits one window's counter delta into N category
/// cycle counts summing to the window's cycles.  The training pipeline is
/// written once over it and instantiated for the paper's three categories
/// and for the eight of the §VI-A ablation (extended_model.hpp).
template <std::size_t N>
using Characterization = std::array<double, N> (*)(const pmu::CounterBank& delta,
                                                   const uarch::SimConfig& cfg);

/// Per-quantum record of an isolated run, with interpolating accessors used
/// to align SMT instruction intervals against isolated time.
template <std::size_t N>
class BasicIsolatedProfile {
public:
    struct Quantum {
        std::uint64_t insts_end = 0;   ///< cumulative instructions
        std::uint64_t cycles_end = 0;  ///< cumulative cycles
        std::array<double, N> categories{};  ///< this quantum's cycles
    };

    BasicIsolatedProfile() = default;
    BasicIsolatedProfile(std::string app_name, std::vector<Quantum> quanta);

    const std::string& app_name() const noexcept { return app_name_; }
    const std::vector<Quantum>& quanta() const noexcept { return quanta_; }
    std::uint64_t total_instructions() const noexcept;
    std::uint64_t total_cycles() const noexcept;
    double ipc() const noexcept;

    /// Aggregate isolated category fractions over the whole profile.
    std::array<double, N> overall_fractions() const noexcept;

    /// True when [begin, end) instructions are covered by the profile.
    bool covers(std::uint64_t begin, std::uint64_t end) const noexcept;

    /// Isolated cycles needed for the instruction interval (interpolated).
    double cycles_for(std::uint64_t begin, std::uint64_t end) const;

    /// Isolated category cycle counts for the interval (interpolated).
    std::array<double, N> categories_for(std::uint64_t begin, std::uint64_t end) const;

private:
    double cumulative_cycles_at(std::uint64_t insts) const;
    std::array<double, N> cumulative_categories_at(std::uint64_t insts) const;

    std::string app_name_;
    std::vector<Quantum> quanta_;
};

using IsolatedProfile = BasicIsolatedProfile<kCategoryCount>;

/// Runs `app` alone on a chip built from `cfg` for `quanta` quanta, or
/// stops after the first quantum whose cumulative retired instructions
/// reach `until_insts`; each quantum is split by `characterization`.
template <std::size_t N>
BasicIsolatedProfile<N> profile_isolated(const apps::AppProfile& app, const uarch::SimConfig& cfg,
                                         std::uint64_t quanta, std::uint64_t seed,
                                         Characterization<N> characterization,
                                         std::uint64_t until_insts = UINT64_MAX);

/// The isolated profile under the paper's three categories.
IsolatedProfile profile_isolated(const apps::AppProfile& app, const uarch::SimConfig& cfg,
                                 std::uint64_t quanta, std::uint64_t seed,
                                 std::uint64_t until_insts = UINT64_MAX);

/// One aligned observation: everything Equation 1 relates.
template <std::size_t N>
struct BasicTrainingSample {
    std::array<double, N> st_self{};      ///< isolated fractions of the target's work
    std::array<double, N> st_corunner{};  ///< isolated fractions of the co-runner's work
    std::array<double, N> smt_per_st{};   ///< SMT categories per isolated cycle (sum = slowdown)
};

using TrainingSample = BasicTrainingSample<kCategoryCount>;

/// Columns of the Equation-1 regression: intercept, C_self, C_corunner,
/// and the interaction term.
inline constexpr std::size_t kDesignColumns = 4;

/// The design-matrix row of one sample for one category:
/// {1, C_self, C_corunner, C_self * C_corunner}.  Single definition shared
/// by the offline Trainer's batch fit, the extended ablation fit and
/// online::IncrementalTrainer's rank-one updates, so the paths factor the
/// *same* regression and the incremental-vs-offline equivalence can be
/// pinned bit-exactly.
template <std::size_t N>
std::array<double, kDesignColumns> design_row(const BasicTrainingSample<N>& sample,
                                              std::size_t category) noexcept {
    return {1.0, sample.st_self[category], sample.st_corunner[category],
            sample.st_self[category] * sample.st_corunner[category]};
}

struct TrainerOptions {
    std::uint64_t isolated_quanta = 160;  ///< cap on each isolated profile's length
    std::uint64_t pair_quanta = 48;       ///< length of each SMT pair run
    std::uint64_t warmup_quanta = 2;      ///< leading quanta dropped from pair runs
    double sample_fraction = 0.8;         ///< random subset used for the fit
    std::uint64_t seed = 1;
    std::size_t threads = 0;              ///< worker threads (0 = hardware; <= 256)
    bool include_self_pairs = true;       ///< also train on (A, A) pairs
};

struct TrainingResult {
    InterferenceModel model;
    std::array<double, kCategoryCount> mse{};        ///< per-category fit MSE
    std::array<double, kCategoryCount> r_squared{};  ///< per-category fit R^2
    std::size_t sample_count = 0;
    std::size_t pair_runs = 0;
};

/// Steps 1-3 over a training set: the aligned samples in pair order, and
/// how many pair runs produced them.
template <std::size_t N>
struct TrainingSet {
    std::vector<BasicTrainingSample<N>> samples;
    std::size_t pair_runs = 0;
};

/// Runs steps 1-3 for the named applications under `characterization`:
/// every pair in SMT, then each application alone until its pair quanta are
/// covered, then alignment in pair order.  The result is a pure function
/// of its arguments at any `opts.threads`.  Throws std::invalid_argument
/// naming the field when isolated_quanta is 0, pair_quanta does not exceed
/// warmup_quanta, sample_fraction is outside (0, 1], or threads is above
/// common::kMaxThreads.
template <std::size_t N>
TrainingSet<N> collect_training_set(const uarch::SimConfig& cfg, const TrainerOptions& opts,
                                    std::span<const std::string> app_names,
                                    Characterization<N> characterization);

class Trainer {
public:
    Trainer(const uarch::SimConfig& cfg, TrainerOptions opts = {})
        : cfg_(cfg), opts_(opts) {}

    /// Collects aligned samples for one SMT pair run of (a, b); two samples
    /// per usable quantum (each task as target once).  The seeds must match
    /// the ones used to record the isolated profiles so the instruction
    /// alignment maps onto identical phase sequences.  Exposed for tests
    /// and for the ablation benches that refit variant models.
    std::vector<TrainingSample> collect_pair_samples(const apps::AppProfile& a,
                                                     const apps::AppProfile& b,
                                                     const IsolatedProfile& prof_a,
                                                     const IsolatedProfile& prof_b,
                                                     std::uint64_t seed_a,
                                                     std::uint64_t seed_b) const;

    /// collect_training_set() under the three categories, with its option
    /// checks, then fit().
    TrainingResult train(std::span<const std::string> app_names) const;

    /// Fits Equation 1 to already-collected samples (used by ablations).
    static TrainingResult fit(std::vector<TrainingSample> samples,
                              const TrainerOptions& opts);

private:
    uarch::SimConfig cfg_;
    TrainerOptions opts_;
};

}  // namespace synpa::model
