// Offline model training (paper §IV-C).
//
// 1. Run every pair of training applications together on one SMT core and
//    record, per quantum after the warmup, the instruction interval each
//    task executed and its SMT category cycles.
// 2. Run each training application alone on a chip and record, per quantum,
//    its cumulative instructions, cycles, and the three category values:
//    the *isolated profile*.  A profile stops after the first quantum that
//    reaches the furthest instruction the application's pair quanta
//    retired; `isolated_quanta` caps its length.
// 3. Align: each pair quantum's instruction interval maps back into the
//    isolated profile ("the number of committed instructions allows us to
//    map the category values"), yielding:
//      * the isolated category fractions for exactly that work, and
//      * the SMT category cycle counts normalized by the isolated cycles of
//        that work (so the three values sum to the observed slowdown).
// 4. Fit Equation 1 per category with linear least squares on a random
//    subset of the aligned quanta.
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
#include "uarch/sim_config.hpp"

namespace synpa::model {

/// Per-quantum record of an isolated run, with interpolating accessors used
/// to align SMT instruction intervals against isolated time.
class IsolatedProfile {
public:
    struct Quantum {
        std::uint64_t insts_end = 0;   ///< cumulative instructions
        std::uint64_t cycles_end = 0;  ///< cumulative cycles
        std::array<double, kCategoryCount> categories{};  ///< this quantum's cycles
    };

    IsolatedProfile() = default;
    IsolatedProfile(std::string app_name, std::vector<Quantum> quanta);

    const std::string& app_name() const noexcept { return app_name_; }
    const std::vector<Quantum>& quanta() const noexcept { return quanta_; }
    std::uint64_t total_instructions() const noexcept;
    std::uint64_t total_cycles() const noexcept;
    double ipc() const noexcept;

    /// Aggregate isolated category fractions over the whole profile.
    std::array<double, kCategoryCount> overall_fractions() const noexcept;

    /// True when [begin, end) instructions are covered by the profile.
    bool covers(std::uint64_t begin, std::uint64_t end) const noexcept;

    /// Isolated cycles needed for the instruction interval (interpolated).
    double cycles_for(std::uint64_t begin, std::uint64_t end) const;

    /// Isolated category cycle counts for the interval (interpolated).
    std::array<double, kCategoryCount> categories_for(std::uint64_t begin,
                                                      std::uint64_t end) const;

private:
    double cumulative_cycles_at(std::uint64_t insts) const;
    std::array<double, kCategoryCount> cumulative_categories_at(std::uint64_t insts) const;

    std::string app_name_;
    std::vector<Quantum> quanta_;
};

/// Runs `app` alone on a chip built from `cfg` for `quanta` quanta, or
/// stops after the first quantum whose cumulative retired instructions
/// reach `until_insts`.
IsolatedProfile profile_isolated(const apps::AppProfile& app, const uarch::SimConfig& cfg,
                                 std::uint64_t quanta, std::uint64_t seed,
                                 std::uint64_t until_insts = UINT64_MAX);

/// One aligned observation: everything Equation 1 relates.
struct TrainingSample {
    CategoryVector st_self{};      ///< isolated fractions of the target's work
    CategoryVector st_corunner{};  ///< isolated fractions of the co-runner's work
    CategoryVector smt_per_st{};   ///< SMT categories per isolated cycle (sum = slowdown)
};

/// Columns of the Equation-1 regression: intercept, C_self, C_corunner,
/// and the interaction term.
inline constexpr std::size_t kDesignColumns = 4;

/// The design-matrix row of one sample for one category:
/// {1, C_self, C_corunner, C_self * C_corunner}.  Single definition shared
/// by the offline Trainer's batch fit and online::IncrementalTrainer's
/// rank-one updates, so the two paths factor the *same* regression and the
/// incremental-vs-offline equivalence can be pinned bit-exactly.
std::array<double, kDesignColumns> design_row(const TrainingSample& sample,
                                              std::size_t category) noexcept;

struct TrainerOptions {
    std::uint64_t isolated_quanta = 160;  ///< cap on each isolated profile's length
    std::uint64_t pair_quanta = 48;       ///< length of each SMT pair run
    std::uint64_t warmup_quanta = 2;      ///< leading quanta dropped from pair runs
    double sample_fraction = 0.8;         ///< random subset used for the fit
    std::uint64_t seed = 1;
    std::size_t threads = 0;              ///< worker threads (0 = hardware)
    bool include_self_pairs = true;       ///< also train on (A, A) pairs
};

struct TrainingResult {
    InterferenceModel model;
    std::array<double, kCategoryCount> mse{};        ///< per-category fit MSE
    std::array<double, kCategoryCount> r_squared{};  ///< per-category fit R^2
    std::size_t sample_count = 0;
    std::size_t pair_runs = 0;
};

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

    /// Full pipeline over a training set of application names.  Throws
    /// std::invalid_argument naming the field when isolated_quanta is 0,
    /// pair_quanta does not exceed warmup_quanta, or sample_fraction is
    /// outside (0, 1].
    TrainingResult train(std::span<const std::string> app_names) const;

    /// Fits Equation 1 to already-collected samples (used by ablations).
    static TrainingResult fit(std::vector<TrainingSample> samples,
                              const TrainerOptions& opts);

private:
    uarch::SimConfig cfg_;
    TrainerOptions opts_;
};

}  // namespace synpa::model
