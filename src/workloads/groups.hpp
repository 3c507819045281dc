// Application grouping (paper Table III) and suite calibration.
//
// Applications are classified from their isolated dispatch-stage
// characterization: backend bound when backend stalls exceed 65% of cycles,
// frontend bound when frontend stalls exceed 35%, Others otherwise.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/interference_model.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::workloads {

enum class Group { kBackendBound, kFrontendBound, kOther };

const char* group_name(Group g) noexcept;

/// Table III thresholds.
inline constexpr double kBackendBoundThreshold = 0.65;
inline constexpr double kFrontendBoundThreshold = 0.35;

/// Classifies isolated category fractions per the Table III rule.
Group classify(const model::CategoryVector& isolated_fractions) noexcept;

/// Isolated characterization of one application.
struct AppCharacterization {
    std::string name;
    model::CategoryVector fractions{};  ///< full-dispatch / frontend / backend
    double ipc = 0.0;
    Group group = Group::kOther;
};

/// Runs every suite application alone and characterizes it (Figure 4 data).
/// Results are deterministic for a given (cfg, quanta, seed).
std::vector<AppCharacterization> characterize_suite(const uarch::SimConfig& cfg,
                                                    std::uint64_t quanta, std::uint64_t seed);

/// Fills in AppProfile::phase_categories for the whole suite by running each
/// phase in isolation (used by the Oracle policy and by phase-aware tests).
/// The phase truth is process-wide and the first call wins: once every app
/// has phase_categories, later calls return at once whatever their
/// (cfg, quanta, seed).
void calibrate_suite(const uarch::SimConfig& cfg, std::uint64_t quanta, std::uint64_t seed);

/// The paper's training/evaluation split: 22 of the 28 applications train
/// the model (§IV-C); the held-out six exercise it on unseen behaviour.
std::vector<std::string> training_apps();
std::vector<std::string> holdout_apps();

}  // namespace synpa::workloads
