// Per-task phase-change detection from rolling PMU deltas.
//
// The paper's runtime premise is that allocation must track what threads
// are doing *now*; an application that crosses a phase boundary (profile.hpp
// phase machine; SPEC apps do this every few hundred kinsts) invalidates
// both the estimator's smoothed isolated estimate and any solo reference
// the online trainer holds.  The detector watches four per-task signals —
// IPC plus the three category fractions — and flags a change with a
// two-sided CUSUM test per signal: after a short warmup establishes the
// phase's mean and noise level, each quantum's standardized deviation
// accumulates into positive/negative CUSUM statistics, and either side
// exceeding the threshold raises an alarm (and restarts the baseline).
//
// CUSUM is the classic sequential change-point test: it is memoryless per
// quantum (O(1) state per signal), detects small persistent shifts that a
// single-quantum threshold would miss, and its false-positive rate on
// stationary noise is controlled by the (drift, threshold) pair — both
// covered by tests/test_online.cpp.
#pragma once

#include <array>
#include <cstdint>

#include "common/flat_map.hpp"
#include "model/interference_model.hpp"

namespace synpa::online {

class PhaseDetector {
public:
    /// Signals watched per task: IPC + the kCategoryCount fractions.
    static constexpr std::size_t kSignalCount = 1 + model::kCategoryCount;

    struct Options {
        /// Quanta used to establish a phase's baseline mean/sigma.  While a
        /// task is warming up it never alarms.  At least 2: an alarm
        /// restarts the baseline with one sample already in it, so below 2
        /// sigma stays 0 (from the start at <= 0, after the first alarm at
        /// 1) and every later z is inf or NaN.
        int warmup_quanta = 5;
        /// CUSUM slack k, in sigmas: deviations below it are absorbed as
        /// noise.  Detects shifts larger than ~2k sigmas quickly.
        double drift = 0.75;
        /// CUSUM alarm level h, in sigmas of accumulated deviation.
        double threshold = 6.0;
        /// Per-signal noise floor for the standardization (an almost-
        /// constant signal must not turn harmless jitter into alarms).
        /// Index 0 is IPC (instructions/cycle scale), 1.. are fractions.
        std::array<double, kSignalCount> min_sigma = {0.05, 0.02, 0.02, 0.02};

        /// Throws std::invalid_argument naming the first bad field unless
        /// warmup_quanta >= 2, drift is finite and >= 0, and threshold and
        /// every min_sigma are finite and > 0; returns *this for
        /// constructor initializer lists.
        const Options& validate() const;

        /// Applies SYNPA_ONLINE_WARMUP / SYNPA_ONLINE_DRIFT /
        /// SYNPA_ONLINE_THRESHOLD overrides to the defaults and validates
        /// the result; a SYNPA_ONLINE_WARMUP below 2 throws naming it.
        static Options from_env();
    };

    PhaseDetector() : PhaseDetector(Options{}) {}
    /// Throws std::invalid_argument when opts.validate() does.
    explicit PhaseDetector(Options opts);

    /// Digests one task-quantum; returns true when a phase change is
    /// flagged.  On an alarm the task's baseline restarts (re-warming from
    /// the alarming sample, which already belongs to the new phase).
    bool observe(int task_id, double ipc, const model::CategoryVector& fractions);

    /// Restarts the task's baseline without flagging (external events that
    /// are known not to be phase changes, e.g. a relaunch).
    void reset(int task_id);

    /// Drops all state for a departed task.
    void forget(int task_id);

    /// True once the task's baseline is established (past warmup).
    bool warmed_up(int task_id) const;

    std::uint64_t alarms() const noexcept { return alarms_; }

private:
    struct Signal {
        double mean = 0.0;
        double m2 = 0.0;     ///< Welford sum of squared deviations (warmup)
        double sigma = 0.0;  ///< frozen at warmup end
        double pos = 0.0;    ///< positive CUSUM statistic
        double neg = 0.0;    ///< negative CUSUM statistic
    };
    struct TaskState {
        int samples = 0;
        std::array<Signal, kSignalCount> signals{};
    };

    Options opts_;
    common::FlatIdMap<TaskState> state_;
    std::uint64_t alarms_ = 0;
};

}  // namespace synpa::online
