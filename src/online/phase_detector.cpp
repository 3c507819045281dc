#include "online/phase_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/config.hpp"

namespace synpa::online {
namespace {

void require(bool ok, const std::string& name, const char* rule, const std::string& got) {
    if (!ok) throw std::invalid_argument(name + " must be " + rule + ", got " + got);
}

}  // namespace

const PhaseDetector::Options& PhaseDetector::Options::validate() const {
    const std::string field = "PhaseDetector::Options::";
    require(warmup_quanta >= 2, field + "warmup_quanta", ">= 2", std::to_string(warmup_quanta));
    require(std::isfinite(drift) && drift >= 0.0, field + "drift", "finite and >= 0",
            std::to_string(drift));
    require(std::isfinite(threshold) && threshold > 0.0, field + "threshold", "finite and > 0",
            std::to_string(threshold));
    for (std::size_t s = 0; s < kSignalCount; ++s)
        require(std::isfinite(min_sigma[s]) && min_sigma[s] > 0.0,
                field + "min_sigma[" + std::to_string(s) + "]", "finite and > 0",
                std::to_string(min_sigma[s]));
    return *this;
}

PhaseDetector::Options PhaseDetector::Options::from_env() {
    Options o;
    const std::int64_t warmup = common::env_int("SYNPA_ONLINE_WARMUP", o.warmup_quanta);
    require(warmup >= 2 && warmup <= std::numeric_limits<int>::max(), "SYNPA_ONLINE_WARMUP",
            "an int >= 2", std::to_string(warmup));
    o.warmup_quanta = static_cast<int>(warmup);
    o.drift = common::env_double("SYNPA_ONLINE_DRIFT", o.drift);
    o.threshold = common::env_double("SYNPA_ONLINE_THRESHOLD", o.threshold);
    o.validate();
    return o;
}

PhaseDetector::PhaseDetector(Options opts) : opts_(opts.validate()) {}

bool PhaseDetector::observe(int task_id, double ipc,
                            const model::CategoryVector& fractions) {
    std::array<double, kSignalCount> x;
    x[0] = ipc;
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) x[c + 1] = fractions[c];

    TaskState& task = state_[task_id];
    if (task.samples < opts_.warmup_quanta) {
        // Welford baseline accumulation; no alarms while warming up.
        ++task.samples;
        for (std::size_t s = 0; s < kSignalCount; ++s) {
            Signal& sig = task.signals[s];
            const double delta = x[s] - sig.mean;
            sig.mean += delta / static_cast<double>(task.samples);
            sig.m2 += delta * (x[s] - sig.mean);
        }
        if (task.samples == opts_.warmup_quanta) {
            for (std::size_t s = 0; s < kSignalCount; ++s) {
                Signal& sig = task.signals[s];
                const double var =
                    task.samples > 1 ? sig.m2 / static_cast<double>(task.samples - 1) : 0.0;
                sig.sigma = std::max(std::sqrt(std::max(var, 0.0)), opts_.min_sigma[s]);
            }
        }
        return false;
    }

    bool alarm = false;
    for (std::size_t s = 0; s < kSignalCount; ++s) {
        Signal& sig = task.signals[s];
        const double z = (x[s] - sig.mean) / sig.sigma;
        sig.pos = std::max(0.0, sig.pos + z - opts_.drift);
        sig.neg = std::max(0.0, sig.neg - z - opts_.drift);
        alarm = alarm || sig.pos > opts_.threshold || sig.neg > opts_.threshold;
    }
    if (!alarm) return false;

    ++alarms_;
    // Restart the baseline from the alarming sample: it already belongs to
    // the new phase, so it seeds the next warmup.
    task = TaskState{};
    ++task.samples;
    for (std::size_t s = 0; s < kSignalCount; ++s) task.signals[s].mean = x[s];
    return true;
}

void PhaseDetector::reset(int task_id) { state_.erase(task_id); }

void PhaseDetector::forget(int task_id) { state_.erase(task_id); }

bool PhaseDetector::warmed_up(int task_id) const {
    const TaskState* it = state_.find(task_id);
    return it != nullptr && it->samples >= opts_.warmup_quanta;
}

}  // namespace synpa::online
