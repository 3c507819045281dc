#include "model/extended_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "linalg/least_squares.hpp"

namespace synpa::model {

const std::array<const char*, kExtendedCategoryCount> kExtendedCategoryNames = {
    "Full dispatch",  "FE branch",  "FE icache",   "BE L2",
    "BE LLC",         "BE memory",  "BE slot",     "BE revealed"};

ExtendedVector characterize_extended(const pmu::CounterBank& delta,
                                     const uarch::SimConfig& cfg) {
    using pmu::Event;
    ExtendedVector out{};
    const auto cycles = static_cast<double>(delta.value(Event::kCpuCycles));
    if (cycles <= 0.0) return out;

    const double fe = static_cast<double>(delta.value(Event::kStallFrontend));
    const double be = static_cast<double>(delta.value(Event::kStallBackend));
    const double insts = static_cast<double>(delta.value(Event::kInstSpec));

    const double dispatch_cycles = std::max(0.0, cycles - fe - be);
    const double full_dispatch =
        std::min(dispatch_cycles, insts / static_cast<double>(cfg.dispatch_width));
    const double reveals = dispatch_cycles - full_dispatch;

    // Frontend attribution: penalty-weighted event counts (noisy: the PMU
    // does not say which stall cycle belongs to which event).
    const double br = static_cast<double>(delta.value(Event::kBrMisPred)) *
                      static_cast<double>(cfg.branch_redirect_penalty);
    const double ic = static_cast<double>(delta.value(Event::kL1iCacheRefill)) *
                      static_cast<double>(cfg.l2_latency);
    const double fe_w = br + ic;
    const double fe_branch = fe_w > 0.0 ? fe * br / fe_w : fe * 0.5;
    const double fe_icache = fe - fe_branch;

    // Backend attribution: slot-contention cycles are counted exactly; the
    // episode cycles are split across levels by refill-count-weighted
    // latencies (again a noisy proxy, as on real PMUs).
    const double slot = std::min(be, static_cast<double>(delta.value(Event::kStallBackendIq)));
    const double episodes = be - slot;
    const double l1d = static_cast<double>(delta.value(Event::kL1dCacheRefill));
    const double l2m = static_cast<double>(delta.value(Event::kL2dCacheRefill));
    const double llcm = static_cast<double>(delta.value(Event::kLlcCacheMiss));
    const double l2_hits = std::max(0.0, l1d - l2m);   // L1D refills served by L2
    const double llc_hits = std::max(0.0, l2m - llcm); // L2 refills served by LLC
    const double w_l2 = l2_hits * static_cast<double>(cfg.l2_latency);
    const double w_llc = llc_hits * static_cast<double>(cfg.llc_latency);
    const double w_mem = llcm * static_cast<double>(cfg.mem_latency);
    const double w_sum = w_l2 + w_llc + w_mem;
    const double be_l2 = w_sum > 0.0 ? episodes * w_l2 / w_sum : 0.0;
    const double be_llc = w_sum > 0.0 ? episodes * w_llc / w_sum : 0.0;
    const double be_mem = episodes - be_l2 - be_llc;

    out[0] = full_dispatch;
    out[1] = fe_branch;
    out[2] = fe_icache;
    out[3] = be_l2;
    out[4] = be_llc;
    out[5] = be_mem;
    out[6] = slot;
    out[7] = reveals;
    return out;
}

ExtendedVector ExtendedModel::predict(const ExtendedVector& st_i,
                                      const ExtendedVector& st_j) const {
    ExtendedVector out{};
    for (std::size_t c = 0; c < kExtendedCategoryCount; ++c)
        out[c] = coeffs_[c].predict(st_i[c], st_j[c]);
    return out;
}

double ExtendedModel::predict_slowdown(const ExtendedVector& st_i,
                                       const ExtendedVector& st_j) const {
    double s = 0.0;
    for (double x : predict(st_i, st_j)) s += x;
    return s;
}

ExtendedTrainingResult ExtendedTrainer::train(std::span<const std::string> app_names) const {
    const std::vector<ExtendedSample> samples =
        collect_training_set(cfg_, opts_, app_names, characterize_extended).samples;
    if (samples.size() < 16) throw std::runtime_error("ExtendedTrainer: too few samples");

    ExtendedTrainingResult result;
    result.sample_count = samples.size();
    for (std::size_t c = 0; c < kExtendedCategoryCount; ++c) {
        linalg::Matrix design(samples.size(), kDesignColumns);
        std::vector<double> target(samples.size());
        for (std::size_t r = 0; r < samples.size(); ++r) {
            const auto row = design_row(samples[r], c);
            for (std::size_t k = 0; k < kDesignColumns; ++k) design(r, k) = row[k];
            target[r] = samples[r].smt_per_st[c];
        }
        // Fine categories are frequently near-empty for many applications,
        // so the design can be close to collinear: always ridge-regularize.
        const auto fit = linalg::ridge_least_squares(design, target, 1e-6);
        result.model.coefficients(c) = {.alpha = fit.coefficients[0],
                                        .beta = fit.coefficients[1],
                                        .gamma = fit.coefficients[2],
                                        .rho = fit.coefficients[3]};
        result.mse[c] = fit.mse;
    }
    return result;
}

}  // namespace synpa::model
