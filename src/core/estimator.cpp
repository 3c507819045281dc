#include "core/estimator.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "uarch/sim_config.hpp"

namespace synpa::core {

const SynpaEstimator::Options& SynpaEstimator::Options::validate() const {
    if (!(ema_alpha > 0.0 && ema_alpha <= 1.0))
        throw std::invalid_argument("SynpaEstimator::Options::ema_alpha must be in (0, 1], got " +
                                    std::to_string(ema_alpha));
    inversion.validate();
    return *this;
}

SynpaEstimator::SynpaEstimator(model::InterferenceModel model, Options opts)
    : model_(std::move(model)),
      opts_(opts.validate()),
      inverter_(model_, opts_.inversion) {}

model::InversionResult SynpaEstimator::invert(const model::CategoryVector& smt_i,
                                              const model::CategoryVector& smt_j) {
    const model::InversionResult inv = inverter_.invert(smt_i, smt_j);
    ++inversion_stats_.inversions;
    inversion_stats_.fallbacks += inv.converged ? 0 : 1;
    inversion_stats_.iterations += static_cast<std::uint64_t>(inv.iterations);
    return inv;
}

void SynpaEstimator::ema_update(int id, const model::CategoryVector& fresh) {
    model::CategoryVector* est = estimates_.find(id);
    if (est == nullptr) {
        estimates_.insert_or_assign(id, fresh);
        return;
    }
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        (*est)[c] = opts_.ema_alpha * fresh[c] + (1.0 - opts_.ema_alpha) * (*est)[c];
    // Keep the estimate on the simplex after mixing.
    double sum = 0.0;
    for (double x : *est) sum += x;
    if (sum > 1e-9)
        for (double& x : *est) x /= sum;
}

void SynpaEstimator::observe(std::span<const sched::TaskObservation> observations) {
    const auto by_id = common::SmallIdMap<const sched::TaskObservation*>::from(
        observations, [](const sched::TaskObservation& o) { return std::pair{o.task_id, &o}; });

    for (const auto& o : observations) {
        if (o.corunner_task_ids.empty()) {
            // Ran alone: the SMT fractions *are* isolated fractions.
            ema_update(o.task_id, o.breakdown.fractions());
            continue;
        }
        if (o.corunner_task_ids.size() == 1) {
            const int partner_id = o.corunner_task_ids.front();
            const auto* partner = by_id.find(partner_id);
            if (partner != nullptr) {
                // A fully observed 2-group: one inversion recovers both
                // isolated vectors, owned by the lower-id member (whose
                // observation we just confirmed present).
                if (partner_id < o.task_id) continue;  // handle each pair once
                const model::InversionResult inv =
                    invert(o.breakdown.fractions(), (*partner)->breakdown.fractions());
                ema_update(o.task_id, inv.st_i);
                ema_update(partner_id, inv.st_j);
                continue;
            }
            // The partner retired mid-quantum (open system): its observation
            // is gone, but the survivor still spent the quantum co-running
            // and its counters carry that interference.  Synthesize the
            // missing SMT-side fractions from the forward model on the
            // current estimates and invert as usual, updating only the
            // survivor — ownership falls to whichever member is present.
            const model::CategoryVector partner_smt =
                model_.predict(estimate(partner_id), estimate(o.task_id));
            double sum = 0.0;
            for (const double x : partner_smt) sum += x;
            if (sum <= 1e-9) continue;
            model::CategoryVector partner_fractions{};
            for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                partner_fractions[c] = partner_smt[c] / sum;
            const model::InversionResult inv = invert(o.breakdown.fractions(), partner_fractions);
            ema_update(o.task_id, inv.st_i);
            continue;
        }
        // A wider group (SMT-4): the pairwise inversion has no exact k-way
        // analogue, so invert against each co-runner separately and average
        // the recovered self-vectors.  Each task updates only itself; its
        // co-runners run the same procedure from their own observations.
        model::CategoryVector acc{};
        int inverted = 0;
        for (const int partner : o.corunner_task_ids) {
            const auto* other = by_id.find(partner);
            if (other == nullptr) continue;
            const model::InversionResult inv =
                invert(o.breakdown.fractions(), (*other)->breakdown.fractions());
            for (std::size_t c = 0; c < model::kCategoryCount; ++c) acc[c] += inv.st_i[c];
            ++inverted;
        }
        if (inverted == 0) continue;
        for (double& x : acc) x /= static_cast<double>(inverted);
        ema_update(o.task_id, acc);
    }
}

model::CategoryVector SynpaEstimator::estimate(int task_id) const {
    const model::CategoryVector* est = estimates_.find(task_id);
    if (est != nullptr) return *est;
    return {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
}

namespace {

/// Returns fn(the members' current estimates, in task_ids order), gathered
/// on the stack: a group never holds more tasks than an SMT core has ways.
template <typename Fn>
auto with_estimates(const SynpaEstimator& est, std::span<const int> task_ids, Fn&& fn) {
    constexpr auto kWays = static_cast<std::size_t>(uarch::kMaxSmtWays);
    if (task_ids.size() > kWays)
        throw std::length_error("SynpaEstimator: a group of " + std::to_string(task_ids.size()) +
                                " ids exceeds kMaxSmtWays (" + std::to_string(kWays) + ")");
    std::array<model::CategoryVector, kWays> members;
    for (std::size_t i = 0; i < task_ids.size(); ++i) members[i] = est.estimate(task_ids[i]);
    return fn(std::span<const model::CategoryVector>(members.data(), task_ids.size()));
}

}  // namespace

double SynpaEstimator::group_weight(std::span<const int> task_ids) const {
    return with_estimates(*this, task_ids, [this](std::span<const model::CategoryVector> m) {
        return model::predict_group_slowdown(model_, m);
    });
}

void SynpaEstimator::member_slowdowns(std::span<const int> task_ids,
                                      std::span<double> out) const {
    with_estimates(*this, task_ids, [&](std::span<const model::CategoryVector> m) {
        model::predict_member_slowdowns(model_, m, out);
    });
}

void SynpaEstimator::forget(int task_id) { estimates_.erase(task_id); }

void SynpaEstimator::transfer(int old_task_id, int new_task_id) {
    const model::CategoryVector* est = estimates_.find(old_task_id);
    if (est == nullptr) return;
    // Copy before inserting: a growing insert invalidates `est`.
    const model::CategoryVector moved = *est;
    estimates_.insert_or_assign(new_task_id, moved);
    estimates_.erase(old_task_id);
}

}  // namespace synpa::core
