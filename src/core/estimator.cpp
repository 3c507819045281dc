#include "core/estimator.hpp"

#include <utility>

namespace synpa::core {

SynpaEstimator::SynpaEstimator(model::InterferenceModel model, Options opts)
    : model_(std::move(model)), flat_(model_), opts_(opts) {}

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
    common::FlatIdMap<const sched::TaskObservation*> by_id;
    for (const auto& o : observations) by_id[o.task_id] = &o;

    for (const auto& o : observations) {
        if (o.corunner_task_ids.empty()) {
            // Ran alone: the SMT fractions *are* isolated fractions.
            ema_update(o.task_id, o.breakdown.fractions());
            continue;
        }
        if (o.corunner_task_ids.size() == 1) {
            const auto* partner = by_id.find(o.corunner_task_id);
            if (partner != nullptr) {
                // A fully observed 2-group: one inversion recovers both
                // isolated vectors, owned by the lower-id member (whose
                // observation we just confirmed present).
                if (o.corunner_task_id < o.task_id) continue;  // handle each pair once
                const model::ModelInverter inverter(model_, opts_.inversion);
                const model::InversionResult inv =
                    inverter.invert(o.breakdown.fractions(), (*partner)->breakdown.fractions());
                ema_update(o.task_id, inv.st_i);
                ema_update(o.corunner_task_id, inv.st_j);
                continue;
            }
            // The partner retired mid-quantum (open system): its observation
            // is gone, but the survivor still spent the quantum co-running
            // and its counters carry that interference.  Synthesize the
            // missing SMT-side fractions from the forward model on the
            // current estimates and invert as usual, updating only the
            // survivor — ownership falls to whichever member is present.
            const model::CategoryVector partner_smt =
                model_.predict(estimate(o.corunner_task_id), estimate(o.task_id));
            double sum = 0.0;
            for (const double x : partner_smt) sum += x;
            if (sum <= 1e-9) continue;
            model::CategoryVector partner_fractions{};
            for (std::size_t c = 0; c < model::kCategoryCount; ++c)
                partner_fractions[c] = partner_smt[c] / sum;
            const model::ModelInverter inverter(model_, opts_.inversion);
            const model::InversionResult inv =
                inverter.invert(o.breakdown.fractions(), partner_fractions);
            ema_update(o.task_id, inv.st_i);
            continue;
        }
        // A wider group (SMT-4): the pairwise inversion has no exact k-way
        // analogue, so invert against each co-runner separately and average
        // the recovered self-vectors.  Each task updates only itself; its
        // co-runners run the same procedure from their own observations.
        const model::ModelInverter inverter(model_, opts_.inversion);
        model::CategoryVector acc{};
        int inverted = 0;
        for (const int partner : o.corunner_task_ids) {
            const auto* other = by_id.find(partner);
            if (other == nullptr) continue;
            const model::InversionResult inv =
                inverter.invert(o.breakdown.fractions(), (*other)->breakdown.fractions());
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

double SynpaEstimator::pair_weight(int task_u, int task_v) const {
    const model::CategoryVector eu = estimate(task_u);
    const model::CategoryVector ev = estimate(task_v);
    return flat_.predict_slowdown(eu, ev) + flat_.predict_slowdown(ev, eu);
}

double SynpaEstimator::solo_weight(int task_id) const {
    return flat_.predict_slowdown(estimate(task_id), model::CategoryVector{});
}

namespace {

/// Stack-first member-vector gather: Step-2 groups are at most SMT-width
/// wide, so the common case never touches the heap.
constexpr std::size_t kInlineMembers = 8;

}  // namespace

double SynpaEstimator::group_weight(std::span<const int> task_ids) const {
    std::array<model::CategoryVector, kInlineMembers> inline_buf;
    std::vector<model::CategoryVector> heap;
    model::CategoryVector* members = inline_buf.data();
    if (task_ids.size() > kInlineMembers) {
        heap.resize(task_ids.size());
        members = heap.data();
    }
    for (std::size_t i = 0; i < task_ids.size(); ++i) members[i] = estimate(task_ids[i]);
    return flat_.group_slowdown({members, task_ids.size()});
}

void SynpaEstimator::member_slowdowns(std::span<const int> task_ids,
                                      std::vector<double>& out) const {
    std::array<model::CategoryVector, kInlineMembers> inline_buf;
    std::vector<model::CategoryVector> heap;
    model::CategoryVector* members = inline_buf.data();
    if (task_ids.size() > kInlineMembers) {
        heap.resize(task_ids.size());
        members = heap.data();
    }
    for (std::size_t i = 0; i < task_ids.size(); ++i) members[i] = estimate(task_ids[i]);
    out.resize(task_ids.size());
    flat_.member_slowdowns({members, task_ids.size()}, out);
}

std::vector<double> SynpaEstimator::member_slowdowns(std::span<const int> task_ids) const {
    std::vector<double> out;
    member_slowdowns(task_ids, out);
    return out;
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
