#include "core/synpa_policy.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sched/topology.hpp"

namespace synpa::core {
namespace {

/// Greedy pair selection: repeatedly takes the lightest remaining edge.
/// Enforces the Matcher odd-N contract: on an odd (or zero) vertex count a
/// perfect matching does not exist, and silently leaving a vertex with
/// mate == -1 would hand callers a malformed allocation — throw like every
/// other solver so callers route through min_weight_pairs instead.
std::vector<std::pair<int, int>> greedy_pairs(const matching::WeightMatrix& w) {
    const std::size_t n = w.size();
    if (n == 0 || n % 2 != 0)
        throw std::invalid_argument(
            "GreedyMatcher: perfect matching requires an even vertex count >= 2");
    struct Edge {
        double weight;
        std::size_t u, v;
    };
    std::vector<Edge> edges;
    edges.reserve(n * (n - 1) / 2);
    for (std::size_t u = 0; u < n; ++u)
        for (std::size_t v = u + 1; v < n; ++v) edges.push_back({w.get(u, v), u, v});
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
        return a.weight < b.weight;
    });
    std::vector<bool> used(n, false);
    std::vector<std::pair<int, int>> out;
    for (const Edge& e : edges) {
        if (used[e.u] || used[e.v]) continue;
        used[e.u] = used[e.v] = true;
        out.emplace_back(static_cast<int>(e.u), static_cast<int>(e.v));
        if (out.size() * 2 == n) break;
    }
    return out;
}

/// Adapts the greedy heuristic to the Matcher interface so it can share the
/// hysteresis logic with the exact solvers.
class GreedyMatcher final : public matching::Matcher {
public:
    matching::MatchingResult min_weight_perfect(
        const matching::WeightMatrix& w) const override {
        matching::MatchingResult r;
        r.pairs = greedy_pairs(w);
        r.mate.assign(w.size(), -1);
        for (auto [u, v] : r.pairs) {
            r.mate[static_cast<std::size_t>(u)] = v;
            r.mate[static_cast<std::size_t>(v)] = u;
        }
        r.total_weight = matching::matching_weight(w, r.pairs);
        return r;
    }
};

}  // namespace

const char* objective_name(Objective objective) noexcept {
    switch (objective) {
        case Objective::kTotalSlowdown: return "total";
        case Objective::kThroughput: return "stp";
        case Objective::kFairness: return "fair";
        case Objective::kTail: return "tail";
    }
    return "total";
}

double objective_cost(Objective objective, std::span<const double> member_slowdowns) noexcept {
    double cost = 0.0;
    for (const double raw : member_slowdowns) {
        // Predicted slowdowns below 1 are estimator noise (co-running
        // cannot speed a task up); clamping to 1 keeps the nonlinear
        // objectives from rewarding garbage predictions — without it a
        // mispredicted s = 0.1 contributes 1 - 1/s = -9 to the STP cost
        // and near-zero to the power objectives, locking the matcher onto
        // exactly the pairs the model understands least.
        const double s = std::max(raw, 1.0);
        switch (objective) {
            case Objective::kTotalSlowdown: cost += s; break;
            case Objective::kThroughput: cost += 1.0 - 1.0 / s; break;
            case Objective::kFairness: cost += s * s * s * s; break;
            case Objective::kTail: cost += s * s; break;
        }
    }
    return cost;
}

const SynpaPolicy::Options& SynpaPolicy::Options::validate() const {
    const auto check = [](double value, const char* field) {
        if (!(std::isfinite(value) && value >= 0.0))
            throw std::invalid_argument(std::string("SynpaPolicy::Options::") + field +
                                        " must be finite and >= 0, got " +
                                        std::to_string(value));
    };
    check(stability_bias, "stability_bias");
    check(keep_threshold, "keep_threshold");
    if (!(cross_chip_penalty >= 0.0))
        throw std::invalid_argument(
            "SynpaPolicy::Options::cross_chip_penalty must be >= 0, got " +
            std::to_string(cross_chip_penalty));
    estimator.validate();
    return *this;
}

SynpaPolicy::SynpaPolicy(model::InterferenceModel model, Options opts)
    : model_(model), opts_(opts.validate()), estimator_(model_, opts.estimator) {}

std::string SynpaPolicy::name() const {
    std::string base = "synpa";
    switch (opts_.selector) {
        case PairSelector::kBlossom: break;
        case PairSelector::kGreedy: base += "-greedy"; break;
    }
    if (opts_.objective != Objective::kTotalSlowdown)
        base += std::string("-") + objective_name(opts_.objective);
    return base;
}

void SynpaPolicy::set_model(model::InterferenceModel model) {
    model_ = model;
    estimator_.set_model(std::move(model));
}

double SynpaPolicy::group_cost(std::span<const int> task_ids) const {
    ++cost_evaluations_;
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.group_weight(task_ids);
    std::array<double, uarch::kMaxSmtWays> slowdowns{};
    const auto members = std::span(slowdowns).first(task_ids.size());
    estimator_.member_slowdowns(task_ids, members);
    return objective_cost(opts_.objective, members);
}

const matching::Matcher& SynpaPolicy::matcher() const {
    static const GreedyMatcher greedy;
    switch (opts_.selector) {
        case PairSelector::kBlossom: return blossom_;
        case PairSelector::kGreedy: return greedy;
    }
    return blossom_;
}

matching::GroupCost SynpaPolicy::chip_costs(
    std::span<const sched::TaskObservation> observations) const {
    return [this, observations](std::span<const int> group) {
        std::array<int, uarch::kMaxSmtWays> ids{};
        for (std::size_t k = 0; k < group.size(); ++k)
            ids.at(k) = observations[static_cast<std::size_t>(group[k])].task_id;
        return group_cost(std::span<const int>(ids.data(), group.size()));
    };
}

void SynpaPolicy::set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer != nullptr && tracer->enabled() ? tracer : nullptr;
}

void SynpaPolicy::trace_allocation(const sched::CoreAllocation& alloc) const {
    if (tracer_ == nullptr || !tracer_->wants(obs::EventKind::kAllocation)) return;
    obs::TraceEvent e;
    e.kind = obs::EventKind::kAllocation;
    e.quantum = tracer_->quantum();
    e.detail = name();
    double total_cost = 0.0;
    for (std::size_t c = 0; c < alloc.size(); ++c) {
        const sched::CoreGroup& g = alloc[c];
        if (g.empty()) continue;
        ++e.a;
        const double cost = group_cost(g.members());
        total_cost += cost;
        e.detail += " c" + std::to_string(c) + "[";
        for (int i = 0; i < g.occupancy(); ++i) {
            if (i > 0) e.detail += ",";
            e.detail += std::to_string(g[static_cast<std::size_t>(i)]);
        }
        char cost_buf[32];
        std::snprintf(cost_buf, sizeof(cost_buf), "]=%.3f", cost);
        e.detail += cost_buf;
    }
    e.value = total_cost;
    tracer_->emit(std::move(e));
}

sched::CoreAllocation SynpaPolicy::reallocate(
    std::span<const sched::TaskObservation> observations) {
    if (observations.empty()) return {};
    const std::uint64_t evaluations_before = cost_evaluations_;
    const SynpaEstimator::InversionStats inversions_before = estimator_.inversion_stats();
    // Step 1: refresh isolated-behaviour estimates from this quantum.
    estimator_.observe(observations);

    // Steps 2+3: the shared Step 3 over this policy's costs.  The
    // dummy-node reduction needs an exact solver (see matching.hpp), so the
    // greedy ablation falls back to Blossom under partial load.
    const sched::CoreAllocation alloc =
        sched::solve_platform(observations, chip_costs(observations), matcher(), blossom_,
                              opts_.stability_bias, opts_.keep_threshold,
                              opts_.cross_chip_penalty);
    trace_allocation(alloc);
    if (tracer_ != nullptr) {
        obs::MetricsRegistry& metrics = tracer_->metrics();
        metrics.counter("core.cost_evaluations").add(cost_evaluations_ - evaluations_before);
        const SynpaEstimator::InversionStats& inversions = estimator_.inversion_stats();
        metrics.counter("model.inversions")
            .add(inversions.inversions - inversions_before.inversions);
        metrics.counter("model.inversion_fallbacks")
            .add(inversions.fallbacks - inversions_before.fallbacks);
        metrics.counter("model.inversion_iterations")
            .add(inversions.iterations - inversions_before.iterations);
    }
    return alloc;
}

void SynpaPolicy::on_task_replaced(int old_task_id, int new_task_id) {
    estimator_.transfer(old_task_id, new_task_id);
}

void SynpaPolicy::on_task_finished(int task_id) { estimator_.forget(task_id); }

}  // namespace synpa::core
