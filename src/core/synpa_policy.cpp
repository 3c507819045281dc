#include "core/synpa_policy.hpp"

#include <algorithm>
#include <array>
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

SynpaPolicy::SynpaPolicy(model::InterferenceModel model, Options opts)
    : model_(model), opts_(opts), estimator_(model_, opts.estimator) {}

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

void SynpaPolicy::reset_estimate(int task_id) { estimator_.forget(task_id); }

double SynpaPolicy::pair_cost(int task_u, int task_v) const {
    ++cost_evaluations_;
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.pair_weight(task_u, task_v);
    const std::array<int, 2> ids = {task_u, task_v};
    estimator_.member_slowdowns(ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

double SynpaPolicy::solo_cost(int task_id) const {
    ++cost_evaluations_;
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.solo_weight(task_id);
    const std::array<int, 1> ids = {task_id};
    estimator_.member_slowdowns(ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

double SynpaPolicy::group_cost(std::span<const int> task_ids) const {
    ++cost_evaluations_;
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.group_weight(task_ids);
    estimator_.member_slowdowns(task_ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

const matching::Matcher& SynpaPolicy::matcher() const {
    static const GreedyMatcher greedy;
    switch (opts_.selector) {
        case PairSelector::kBlossom: return blossom_;
        case PairSelector::kGreedy: return greedy;
    }
    return blossom_;
}

sched::ChipCosts SynpaPolicy::chip_costs(
    std::span<const sched::TaskObservation> observations) const {
    sched::ChipCosts c;
    c.solo = [this, observations](std::size_t i) { return solo_cost(observations[i].task_id); };
    c.pair = [this, observations](std::size_t u, std::size_t v) {
        return pair_cost(observations[u].task_id, observations[v].task_id);
    };
    c.group = [this, observations](std::span<const int> group) {
        std::vector<int> ids;
        ids.reserve(group.size());
        for (const int i : group) ids.push_back(observations[static_cast<std::size_t>(i)].task_id);
        return group_cost(ids);
    };
    return c;
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
    // Step 1: refresh isolated-behaviour estimates from this quantum.
    estimator_.observe(observations);

    // Multi-chip Step 3 decomposes: pick each task's chip first — migrating
    // across chips only when the estimator's predicted benefit beats the
    // configured cross-chip cost — then run the single-chip selection per
    // chip (interference never crosses a chip boundary; each chip has its
    // own LLC and DRAM channel).
    const sched::TopologyView topo = sched::observed_topology(observations);
    sched::CoreAllocation alloc;
    if (topo.chips <= 1) {
        alloc = allocate_chip(observations);
    } else {
        const sched::ChipCosts costs = chip_costs(observations);
        alloc = sched::allocate_across_chips(
            observations, topo, costs.solo, costs.pair, opts_.cross_chip_penalty,
            [this](std::span<const sched::TaskObservation> local,
                   std::span<const std::size_t>) { return allocate_chip(local); });
    }
    trace_allocation(alloc);
    if (tracer_ != nullptr)
        tracer_->metrics()
            .counter("core.cost_evaluations")
            .add(cost_evaluations_ - evaluations_before);
    return alloc;
}

sched::CoreAllocation SynpaPolicy::allocate_chip(
    std::span<const sched::TaskObservation> observations) const {
    if (observations.empty()) return {};
    // Step 2+3: the shared single-chip flow over this policy's costs.  The
    // dummy-node reduction needs an exact solver (see matching.hpp), so the
    // greedy ablation falls back to Blossom under partial load.
    return sched::solve_chip(observations, chip_costs(observations), matcher(), blossom_,
                             opts_.stability_bias, opts_.keep_threshold);
}

void SynpaPolicy::on_task_replaced(int old_task_id, int new_task_id) {
    estimator_.transfer(old_task_id, new_task_id);
}

void SynpaPolicy::on_task_finished(int task_id) { estimator_.forget(task_id); }

}  // namespace synpa::core
