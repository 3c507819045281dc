#include "core/synpa_policy.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
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

bool weight_cache_default() { return common::env_int("SYNPA_WEIGHT_CACHE", 1) != 0; }

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

void SynpaPolicy::on_phase_alarm(int task_id) { estimator_.bump_epoch(task_id); }

double SynpaPolicy::pair_cost_uncached(int task_u, int task_v) const {
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.pair_weight(task_u, task_v);
    const std::array<int, 2> ids = {task_u, task_v};
    estimator_.member_slowdowns(ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

double SynpaPolicy::solo_cost_uncached(int task_id) const {
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.solo_weight(task_id);
    const std::array<int, 1> ids = {task_id};
    estimator_.member_slowdowns(ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

double SynpaPolicy::group_cost_uncached(std::span<const int> task_ids) const {
    if (opts_.objective == Objective::kTotalSlowdown)
        return estimator_.group_weight(task_ids);
    estimator_.member_slowdowns(task_ids, slowdown_scratch_);
    return objective_cost(opts_.objective, slowdown_scratch_);
}

double SynpaPolicy::pair_cost(int task_u, int task_v) const {
    if (!opts_.weight_cache) return pair_cost_uncached(task_u, task_v);
    cache_.sync_model_epoch(estimator_.model_epoch());
    const std::uint64_t eu = estimator_.estimate_epoch(task_u);
    const std::uint64_t ev = estimator_.estimate_epoch(task_v);
    if (const double* hit = cache_.find_pair(task_u, eu, task_v, ev)) return *hit;
    const double cost = pair_cost_uncached(task_u, task_v);
    cache_.store_pair(task_u, eu, task_v, ev, cost);
    return cost;
}

double SynpaPolicy::solo_cost(int task_id) const {
    if (!opts_.weight_cache) return solo_cost_uncached(task_id);
    cache_.sync_model_epoch(estimator_.model_epoch());
    const std::uint64_t epoch = estimator_.estimate_epoch(task_id);
    if (const double* hit = cache_.find_solo(task_id, epoch)) return *hit;
    const double cost = solo_cost_uncached(task_id);
    cache_.store_solo(task_id, epoch, cost);
    return cost;
}

double SynpaPolicy::group_cost(std::span<const int> task_ids) const {
    // Member order matters to the key: nonlinear objectives fold per-member
    // slowdowns in member order, so permutations are distinct cache lines.
    const std::size_t k = task_ids.size();
    if (!opts_.weight_cache || k == 0 || k > WeightCache::kMaxGroup)
        return group_cost_uncached(task_ids);
    cache_.sync_model_epoch(estimator_.model_epoch());
    WeightCache::GroupKey key;
    key.fill(-1);
    std::array<std::uint64_t, WeightCache::kMaxGroup> epochs{};
    for (std::size_t i = 0; i < k; ++i) {
        key[i] = task_ids[i];
        epochs[i] = estimator_.estimate_epoch(task_ids[i]);
    }
    if (const double* hit = cache_.find_group(key, k, epochs)) return *hit;
    const double cost = group_cost_uncached(task_ids);
    cache_.store_group(key, k, epochs, cost);
    return cost;
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
    // Step 1: refresh isolated-behaviour estimates from this quantum.
    estimator_.observe(observations);

    const sched::TopologyView topo = sched::observed_topology(observations);
    if (topo.chips <= 1) {
        sched::CoreAllocation alloc = allocate_chip(observations, 0);
        trace_allocation(alloc);
        publish_cache_metrics();
        return alloc;
    }

    // Multi-chip Step 3 decomposes: pick each task's chip first — migrating
    // across chips only when the estimator's predicted benefit beats the
    // configured cross-chip cost — then run the single-chip selection per
    // chip (interference never crosses a chip boundary; each chip has its
    // own LLC and DRAM channel).
    const sched::ChipCosts costs = chip_costs(observations);
    sched::CoreAllocation alloc = sched::allocate_across_chips(
        observations, topo, costs.solo, costs.pair, opts_.cross_chip_penalty,
        [this](int chip, std::span<const sched::TaskObservation> local,
               std::span<const std::size_t>) { return allocate_chip(local, chip); });
    trace_allocation(alloc);
    publish_cache_metrics();
    return alloc;
}

void SynpaPolicy::publish_cache_metrics() const {
    if (tracer_ == nullptr || !opts_.weight_cache) return;
    const WeightCache::Stats& s = cache_.stats();
    obs::MetricsRegistry& m = tracer_->metrics();
    m.counter("weight_cache.hits").add(s.hits - published_.hits);
    m.counter("weight_cache.misses").add(s.misses - published_.misses);
    m.counter("weight_cache.solve_reuse").add(s.solve_reuse - published_.solve_reuse);
    const std::uint64_t lookups = s.hits + s.misses;
    // An all-clean quantum performs no lookups at all (the solve memo
    // answers first); an empty denominator therefore means "everything
    // reused", not "no data".
    m.gauge("weight_cache.hit_rate")
        .set(lookups == 0 ? 1.0 : static_cast<double>(s.hits) / static_cast<double>(lookups));
    published_ = s;
}

sched::CoreAllocation SynpaPolicy::allocate_chip(
    std::span<const sched::TaskObservation> observations, int chip) {
    if (observations.empty()) return {};
    // Step 2+3: the shared single-chip flow over this policy's costs.  The
    // dummy-node reduction needs an exact solver (see matching.hpp), so the
    // greedy ablation falls back to Blossom under partial load.
    const auto solve = [&] {
        return sched::solve_chip(observations, chip_costs(observations), matcher(), blossom_,
                                 opts_.stability_bias, opts_.keep_threshold);
    };
    if (!opts_.weight_cache || chip < 0) return solve();
    cache_.sync_model_epoch(estimator_.model_epoch());

    // Flatten everything the uncached solve reads into one key: per task
    // its id, incumbent core, co-runner list and estimate epoch, plus the
    // chip shape and the model epoch.  place_groups consumes only
    // task_id + core; the hysteresis path reads corunner_task_id; all
    // costs are functions of (estimates, objective) and the estimate epochs
    // name the estimate values exactly.  A key match therefore certifies
    // the solver would reproduce the memoized allocation bit for bit.
    const auto encode = [](int v) {
        return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    };
    std::vector<std::uint64_t> key;
    key.reserve(4 + observations.size() * 6);
    key.push_back(observations.size());
    key.push_back(encode(sched::observed_smt_ways(observations)));
    key.push_back(sched::observed_total_cores(observations));
    key.push_back(estimator_.model_epoch());
    for (const auto& o : observations) {
        key.push_back(encode(o.task_id));
        key.push_back(encode(o.core));
        key.push_back(encode(o.corunner_task_id));
        key.push_back(o.corunner_task_ids.size());
        for (const int partner : o.corunner_task_ids) key.push_back(encode(partner));
        key.push_back(estimator_.estimate_epoch(o.task_id));
    }

    if (static_cast<std::size_t>(chip) >= solve_memo_.size())
        solve_memo_.resize(static_cast<std::size_t>(chip) + 1);
    SolveMemo& memo = solve_memo_[static_cast<std::size_t>(chip)];
    if (memo.valid && memo.key == key) {
        ++cache_.stats().solve_reuse;
        return memo.alloc;
    }
    sched::CoreAllocation alloc = solve();
    memo.key = std::move(key);
    memo.alloc = alloc;
    memo.valid = true;
    return alloc;
}

void SynpaPolicy::on_task_replaced(int old_task_id, int new_task_id) {
    // transfer() bumps both epochs, so cached costs involving either id
    // recompute; the retired id's cache row is dropped outright.
    estimator_.transfer(old_task_id, new_task_id);
    cache_.forget(old_task_id);
}

void SynpaPolicy::on_task_finished(int task_id) {
    estimator_.forget(task_id);  // bumps the epoch
    cache_.forget(task_id);
}

}  // namespace synpa::core
