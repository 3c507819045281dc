// Memoization of the expensive shared inputs of an evaluation campaign.
//
// Every figure/table bench needs the same three artifacts before it can run
// a single cell: a trained interference model (~minutes of all-pairs SMT
// runs), the isolated characterization of the 28-app suite, and per-slot
// target profiles for each workload repetition.  All three are pure
// functions of (SimConfig, options, seed), so the cache keys them by a
// deterministic fingerprint and computes each at most once per process —
// a campaign trains once no matter how many benches' worth of cells it
// runs, and concurrent requesters of the same artifact block on the first
// computation instead of duplicating it.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/trainer.hpp"
#include "scenario/scenario.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/groups.hpp"
#include "workloads/methodology.hpp"

namespace synpa::exp {

class ArtifactCache {
public:
    /// Build counters (misses) and lookup hits, for tests and perf reports.
    struct Stats {
        std::size_t trainer_runs = 0;
        std::size_t characterization_runs = 0;
        std::size_t prepared_builds = 0;
        std::size_t scenario_builds = 0;
        std::size_t hits = 0;
    };

    ArtifactCache() = default;
    ArtifactCache(const ArtifactCache&) = delete;
    ArtifactCache& operator=(const ArtifactCache&) = delete;

    /// Trained model for (cfg, opts, app set); the trainer runs exactly once
    /// per distinct key, even under concurrent requests.
    std::shared_ptr<const model::TrainingResult> training(
        const uarch::SimConfig& cfg, const model::TrainerOptions& opts,
        const std::vector<std::string>& app_names);

    /// Isolated suite characterization (Figure 4 / Table III input).
    std::shared_ptr<const std::vector<workloads::AppCharacterization>> characterizations(
        const uarch::SimConfig& cfg, std::uint64_t quanta, std::uint64_t seed);

    /// A workload with per-slot targets/isolated IPCs for one repetition.
    std::shared_ptr<const workloads::PreparedWorkload> prepared(
        const workloads::WorkloadSpec& spec, const uarch::SimConfig& cfg,
        const workloads::MethodologyOptions& opts, int rep);

    /// A sampled dynamic scenario (arrivals + per-task service demands).
    /// Keyed by (config fingerprint, scenario_fingerprint(spec)) — the
    /// fingerprint covers *every* spec field including the arrival seed, so
    /// two scenarios differing only in seed never alias, while every policy
    /// column of a scenario grid shares one build.
    std::shared_ptr<const scenario::ScenarioTrace> scenario_trace(
        const scenario::ScenarioSpec& spec, const uarch::SimConfig& cfg);

    Stats stats() const;

    /// Drops every memoized artifact (counters are kept).
    void clear();

    /// Process-wide instance shared by the methodology wrappers and benches.
    static ArtifactCache& global();

private:
    template <class T>
    // synpa-lint: fork-ok(a once-only memo slot: later requesters wait on the first build)
    using Slot = std::shared_future<std::shared_ptr<const T>>;

    /// Returns the artifact for `key`, computing it via `build` exactly once.
    template <class T, class Build>
    std::shared_ptr<const T> memoize(std::unordered_map<std::uint64_t, Slot<T>>& map,
                                     std::uint64_t key, std::size_t Stats::*counter,
                                     Build&& build);

    mutable std::mutex mutex_;
    Stats stats_;
    std::unordered_map<std::uint64_t, Slot<model::TrainingResult>> training_;
    std::unordered_map<std::uint64_t, Slot<std::vector<workloads::AppCharacterization>>>
        characterizations_;
    std::unordered_map<std::uint64_t, Slot<workloads::PreparedWorkload>> prepared_;
    std::unordered_map<std::uint64_t, Slot<scenario::ScenarioTrace>> scenarios_;
};

}  // namespace synpa::exp
