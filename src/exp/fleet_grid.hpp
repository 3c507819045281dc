// Fleet-grid campaigns: the cluster-scale counterpart of the scenario grid.
//
// A FleetCampaign declares a (config x scenario x fleet-policy x repetition)
// grid of whole-cluster runs; FleetGridRunner executes every repetition on
// the GridEngine with the scenario grid's guarantees — deterministic per-rep
// seeds, traces and training memoized in the ArtifactCache, per-rep trace
// files, and finished cells streamed to aggregators in grid order, so
// results are bit-identical for threads=1 and threads=N.  Each cell's
// FleetRunner keeps its own node-stepping threads capped under the grid
// pool (common::nested_sim_threads), like grid cells cap their chip
// shards.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "fleet/metrics.hpp"
#include "fleet/runner.hpp"
#include "scenario/scenario.hpp"

namespace synpa::exp {

struct FleetCampaign {
    std::string name;
    std::vector<uarch::SimConfig> node_configs;  ///< per-node platform shapes
    std::vector<scenario::ScenarioSpec> scenarios;
    /// Registered fleet-policy names (fleet::registered_fleet_policies()).
    std::vector<std::string> fleet_policies;
    std::string node_policy = "synpa";
    int nodes = 4;

    int reps = 1;  ///< repetitions re-sample arrivals (derived seeds)
    std::uint64_t max_quanta = 50'000;
    bool preemption = true;
    /// Node-stepping threads inside each cell's FleetRunner (capped under
    /// the grid pool via common::nested_sim_threads).
    std::size_t fleet_threads = 1;
    bool record_timelines = false;

    /// Shared artifacts (needed by model-based node policies and the
    /// interference-aware fleet policy; resolved per config).
    bool needs_training = false;
    model::TrainerOptions trainer;
    std::vector<std::string> training_apps;  ///< empty = workloads::training_apps()
    /// Pre-supplied interference model used when needs_training is false
    /// (e.g. the paper's Table IV coefficients) — lets acceptance benches
    /// skip the training phase without losing model-based policies.
    std::shared_ptr<const model::InterferenceModel> model;

    /// Throws std::invalid_argument for an empty config, scenario or
    /// fleet-policy axis, or naming `FleetCampaign::fleet_threads` above
    /// common::kMaxThreads; returns *this.
    /// FleetGridRunner::run calls it before any repetition runs.
    const FleetCampaign& validate() const;
};

/// One finished grid point.
struct FleetCellResult {
    std::size_t config_index = 0;
    std::size_t scenario_index = 0;
    std::size_t policy_index = 0;
    int nodes = 0;
    int chips = 0;     ///< per-node chips
    int cores = 0;     ///< per-node cores per chip
    int smt_ways = 0;
    std::string scenario;
    std::string fleet_policy;
    std::string node_policy;
    std::vector<fleet::FleetResult> runs;  ///< one per repetition
    fleet::FleetSummary summary;           ///< pooled across repetitions
};

/// Streaming consumer of finished fleet cells (grid order, exactly once).
using FleetAggregator = CellSink<FleetCellResult>;

struct FleetGridResult : GridResult<FleetCellResult> {
    const FleetCellResult* find(const std::string& scenario,
                                const std::string& fleet_policy) const;
};

class FleetGridRunner {
public:
    using Options = GridOptions;

    explicit FleetGridRunner(Options opts = {}, ArtifactCache* cache = nullptr);

    FleetGridResult run(const FleetCampaign& campaign,
                        const std::vector<FleetAggregator*>& aggregators = {});

private:
    GridEngine engine_;
};

/// One CSV row per cell: grid indices, labels, and the pooled SLO summary.
/// The leading columns are positional for the CI schema check; keep new
/// columns at the tail.
class FleetCsvAggregator final : public FleetAggregator {
public:
    explicit FleetCsvAggregator(std::ostream& os);
    void on_cell(const FleetCellResult& cell) override;
    void finish() override;

private:
    std::ostream& os_;
    bool header_written_ = false;
};

}  // namespace synpa::exp
