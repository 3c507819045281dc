// Scenario-grid campaigns: the open-system counterpart of exp::Campaign.
//
// A ScenarioCampaign declares a (config x scenario x policy x repetition)
// grid of dynamic-workload runs; ScenarioGridRunner executes every
// repetition on the GridEngine with the same guarantees as the classic
// campaign — deterministic per-rep seeds, scenario traces memoized in the
// ArtifactCache (shared across policy columns), and finished cells streamed
// to aggregators in grid order, so results are bit-identical for threads=1
// and threads=N.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace synpa::exp {

/// Declarative description of a scenario evaluation grid.  Policy columns
/// reuse exp::PolicySpec, so the classic benches' policy definitions work
/// unchanged.
struct ScenarioCampaign {
    std::string name;
    std::vector<uarch::SimConfig> configs;
    std::vector<scenario::ScenarioSpec> scenarios;
    std::vector<PolicySpec> policies;
    /// Registered policy names appended to `policies` as additional grid
    /// columns (the `policy=` axis; see exp::registry_policy).
    std::vector<std::string> policy_names;

    int reps = 1;  ///< repetitions re-sample arrivals (derived seeds)
    std::uint64_t max_quanta = 20'000;
    bool record_timelines = true;

    /// Shared artifacts (resolved per config through the ArtifactCache).
    bool needs_training = false;
    model::TrainerOptions trainer;
    std::vector<std::string> training_apps;  ///< empty = workloads::training_apps()
};

/// Aggregate summary of one grid cell across its repetitions.
struct ScenarioSummary {
    std::size_t planned_tasks = 0;
    std::size_t completed_tasks = 0;
    bool all_completed = true;
    double mean_turnaround = 0.0;
    double p50_turnaround = 0.0;
    double p95_turnaround = 0.0;  ///< tail latency of turnaround
    double p99_turnaround = 0.0;
    double mean_queue = 0.0;       ///< quanta spent waiting for a hardware thread
    double mean_slowdown = 0.0;    ///< per-task slowdown vs. isolated execution
    double mean_utilization = 0.0; ///< bound hardware threads / capacity
    double throughput = 0.0;       ///< completed tasks per executed quantum
    double migrations_per_quantum = 0.0;
    double cross_chip_per_quantum = 0.0;  ///< cross-chip subset of migrations

    /// Online adaptation across the repetitions (sched::OnlinePolicy).
    bool adaptive = false;
    double phase_changes_per_run = 0.0;
    double model_refits_per_run = 0.0;
};

ScenarioSummary summarize_runs(std::span<const scenario::ScenarioResult> runs);

/// One finished grid point.
struct ScenarioCellResult {
    std::size_t config_index = 0;
    std::size_t scenario_index = 0;
    std::size_t policy_index = 0;
    int chips = 0;     ///< platform shape of the cell's config
    int cores = 0;     ///< cores per chip
    int smt_ways = 0;  ///< SMT width of the cell's config
    std::string scenario;
    std::string policy;    ///< PolicySpec label
    bool adaptive = false; ///< policy column retrains its model online
    std::vector<scenario::ScenarioResult> runs;  ///< one per repetition
    ScenarioSummary summary;
};

/// Streaming consumer of finished scenario cells (grid order, exactly once).
using ScenarioAggregator = CellSink<ScenarioCellResult>;

struct ScenarioGridResult : GridResult<ScenarioCellResult> {
    const ScenarioCellResult* find(const std::string& scenario,
                                   const std::string& policy) const;
};

class ScenarioGridRunner {
public:
    using Options = GridOptions;

    explicit ScenarioGridRunner(Options opts = {}, ArtifactCache* cache = nullptr);

    ScenarioGridResult run(const ScenarioCampaign& campaign,
                           const std::vector<ScenarioAggregator*>& aggregators = {});

private:
    GridEngine engine_;
};

// ---------------------------------------------------------- aggregators --

/// One CSV row per cell: grid indices, labels, and the full summary.
class ScenarioCsvAggregator final : public ScenarioAggregator {
public:
    explicit ScenarioCsvAggregator(std::ostream& os);
    void on_cell(const ScenarioCellResult& cell) override;
    void finish() override;

private:
    std::ostream& os_;
    bool header_written_ = false;
};

}  // namespace synpa::exp
