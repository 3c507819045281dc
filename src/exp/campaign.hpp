// The parallel campaign engine.
//
// The paper's evaluation (Figures 5-9, Tables III-V) is a grid of
// (config x workload x policy x repetition) simulator runs.  A Campaign
// declares that grid once — which configs, which workloads (explicit or
// the paper's 20), which policies, which shared artifacts (trained model,
// suite characterization, phase calibration) — and the CampaignRunner
// executes every repetition on the GridEngine (exp/grid_engine.hpp).
//
// Determinism: each repetition derives its RNG streams purely from
// (methodology seed, workload name, rep), and the engine releases finished
// cells in grid order, so campaign results are bit-identical for threads=1
// and threads=N.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exp/grid_engine.hpp"
#include "sched/policy.hpp"
#include "workloads/methodology.hpp"

namespace synpa::exp {

/// One policy column of the grid.  The factory runs once per repetition and
/// receives the config's artifacts plus the deterministic repetition seed.
struct PolicySpec {
    std::string label;
    std::function<std::unique_ptr<sched::AllocationPolicy>(const ArtifactSet&,
                                                           std::uint64_t rep_seed)>
        make;
    /// Policy retrains its model online (sched::OnlinePolicy); flows into
    /// result rows and the CSV `adaptive` column.
    bool adaptive = false;
};

/// Adapts a methodology-level PolicyFactory (no artifact inputs).
PolicySpec policy(std::string label, workloads::PolicyFactory factory);

/// A grid column for a registered policy name (sched/registry.hpp): the
/// factory feeds the config's trained model (when resolved) and the
/// repetition seed into sched::make_policy.  Throws for unknown names.
PolicySpec registry_policy(std::string name);

/// A grid's policy axis: the explicit `columns`, then one registry_policy
/// column per `names` entry (the `policy=` axis).
std::vector<PolicySpec> policy_axis(std::vector<PolicySpec> columns,
                                    std::span<const std::string> names);

/// Declarative description of an evaluation grid.
struct Campaign {
    std::string name;

    /// Grid axes.  `configs` must be non-empty; `workloads` lists explicit
    /// specs, or set `use_paper_workloads` to expand the paper's twenty
    /// evaluation workloads per config (from its suite characterization).
    std::vector<uarch::SimConfig> configs;
    std::vector<workloads::WorkloadSpec> workloads;
    bool use_paper_workloads = false;
    std::vector<PolicySpec> policies;
    /// Registered policy names appended to `policies` as additional grid
    /// columns (expanded through registry_policy); lets campaigns declare a
    /// `policy=` axis by name with no compile-time wiring.
    std::vector<std::string> policy_names;

    /// Repetitions, seeds, profiling windows, CV discard (paper §V-B).
    workloads::MethodologyOptions methodology;

    /// Shared artifacts.  Training and characterization are resolved once
    /// per config through the ArtifactCache; calibration fills in the
    /// suite's oracle phase categories (needed by OraclePolicy).
    bool needs_training = false;
    model::TrainerOptions trainer;
    std::vector<std::string> training_apps;  ///< empty = workloads::training_apps()
    bool needs_characterizations = false;
    std::uint64_t characterization_quanta = 60;
    bool needs_calibration = false;
    std::uint64_t calibration_quanta = 30;
};

/// One finished grid point.
struct CellResult {
    std::size_t config_index = 0;
    std::size_t workload_index = 0;
    std::size_t policy_index = 0;
    int chips = 0;     ///< platform shape of the cell's config
    int cores = 0;     ///< cores per chip
    int smt_ways = 0;  ///< SMT width of the cell's config
    std::string workload;
    std::string policy;    ///< PolicySpec label
    bool adaptive = false; ///< policy column retrains its model online
    workloads::RepeatedResult result;
};

/// Streaming consumer of finished cells (grid order: config-major, then
/// workload, then policy).
using Aggregator = CellSink<CellResult>;

struct CampaignResult : GridResult<CellResult> {
    /// First cell matching (workload, policy label); null when absent.
    const CellResult* find(const std::string& workload, const std::string& policy) const;
};

class CampaignRunner {
public:
    using Options = GridOptions;

    /// `cache` defaults to ArtifactCache::global(); pass a local cache to
    /// isolate artifact reuse (tests do).
    explicit CampaignRunner(Options opts = {}, ArtifactCache* cache = nullptr);

    /// Executes the whole grid; streams cells into `aggregators` (in grid
    /// order) and returns them all.  The first exception thrown by any
    /// repetition is rethrown here after the grid drains.
    CampaignResult run(const Campaign& campaign,
                       const std::vector<Aggregator*>& aggregators = {});

private:
    GridEngine engine_;
};

/// The paper's paired speedups/deltas for one workload's (baseline,
/// treatment) metrics — the single definition shared by compare_to_baseline
/// and PairedSpeedupAggregator.
workloads::PolicyComparison paired_comparison(const std::string& workload,
                                              const metrics::WorkloadMetrics& baseline,
                                              const metrics::WorkloadMetrics& treatment);

/// Per-workload paired comparison of two policy columns (the shape the
/// figure benches consume).  Assumes a single-config campaign.
std::vector<workloads::PolicyComparison> compare_to_baseline(
    const CampaignResult& result, std::size_t baseline_policy = 0,
    std::size_t treatment_policy = 1);

}  // namespace synpa::exp
