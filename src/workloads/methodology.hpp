// Measurement methodology (paper §V-B).
//
//  * Targets: each workload slot's application is first run in isolation
//    for a fixed profiling window (the paper's 60 seconds; here a
//    configurable quantum count) and its retired instructions become the
//    slot's target.  The profiling run also yields the isolated IPC used
//    for individual speedups.
//  * Runs: the manager executes the 8-task workload under a policy;
//    finished tasks are relaunched to hold load constant; the run ends when
//    the slowest original task reaches its target.
//  * Repetitions: each (workload, policy) pair is run `reps` times with
//    different seeds; turnaround samples are outlier-discarded until their
//    coefficient of variation is below the paper's 5% bound, then averaged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "sched/policy.hpp"
#include "sched/thread_manager.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/workload.hpp"

namespace synpa::obs {
class Tracer;
}  // namespace synpa::obs

namespace synpa::workloads {

struct MethodologyOptions {
    std::uint64_t target_isolated_quanta = 120;  ///< the "60 s" profiling window
    int reps = 3;
    double cv_limit = 0.05;  ///< paper: discard until CV < 5%
    std::uint64_t seed = 42;
    std::uint64_t max_quanta = 20'000;
    bool record_traces = true;
    /// Parallelism across repetitions/workloads; 0 = hardware concurrency,
    /// at most common::kMaxThreads.
    std::size_t threads = 0;
    /// Flight recorder handed to the run's ThreadManager (not owned; may be
    /// null).  Campaign drivers derive a per-cell tracer from SYNPA_TRACE_*
    /// instead of sharing one across parallel cells.
    obs::Tracer* tracer = nullptr;

    /// Throws std::invalid_argument naming `MethodologyOptions::<field>`
    /// for reps < 1, a target_isolated_quanta or max_quanta that is zero or
    /// a wrapped negative, a NaN or negative cv_limit (an infinite one
    /// never discards), or threads above common::kMaxThreads (a wrapped
    /// negative included); returns *this.  prepare_workload,
    /// run_workload_once, run_workload and exp::CampaignRunner::run call it
    /// before any simulation, and run_workload before it builds its thread
    /// pool.
    const MethodologyOptions& validate() const;
};

/// Reads SYNPA_BENCH_THREADS (unset: 0, hardware concurrency) for the
/// benches' campaign pools; throws std::invalid_argument naming the
/// variable for a negative value or one above common::kMaxThreads, before
/// any pool is built.
std::size_t bench_threads_from_env();

/// Fresh policy per repetition (policies hold run state).
using PolicyFactory =
    std::function<std::unique_ptr<sched::AllocationPolicy>(std::uint64_t rep_seed)>;

/// A workload with its per-slot task specs (targets + isolated IPCs) filled.
struct PreparedWorkload {
    WorkloadSpec spec;
    std::vector<sched::TaskSpec> tasks;
};

/// Profiles each slot in isolation (with the slot's behaviour seed) and
/// fills in its target instructions and isolated IPC.
PreparedWorkload prepare_workload(const WorkloadSpec& spec, const uarch::SimConfig& cfg,
                                  const MethodologyOptions& opts, int rep);

/// One complete run of a prepared workload under a policy.
sched::RunResult run_workload_once(const PreparedWorkload& prepared,
                                   const uarch::SimConfig& cfg,
                                   sched::AllocationPolicy& policy,
                                   const MethodologyOptions& opts);

/// Aggregated result across repetitions.
struct RepeatedResult {
    std::string workload;
    std::string policy;
    std::vector<double> turnaround_samples;  ///< retained after outlier discard
    metrics::WorkloadMetrics mean_metrics;   ///< averaged over retained reps
    sched::RunResult exemplar;               ///< first repetition (carries traces)
};

/// Runs `reps` repetitions of (spec, policy), applies the CV-based outlier
/// discard to turnaround samples, and averages the metrics.  Implemented as
/// a thin wrapper over exp::CampaignRunner (a one-cell campaign), so the
/// repetitions run in parallel and prepared workloads are memoized in
/// exp::ArtifactCache::global().
RepeatedResult run_workload(const WorkloadSpec& spec, const uarch::SimConfig& cfg,
                            const PolicyFactory& make_policy,
                            const MethodologyOptions& opts);

/// One workload's paired results under a baseline and a treatment policy
/// (exp::compare_to_baseline, exp::PairedSpeedupAggregator).
struct PolicyComparison {
    std::string workload;
    metrics::WorkloadMetrics baseline;
    metrics::WorkloadMetrics treatment;
    double tt_speedup = 0.0;
    double ipc_speedup = 0.0;
    double fairness_delta = 0.0;
};

}  // namespace synpa::workloads
