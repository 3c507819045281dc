// Dynamic workload scenarios: open-system arrivals and variable load.
//
// The paper's evaluation (§V) is a closed system — exactly 2 threads per
// core, finished tasks relaunched instantly.  A ScenarioSpec generalizes
// that to an open system: an arrival process (Poisson, periodic bursts, or
// an explicit trace) delivers tasks over time, a piecewise load profile
// scales the arrival rate, and every task carries its own service demand
// (target instructions from isolated profiling).  build_trace samples the
// process into a deterministic ScenarioTrace — the pure function of
// (spec, config) that the ArtifactCache memoizes — and ScenarioRunner
// (runner.hpp) executes it.  The closed system itself is
// sched::ThreadManager's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "uarch/sim_config.hpp"

namespace synpa::scenario {

/// scenario_fingerprint hashes the values; 0 was the retired closed mode.
enum class ArrivalProcess {
    kPoisson = 1,  ///< independent arrivals at `arrival_rate` per quantum
    kBurst = 2,    ///< `burst_size` arrivals every `burst_period` quanta
    kTrace = 3,    ///< explicit (quantum, app) arrival list
};

const char* arrival_process_name(ArrivalProcess p) noexcept;

/// Request class of a task in the fleet serving layer (src/fleet/): the
/// contract it arrives with, not something a policy may change.
enum class SloClass {
    kBatch = 0,           ///< throughput-oriented; generous deadline, preemptible
    kLatencyCritical = 1, ///< tail-latency-oriented; tight deadline, may preempt
};

/// One explicit arrival of a kTrace scenario.
struct TraceArrival {
    std::uint64_t quantum = 0;
    std::string app_name;
};

/// Piecewise-constant load profile: from `start_quantum` on, the arrival
/// rate is multiplied by `rate_scale` (until the next phase starts).
struct LoadPhase {
    std::uint64_t start_quantum = 0;
    double rate_scale = 1.0;
};

struct ScenarioSpec {
    std::string name;
    ArrivalProcess process = ArrivalProcess::kPoisson;

    /// Applications drawn uniformly per arrival (kPoisson/kBurst and the
    /// initial population).  kTrace names its apps explicitly.
    std::vector<std::string> app_mix;

    std::uint64_t initial_tasks = 0;  ///< tasks already in the system at quantum 0
    double arrival_rate = 0.0;        ///< kPoisson: mean arrivals per quantum
    std::vector<LoadPhase> load_profile;  ///< empty = constant rate

    std::uint64_t burst_period = 0;  ///< kBurst: quanta between bursts
    std::uint64_t burst_size = 0;    ///< kBurst: arrivals per burst

    std::vector<TraceArrival> trace;  ///< kTrace arrivals (any order)

    /// Service demand: each task's target is its application's isolated
    /// instruction count over `service_quanta`, jittered per task by a
    /// uniform factor in [1 - service_jitter, 1 + service_jitter].
    std::uint64_t service_quanta = 30;
    double service_jitter = 0.3;

    std::uint64_t horizon_quanta = 200;  ///< arrivals stop after this quantum
    std::uint64_t seed = 42;             ///< drives arrivals, app draws, jitter

    // ------------------------------------------------- SLO / fleet fields --
    // Request-class sampling for the fleet serving layer.  Each arrival is
    // latency-critical with probability lc_fraction (drawn from a dedicated
    // RNG stream, so legacy traces are bit-identical at lc_fraction = 0).  A
    // task's deadline is arrival + slack * its isolated service time, using
    // the slack of its class.  Single-node ScenarioRunner ignores all of
    // this; only fleet::FleetRunner enforces deadlines and priorities.
    double lc_fraction = 0.0;        ///< probability an arrival is latency-critical
    double lc_deadline_slack = 4.0;  ///< LC deadline slack (x isolated quanta)
    double batch_deadline_slack = 24.0;  ///< batch deadline slack
    int lc_priority = 10;   ///< admission priority of LC arrivals (higher wins)
    int batch_priority = 0; ///< admission priority of batch arrivals
};

/// One sampled task of a scenario: when it arrives, what it runs, and how
/// much isolated work it must complete.
struct PlannedTask {
    std::uint64_t arrival_quantum = 0;
    std::string app_name;
    std::uint64_t seed = 1;           ///< behaviour seed of the instance
    std::uint64_t service_insts = 0;  ///< finish line (retired instructions)
    double isolated_ipc = 0.0;        ///< from the app's isolated service profile

    // SLO contract (consumed by the fleet layer; see ScenarioSpec).
    SloClass slo = SloClass::kBatch;
    int priority = 0;               ///< admission priority (class default)
    double deadline_quantum = 0.0;  ///< absolute deadline; 0 = no deadline

    /// Isolated service time in quanta: the finish line at the isolated
    /// IPC (0 when the task has no isolated IPC).
    double isolated_quanta(std::uint64_t cycles_per_quantum) const noexcept {
        return isolated_ipc > 0.0 ? static_cast<double>(service_insts) /
                                        (isolated_ipc * static_cast<double>(cycles_per_quantum))
                                  : 0.0;
    }
    /// `turnaround_quanta` over the isolated service time (0 without one).
    double slowdown(double turnaround_quanta, std::uint64_t cycles_per_quantum) const noexcept {
        const double isolated = isolated_quanta(cycles_per_quantum);
        return isolated > 0.0 ? turnaround_quanta / isolated : 0.0;
    }
};

/// A fully sampled scenario, ready to run.  Tasks are sorted by arrival
/// quantum (stable), which is also the admission (FIFO) order.
struct ScenarioTrace {
    ScenarioSpec spec;
    std::vector<PlannedTask> tasks;

    /// Whether the tasks are in non-decreasing arrival order (the drivers'
    /// FIFO admission contract).
    bool arrival_sorted() const {
        return std::is_sorted(tasks.begin(), tasks.end(),
                              [](const PlannedTask& a, const PlannedTask& b) {
                                  return a.arrival_quantum < b.arrival_quantum;
                              });
    }
};

/// Samples the arrival process, draws each task's application and service
/// jitter, and profiles each distinct application once in isolation for the
/// service demand baseline.  Deterministic in (spec, cfg).
ScenarioTrace build_trace(const ScenarioSpec& spec, const uarch::SimConfig& cfg);

/// Deterministic fingerprint over every spec field that can change the
/// sampled trace or the run — including the arrival seed — used by
/// exp::ArtifactCache to key memoized traces (two scenarios differing only
/// in seed must not alias).
std::uint64_t scenario_fingerprint(const ScenarioSpec& spec) noexcept;

}  // namespace synpa::scenario
