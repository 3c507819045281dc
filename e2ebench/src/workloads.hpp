// The three benchmark workloads, driven through the simulator's public
// drivers: sched::ThreadManager (paper-closed), scenario::ScenarioRunner
// (open-256-smt4) and fleet::FleetRunner (fleet-slo).  Every simulator and
// policy knob is pinned here, so no SYNPA_* default can change what runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "core/weight_cache.hpp"
#include "obs/trace.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class PolicyKind { kLinux, kSynpa };

/// Which public driver runs the workload.
enum class Driver { kClosed, kOpen, kFleet };

/// Host-side probes a traced run attaches (both off in measured runs).
struct Probe {
    synpa::obs::Tracer* tracer = nullptr;
    bool time_decide = false;  ///< wrap the policy in the timing decorator
};

/// Host seconds spent in each set-up function of one set-up.
struct SetupTimes {
    double train_s = 0.0;        ///< model::Trainer::train
    double prepare_s = 0.0;      ///< workloads::prepare_workload
    double build_trace_s = 0.0;  ///< scenario::build_trace
    double construct_s = 0.0;    ///< platform / policy / fleet construction
    double total() const noexcept { return train_s + prepare_s + build_trace_s + construct_s; }
};

/// Everything one run produced: the simulated outputs (deterministic), the
/// host timings (not), and the correctness checks that failed.
struct RunOut {
    std::string signature;  ///< exact-bit signature of the simulated result
    std::uint64_t planned = 0;
    std::uint64_t completed = 0;
    std::uint64_t quanta = 0;
    double wall_s = 0.0;
    std::vector<double> quantum_ms;  ///< host time between on_quantum calls

    /// Closed: the workload turnaround (slowest original task, paper §V-B).
    /// Open and fleet: mean task turnaround, finish - arrival.
    double turnaround = 0.0;
    std::vector<double> slowdowns;  ///< completed tasks
    double goodput = 0.0;           ///< deadline-met completions per quantum
    std::uint64_t lc_planned = 0;
    std::uint64_t lc_violations = 0;  ///< missed deadline or never completed

    std::uint64_t migrations = 0;
    std::uint64_t cross_chip = 0;
    std::uint64_t admissions = 0;
    std::uint64_t preemptions = 0;
    double queue_mean = 0.0;  ///< mean queue wait of completed tasks, quanta

    std::vector<double> decide_ms;  ///< decorator timings (time_decide only)
    std::uint64_t reallocate_calls = 0;
    synpa::core::WeightCache::Stats cache{};

    std::vector<std::string> failures;
};

class Workload {
public:
    virtual ~Workload() = default;
    virtual const char* name() const = 0;
    virtual Shape shape() const = 0;
    virtual Driver driver() const = 0;
    /// Builds the run inputs from the seed (training, profiling, trace
    /// sampling) and constructs one run's platform, policy and driver.
    virtual SetupTimes setup(std::uint64_t seed) = 0;
    /// One complete run from fresh simulator state.
    virtual RunOut run(PolicyKind policy, const Probe& probe) = 0;
};

/// Known names: paper-closed, open-256-smt4, fleet-slo.  Null when unknown.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace e2e
