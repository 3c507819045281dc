// The fleet front end: drives a Fleet of N serving nodes through an
// open-system ScenarioTrace, implementing admission, fleet-policy node
// placement, priority preemption and SLO bookkeeping.
//
// Per-quantum cycle (the coordinator thread owns everything except node
// stepping):
//   1. arrivals   — planned tasks whose quantum came move into the queue,
//   2. admission  — queue drains in (priority desc, arrival, plan) order;
//                   each admitted item's node is chosen by the fleet policy
//                   over every node with a free context,
//   3. preemption — a queued item that found no free context may demote the
//                   fleet's lowest-priority resident (strictly below its own
//                   priority) back to the queue and take its place,
//   4. step       — every node runs one quantum (concurrently over the
//                   fleet thread pool; nodes share no mutable state),
//   5. fold       — the coordinator collects retirements, metrics and trace
//                   events in ascending node order.
//
// Determinism contract: steps 1-3 and 5 are serial and ordered, step 4 is
// pure per-node work, so a fleet run is bit-identical at every
// (fleet threads x SYNPA_SIM_THREADS) combination — pinned by
// tests/test_fleet.cpp the way test_parallel_engine.cpp pins a node.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fleet/fleet.hpp"
#include "fleet/policy.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "uarch/sim_config.hpp"

namespace synpa::fleet {

/// Cluster-wide conservation counters, exposed to the per-quantum hook so
/// the property suite can check invariants while the run is in flight.
struct FleetProgress {
    std::uint64_t quantum = 0;
    std::uint64_t arrived = 0;      ///< plan tasks that entered the queue so far
    std::uint64_t admissions = 0;   ///< admission events (re-admissions count)
    std::uint64_t preemptions = 0;  ///< demotions back to the queue
    std::uint64_t requeues = 0;     ///< queue re-entries of preempted items
    std::uint64_t retirements = 0;  ///< tasks that finished for good
    int in_flight = 0;              ///< residents across every node
    int queued = 0;                 ///< items waiting in the queue
};

/// Everything known about one planned task after the run.
struct FleetTaskRecord {
    std::size_t plan_index = 0;
    int task_id = -1;
    std::string app_name;
    scenario::SloClass slo = scenario::SloClass::kBatch;
    int priority = 0;
    std::uint64_t arrival_quantum = 0;
    double deadline_quantum = 0.0;
    std::uint64_t service_insts = 0;
    double isolated_ipc = 0.0;

    std::uint64_t admit_quantum = 0;  ///< first admission
    int node_id = -1;                 ///< node it retired on (last node seen)
    double finish_quantum = 0.0;
    double turnaround_quanta = 0.0;   ///< finish - arrival
    double queue_quanta = 0.0;        ///< total queue wait (incl. re-queues)
    double slowdown = 0.0;            ///< turnaround / isolated service time
    std::uint64_t preemptions = 0;
    bool completed = false;
    bool deadline_met = false;        ///< completed && finish <= deadline
};

/// One per-quantum timeline sample (optional; record_timeline).
struct FleetQuantumSample {
    std::uint64_t quantum = 0;
    int live = 0;
    int queued = 0;
    double utilization = 0.0;     ///< live / total capacity
    double aggregate_ipc = 0.0;
};

struct FleetResult {
    std::string scenario;
    std::string fleet_policy;
    std::string node_policy;
    int nodes = 0;
    std::uint64_t quanta_executed = 0;
    std::uint64_t admissions = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;             ///< node-local rebind moves
    std::uint64_t cross_chip_migrations = 0;
    std::size_t completed_tasks = 0;
    bool completed = false;  ///< every planned task retired before the cap
    std::vector<FleetTaskRecord> tasks;       ///< plan order
    std::vector<FleetQuantumSample> timeline; ///< empty unless requested
};

struct FleetOptions {
    int nodes = 4;
    uarch::SimConfig node_config{};
    std::string node_policy = "synpa";
    std::string fleet_policy = "fleet-least-loaded";
    sched::PolicyConfig policy_config{};
    std::uint64_t fleet_seed = 1;  ///< seed for randomized fleet policies
    /// Allow latency-critical arrivals to demote lower-priority residents.
    bool preemption = true;
    /// Host threads stepping nodes concurrently (0 or 1 = serial
    /// coordinator; at most common::kMaxThreads).
    std::size_t threads = 1;
    std::uint64_t max_quanta = 50'000;  ///< safety cap
    bool record_timeline = false;
    /// Fleet-level flight recorder (admissions, retirements, preemptions,
    /// quantum stats).  Only the coordinator emits — never a node shard —
    /// so traced fleet runs stay bit-identical to untraced ones.
    obs::Tracer* tracer = nullptr;
    /// Property-suite hook, called after every quantum's fold.
    std::function<void(const Fleet&, const FleetProgress&)> on_quantum{};
};

class FleetRunner {
public:
    /// Throws std::invalid_argument when the trace is not arrival-sorted,
    /// max_quanta is 0, threads is above common::kMaxThreads (naming
    /// FleetOptions::threads, before any pool is built) or a policy name is
    /// unknown.
    FleetRunner(const scenario::ScenarioTrace& trace, FleetOptions opts);

    FleetResult run();

    const Fleet& fleet() const noexcept { return fleet_; }

private:
    void enqueue_arrivals(std::uint64_t quantum);
    void admit_and_preempt(std::uint64_t quantum);

    const scenario::ScenarioTrace& trace_;
    FleetOptions opts_;
    Fleet fleet_;
    std::unique_ptr<FleetPolicy> policy_;
    std::unique_ptr<common::ThreadPool> pool_;  ///< null when threads <= 1
    obs::Tracer* tracer_ = nullptr;

    std::vector<WorkItem> queue_;  ///< waiting items (sorted at admission)
    std::size_t next_plan_ = 0;
    FleetProgress progress_{};
};

}  // namespace synpa::fleet
