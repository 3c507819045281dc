// scenario_replay — watch SYNPA ride a bursty open system:
//   1. build a burst-arrival scenario (waves of tasks every 40 quanta, with
//      a mid-run load surge),
//   2. run it under a policy picked *by name* from the registry
//      (SYNPA_REPLAY_POLICY, default "synpa"; paper Table IV coefficients,
//      so no training wait) on a 4-core SMT2 chip,
//   3. replay the run as a per-quantum timeline — utilization bars,
//      arrivals, departures, migrations — then print the per-task ledger.
//
// Build & run:  ./build/examples/scenario_replay
#include <algorithm>
#include <iostream>
#include <string>

#include <memory>

#include "common/config.hpp"
#include "common/table.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "uarch/platform.hpp"

int main() {
    using namespace synpa;

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();

    // 1. Waves of mixed work: a burst of 5 tasks every 40 quanta, doubled
    //    between quanta 80 and 160 (the load profile scales burst size).
    scenario::ScenarioSpec spec;
    spec.name = "burst-replay";
    spec.process = scenario::ArrivalProcess::kBurst;
    spec.app_mix = {"mcf", "bwaves", "leela_r", "gobmk", "nab_r", "exchange2_r"};
    spec.initial_tasks = 6;
    spec.burst_period = 40;
    spec.burst_size = 5;
    spec.load_profile = {{0, 1.0}, {80, 2.0}, {160, 1.0}};
    spec.service_quanta = 25;
    spec.horizon_quanta = 200;
    spec.seed = 7;

    std::cout << "sampling scenario '" << spec.name << "' ("
              << scenario::arrival_process_name(spec.process) << " arrivals)...\n";
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    std::cout << trace.tasks.size() << " tasks planned over " << spec.horizon_quanta
              << " quanta\n\n";

    // 2. Run it under the chosen registered policy.  The partial-allocation
    //    path kicks in whenever the live set is not exactly 2 x cores.
    uarch::Platform platform(cfg);
    const std::string policy_name = common::env_string("SYNPA_REPLAY_POLICY", "synpa");
    sched::PolicyConfig policy_config;
    policy_config.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    const std::unique_ptr<sched::AllocationPolicy> policy =
        sched::make_policy(policy_name, policy_config);
    std::cout << "policy: " << policy->name() << " (registry \"" << policy_name
              << "\")\n";
    // Flight recorder: SYNPA_TRACE=1 (plus SYNPA_TRACE_FILE=out.json for a
    // Chrome-trace export) records quantum boundaries, migrations,
    // admissions/retirements and policy latency alongside the replay.
    obs::Tracer tracer;
    scenario::ScenarioRunner::Options run_opts;
    run_opts.tracer = &tracer;
    scenario::ScenarioRunner runner(platform, *policy, trace, run_opts);
    const scenario::ScenarioResult result = runner.run();
    tracer.finish();
    if (tracer.enabled() && !tracer.config().file.empty())
        std::cout << "trace written to " << tracer.config().file << " (metrics CSV beside"
                  << " it)\n";

    // 3. Replay: one line every few quanta.
    std::cout << "quantum  live queued util       timeline (#=busy thread)\n";
    const std::uint64_t stride = std::max<std::uint64_t>(1, result.quanta_executed / 50);
    std::uint64_t last_migrations = 0;
    for (const scenario::QuantumSample& s : result.timeline) {
        if (s.quantum % stride != 0) continue;
        const int threads = platform.hw_contexts();
        const int busy = s.live;
        std::string bar(static_cast<std::size_t>(busy), '#');
        bar.resize(static_cast<std::size_t>(threads), '.');
        std::cout << "  " << s.quantum << "\t " << s.live << "    " << s.queued << "    "
                  << common::format_double(s.utilization, 2) << "  |" << bar << "|";
        if (s.migrations != last_migrations)
            std::cout << "  +" << (s.migrations - last_migrations) << " migr";
        last_migrations = s.migrations;
        std::cout << "\n";
    }

    common::Table table(
        {"task", "app", "chip", "arrive", "admit", "finish", "TT", "slowdown"});
    for (const scenario::TaskRecord& rec : result.tasks) {
        if (!rec.completed) continue;
        table.row()
            .add(static_cast<double>(rec.plan_index), 0)
            .add(rec.app_name)
            .add(static_cast<double>(rec.chip_id), 0)
            .add(static_cast<double>(rec.arrival_quantum), 0)
            .add(static_cast<double>(rec.admit_quantum), 0)
            .add(rec.finish_quantum, 1)
            .add(rec.turnaround_quanta, 1)
            .add(rec.slowdown, 2);
    }
    std::cout << "\n";
    table.print(std::cout);

    std::cout << "\ncompleted " << result.completed_tasks << "/" << result.tasks.size()
              << " tasks in " << result.quanta_executed << " quanta, "
              << result.migrations << " migrations, mean utilization "
              << common::format_double(result.mean_utilization(), 2) << "\n";
    if (!result.completed) {
        std::cout << "FAIL: " << spec.name << " / " << policy_name
                  << " hit the quantum cap before draining\n";
        return 1;
    }
    return 0;
}
