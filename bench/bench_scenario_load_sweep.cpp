// Open-system load sweep: SYNPA vs. the random and no-migration baselines
// across Poisson arrival rates spanning under-, full- and over-subscription
// of the chip (the regime the SYNPA-family follow-up work identifies as the
// interesting one: the allocator must decide *which* threads run alone).
//
// For each load level L (average runnable threads / hardware threads), the
// arrival rate is L * capacity / isolated-service-quanta, so the nominal
// offered load matches L.  Reported per (load, policy): completed tasks,
// throughput, mean/p95/p99 turnaround, mean slowdown vs. isolated, mean
// utilization, and migrations per quantum.
//
// Knobs: SYNPA_SCENARIO_LOADS (comma list, default "0.5,0.75,0.875,1.0,1.25"),
// SYNPA_SCENARIO_POLICIES (registered policy names, default
// "linux,random,synpa"), SYNPA_SCENARIO_SERVICE_QUANTA,
// SYNPA_SCENARIO_HORIZON, plus the usual SYNPA_BENCH_* scales.
// SYNPA_BENCH_CSV exports the per-cell summary rows.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "exp/scenario_grid.hpp"
#include "scenario/scenario.hpp"

namespace {

std::vector<double> load_levels() {
    const std::string raw =
        synpa::common::env_string("SYNPA_SCENARIO_LOADS", "0.5,0.75,0.875,1.0,1.25");
    std::vector<double> loads;
    std::stringstream ss(raw);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) loads.push_back(std::stod(item));
    return loads;
}

}  // namespace

int run_program() {
    using namespace synpa;
    bench::print_header("Scenario load sweep",
                        "Open-system arrivals: SYNPA vs random vs no-migration");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const workloads::MethodologyOptions opts = bench::default_methodology();
    const auto service_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_SCENARIO_SERVICE_QUANTA", 30));
    const auto horizon =
        static_cast<std::uint64_t>(common::env_int("SYNPA_SCENARIO_HORIZON", 150));
    const double capacity =
        static_cast<double>(cfg.cores) * static_cast<double>(cfg.smt_ways);

    // A mixed app diet: backend-bound, frontend-bound, and Others, so the
    // allocator has real pairing decisions to make at every load level.
    const std::vector<std::string> mix = {"mcf",     "bwaves",  "leela_r",
                                          "gobmk",   "nab_r",   "exchange2_r"};

    exp::ScenarioCampaign campaign;
    campaign.name = "scenario-load-sweep";
    campaign.configs = {cfg};
    for (const double load : load_levels()) {
        scenario::ScenarioSpec spec;
        spec.name = "load-" + common::format_double(load, 3);
        spec.process = scenario::ArrivalProcess::kPoisson;
        spec.app_mix = mix;
        spec.service_quanta = service_quanta;
        spec.horizon_quanta = horizon;
        spec.seed = opts.seed;
        spec.arrival_rate = load * capacity / static_cast<double>(service_quanta);
        spec.initial_tasks = static_cast<std::uint64_t>(
            std::min(load * capacity, capacity));  // start near steady state
        campaign.scenarios.push_back(std::move(spec));
    }
    // The `policy=` axis: registered names, overridable without recompiling
    // (e.g. SYNPA_SCENARIO_POLICIES="linux,synpa,synpa-fair,synpa-adaptive").
    {
        const std::string raw =
            common::env_string("SYNPA_SCENARIO_POLICIES", "linux,random,synpa");
        std::stringstream ss(raw);
        std::string name;
        while (std::getline(ss, name, ','))
            if (!name.empty()) campaign.policy_names.push_back(name);
    }
    campaign.reps = opts.reps;
    campaign.needs_training = true;
    campaign.trainer = bench::default_trainer(opts);

    std::cout << "grid: " << campaign.scenarios.size() << " load levels x "
              << campaign.policy_names.size() << " policies x " << campaign.reps
              << " reps (training memoized)...\n\n";

    std::unique_ptr<std::ofstream> csv_stream;
    std::vector<exp::ScenarioAggregator*> aggregators;
    std::unique_ptr<exp::ScenarioCsvAggregator> csv;
    const std::string csv_path = common::env_string("SYNPA_BENCH_CSV", "");
    if (!csv_path.empty()) {
        csv_stream = std::make_unique<std::ofstream>(csv_path);
        if (csv_stream->is_open()) {
            csv = std::make_unique<exp::ScenarioCsvAggregator>(*csv_stream);
            aggregators.push_back(csv.get());
        } else {
            std::cerr << "warning: cannot open export file '" << csv_path
                      << "' — skipping\n";
        }
    }

    exp::ScenarioGridRunner runner({.threads = opts.threads});
    const exp::ScenarioGridResult result = runner.run(campaign, aggregators);

    common::Table table({"load", "policy", "done", "thruput", "mean TT", "p95 TT",
                         "p99 TT", "slowdown", "util", "migr/q"});
    for (const auto& cell : result.cells) {
        const auto& s = cell.summary;
        table.row()
            .add(cell.scenario)
            .add(cell.policy)
            .add(std::to_string(s.completed_tasks) + "/" + std::to_string(s.planned_tasks))
            .add(s.throughput, 3)
            .add(s.mean_turnaround, 1)
            .add(s.p95_turnaround, 1)
            .add(s.p99_turnaround, 1)
            .add(s.mean_slowdown, 2)
            .add(s.mean_utilization, 2)
            .add(s.migrations_per_quantum, 2);
    }
    table.print(std::cout);
    std::cout << "\nexpected: synpa's informed (partial) pairing beats random churn at\n"
                 "every load; gains over the linux (no-migration) baseline grow with\n"
                 "load until the chip saturates, where queueing dominates.  wall "
              << result.wall_seconds << " s\n";
    bool drained = true;
    for (const auto& cell : result.cells)
        if (!cell.summary.all_completed) {
            std::cout << "FAIL: " << cell.scenario << " / " << cell.policy
                      << " hit the quantum cap before draining\n";
            drained = false;
        }
    return drained ? 0 : 1;
}

int main() { return synpa::common::guarded_main(run_program); }
