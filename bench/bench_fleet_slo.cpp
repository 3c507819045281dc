// Fleet SLO acceptance sweep: N serving nodes under an open Poisson stream
// of latency-critical and batch requests, comparing registered fleet
// policies on tail latency, SLO-violation rate and goodput.
//
// The acceptance gate (exit code) checks, at the default scale of 16
// four-context nodes and 100k+ tasks:
//   1. every run drains the full task population before the quantum cap,
//   2. every (scenario, policy, rep) run is bit-identical across the
//      SYNPA_SIM_THREADS axis (node configs differing only in sim_threads),
//   3. fleet-interference-aware beats fleet-least-loaded on p99 slowdown
//      (skippable for smoke runs via SYNPA_FLEET_REQUIRE_WIN=0).
//
// Knobs: SYNPA_FLEET_NODES (16), SYNPA_FLEET_TASKS (100000),
// SYNPA_FLEET_POLICIES ("fleet-least-loaded,fleet-interference-aware"),
// SYNPA_FLEET_LOAD (0.55), SYNPA_FLEET_LC_FRACTION (0.25),
// SYNPA_FLEET_SERVICE_QUANTA (4), SYNPA_FLEET_CHIPS (2),
// SYNPA_FLEET_CORES (1), SYNPA_FLEET_SMT_WAYS (2),
// SYNPA_FLEET_QUANTUM_CYCLES (2000), SYNPA_FLEET_SIM_THREADS ("1,4"),
// SYNPA_FLEET_THREADS (node-stepping threads per run, 1),
// SYNPA_FLEET_REQUIRE_WIN (1), plus SYNPA_BENCH_SEED / SYNPA_BENCH_REPS /
// SYNPA_BENCH_THREADS / SYNPA_BENCH_CSV from bench_common.hpp.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "exp/fleet_grid.hpp"
#include "fleet/metrics.hpp"
#include "model/interference_model.hpp"
#include "scenario/scenario.hpp"

namespace {

std::vector<std::string> split_list(const std::string& raw) {
    std::vector<std::string> items;
    std::stringstream ss(raw);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) items.push_back(item);
    return items;
}

}  // namespace

int run_program() {
    using namespace synpa;
    bench::print_header("Fleet SLO sweep",
                        "SLO-class serving across N platforms: tail latency by "
                        "fleet policy");

    const auto seed =
        static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_SEED", 42));
    const int nodes = static_cast<int>(common::env_int("SYNPA_FLEET_NODES", 16));
    const auto tasks =
        static_cast<std::uint64_t>(common::env_int("SYNPA_FLEET_TASKS", 100'000));
    // Nominal load is accounted at isolated IPC; SMT sharing roughly halves
    // per-context throughput, so 0.55 keeps the fleet busy without letting
    // queueing delay swamp the placement signal the sweep is measuring.
    const double load = common::env_double("SYNPA_FLEET_LOAD", 0.55);
    const double lc_fraction = common::env_double("SYNPA_FLEET_LC_FRACTION", 0.25);
    const auto service_quanta = static_cast<std::uint64_t>(
        common::env_int("SYNPA_FLEET_SERVICE_QUANTA", 4));
    const bool require_win = common::env_int("SYNPA_FLEET_REQUIRE_WIN", 1) != 0;

    uarch::SimConfig base;
    base.num_chips = static_cast<int>(common::env_int("SYNPA_FLEET_CHIPS", 2));
    base.cores = static_cast<int>(common::env_int("SYNPA_FLEET_CORES", 1));
    base.smt_ways = static_cast<int>(common::env_int("SYNPA_FLEET_SMT_WAYS", 2));
    base.cycles_per_quantum =
        common::env_int("SYNPA_FLEET_QUANTUM_CYCLES", 2'000);

    // One node config per SYNPA_SIM_THREADS level: the campaign doubles as
    // the fleet determinism matrix, every run compared bit-for-bit below.
    exp::FleetCampaign campaign;
    campaign.name = "fleet-slo";
    for (const std::string& raw :
         split_list(common::env_string("SYNPA_FLEET_SIM_THREADS", "1,4"))) {
        uarch::SimConfig cfg = base;
        cfg.sim_threads = std::stoi(raw);
        campaign.node_configs.push_back(cfg);
    }

    // Offered load targets `load` x fleet capacity; the horizon is sized so
    // the arrival process delivers the requested task population.
    const double capacity = static_cast<double>(nodes) *
                            static_cast<double>(base.num_chips) *
                            static_cast<double>(base.cores) *
                            static_cast<double>(base.smt_ways);
    const double rate =
        load * capacity / static_cast<double>(service_quanta);
    scenario::ScenarioSpec spec;
    spec.name = "fleet-poisson";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "bwaves", "leela_r", "gobmk", "nab_r", "exchange2_r"};
    spec.service_quanta = service_quanta;
    spec.arrival_rate = rate;
    spec.horizon_quanta =
        static_cast<std::uint64_t>(static_cast<double>(tasks) / rate) + 1;
    spec.initial_tasks = static_cast<std::uint64_t>(capacity);
    spec.seed = seed;
    spec.lc_fraction = lc_fraction;
    campaign.scenarios.push_back(spec);

    campaign.fleet_policies = split_list(common::env_string(
        "SYNPA_FLEET_POLICIES", "fleet-least-loaded,fleet-interference-aware"));
    campaign.nodes = nodes;
    campaign.reps = static_cast<int>(common::env_int("SYNPA_BENCH_REPS", 1));
    campaign.max_quanta = static_cast<std::uint64_t>(
        common::env_int("SYNPA_FLEET_MAX_QUANTA",
                        static_cast<std::int64_t>(spec.horizon_quanta * 6 + 4'000)));
    campaign.fleet_threads =
        static_cast<std::size_t>(common::env_int("SYNPA_FLEET_THREADS", 1));
    // The paper's published coefficients score interference; no training
    // phase, so the bench is self-contained and fast.
    campaign.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());

    std::cout << "grid: " << campaign.node_configs.size() << " sim-thread levels x "
              << campaign.fleet_policies.size() << " fleet policies x "
              << campaign.reps << " reps; " << nodes << " nodes ("
              << base.num_chips << " chips x " << base.cores << " cores x SMT-"
              << base.smt_ways << "), ~" << tasks << " tasks/run...\n\n";

    std::unique_ptr<std::ofstream> csv_stream;
    std::unique_ptr<exp::FleetCsvAggregator> csv;
    std::vector<exp::FleetAggregator*> aggregators;
    const std::string csv_path = common::env_string("SYNPA_BENCH_CSV", "");
    if (!csv_path.empty()) {
        csv_stream = std::make_unique<std::ofstream>(csv_path);
        if (csv_stream->is_open()) {
            csv = std::make_unique<exp::FleetCsvAggregator>(*csv_stream);
            aggregators.push_back(csv.get());
        } else {
            std::cerr << "warning: cannot open export file '" << csv_path
                      << "' — skipping\n";
        }
    }

    exp::FleetGridRunner runner(
        {.threads = workloads::bench_threads_from_env(),
         .log = &std::cout});
    const exp::FleetGridResult result = runner.run(campaign, aggregators);

    common::Table table({"sim_thr", "fleet policy", "done", "p50", "p99", "p999",
                         "viol LC", "viol batch", "goodput", "preempt/kq"});
    for (const auto& cell : result.cells) {
        const fleet::FleetSummary& s = cell.summary;
        table.row()
            .add(std::to_string(
                campaign.node_configs[cell.config_index].sim_threads))
            .add(cell.fleet_policy)
            .add(std::to_string(s.all.completed) + "/" + std::to_string(s.all.planned))
            .add(s.all.p50_slowdown, 2)
            .add(s.all.p99_slowdown, 2)
            .add(s.all.p999_slowdown, 2)
            .add(s.latency_critical.violation_rate, 4)
            .add(s.batch.violation_rate, 4)
            .add(s.goodput, 3)
            .add(s.preemptions_per_kquanta, 2);
    }
    table.print(std::cout);

    // ------------------------------------------------- acceptance gate --
    bool ok = true;
    for (const auto& cell : result.cells)
        for (const fleet::FleetResult& run : cell.runs)
            if (!run.completed) {
                std::cout << "FAIL: " << cell.fleet_policy << " (sim_threads="
                          << campaign.node_configs[cell.config_index].sim_threads
                          << ") hit the quantum cap before draining\n";
                ok = false;
            }

    // Bit-identity across the SYNPA_SIM_THREADS axis, rep by rep.
    const std::size_t per_config =
        campaign.scenarios.size() * campaign.fleet_policies.size();
    for (std::size_t ci = 1; ci < campaign.node_configs.size(); ++ci)
        for (std::size_t k = 0; k < per_config; ++k) {
            const auto& a = result.cells[k];
            const auto& b = result.cells[ci * per_config + k];
            for (std::size_t rep = 0; rep < a.runs.size(); ++rep)
                if (fleet::run_signature(a.runs[rep]) !=
                    fleet::run_signature(b.runs[rep])) {
                    std::cout << "FAIL: " << a.fleet_policy << " rep " << rep
                              << " diverges between sim_threads="
                              << campaign.node_configs[0].sim_threads
                              << " and sim_threads="
                              << campaign.node_configs[ci].sim_threads << "\n";
                    ok = false;
                }
        }
    if (ok && campaign.node_configs.size() > 1)
        std::cout << "\ndeterminism: all runs bit-identical across the "
                     "sim-thread axis\n";

    const auto* ia = result.find(spec.name, "fleet-interference-aware");
    const auto* ll = result.find(spec.name, "fleet-least-loaded");
    if (ia != nullptr && ll != nullptr) {
        const double gain = ll->summary.all.p99_slowdown > 0.0
                                ? 1.0 - ia->summary.all.p99_slowdown /
                                            ll->summary.all.p99_slowdown
                                : 0.0;
        std::cout << "p99 slowdown: interference-aware "
                  << ia->summary.all.p99_slowdown << " vs least-loaded "
                  << ll->summary.all.p99_slowdown << " ("
                  << common::format_double(gain * 100.0, 1) << "% better)\n";
        if (require_win &&
            ia->summary.all.p99_slowdown >= ll->summary.all.p99_slowdown) {
            std::cout << "FAIL: interference-aware placement does not beat "
                         "least-loaded on p99 slowdown\n";
            ok = false;
        }
    }

    std::cout << (ok ? "\nACCEPTANCE PASS" : "\nACCEPTANCE FAIL")
              << "  (wall " << result.wall_seconds << " s)\n";
    return ok ? 0 : 1;
}

int main() { return synpa::common::guarded_main(run_program); }
