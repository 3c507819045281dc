// Multi-chip load sweep: the scale-unlock acceptance bench.  Sweeps the
// platform from 1 to 4 chips at SMT widths 2 and 4 under a fixed offered
// load, comparing the topology-aware SYNPA policy against random churn and
// the no-migration baseline on an open system.
//
// Per (chips, width) the arrival rate is load * capacity / service, so
// every platform size sees the same *relative* pressure; what changes is
// the topology the allocator must respect — random pays the cross-chip
// cold-cache window on a large fraction of its moves, SYNPA's balancing
// pass migrates across chips only when the predicted benefit beats the
// penalty.  Expected: SYNPA's mean slowdown beats random at every chip
// count, and its cross-chip migration rate stays near zero.
//
// Knobs: SYNPA_MULTICHIP_CHIPS (comma list, default "1,2,3,4"),
// SYNPA_MULTICHIP_WAYS (default "2,4"), SYNPA_MULTICHIP_LOAD (default 0.9),
// SYNPA_SCENARIO_SERVICE_QUANTA / SYNPA_SCENARIO_HORIZON, plus the usual
// SYNPA_BENCH_* scales.  SYNPA_BENCH_CSV exports the per-cell summary rows
// (with the chips column).
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

std::vector<int> int_list(const char* env, const char* fallback) {
    const std::string raw = synpa::common::env_string(env, fallback);
    std::vector<int> out;
    std::stringstream ss(raw);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty()) out.push_back(std::stoi(item));
    return out;
}

}  // namespace

int run_program() {
    using namespace synpa;
    bench::print_header("Multi-chip load sweep",
                        "1 -> 4 chips at SMT-2/SMT-4: topology-aware SYNPA vs baselines");

    const uarch::SimConfig base = uarch::SimConfig::from_env();
    const workloads::MethodologyOptions opts = bench::default_methodology();
    const auto service_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_SCENARIO_SERVICE_QUANTA", 30));
    const auto horizon =
        static_cast<std::uint64_t>(common::env_int("SYNPA_SCENARIO_HORIZON", 150));
    const double load = common::env_double("SYNPA_MULTICHIP_LOAD", 0.9);
    const std::vector<int> chip_counts = int_list("SYNPA_MULTICHIP_CHIPS", "1,2,3,4");
    const std::vector<int> widths = int_list("SYNPA_MULTICHIP_WAYS", "2,4");

    const std::vector<std::string> mix = {"mcf",   "bwaves", "leela_r",
                                          "gobmk", "nab_r",  "exchange2_r"};

    // One shared CSV stream across every (chips, width) campaign: the
    // aggregator writes its header once, and every row carries the chips
    // column, so downstream tooling sees one coherent sweep.
    std::unique_ptr<std::ofstream> csv_stream;
    std::unique_ptr<exp::ScenarioCsvAggregator> csv;
    const std::string csv_path = common::env_string("SYNPA_BENCH_CSV", "");
    if (!csv_path.empty()) {
        csv_stream = std::make_unique<std::ofstream>(csv_path);
        if (csv_stream->is_open()) {
            csv = std::make_unique<exp::ScenarioCsvAggregator>(*csv_stream);
        } else {
            std::cerr << "warning: cannot open export file '" << csv_path
                      << "' — skipping\n";
        }
    }

    common::Table table({"chips", "ways", "policy", "done", "thruput", "mean TT",
                         "p95 TT", "slowdown", "util", "migr/q", "xchip/q"});
    double wall = 0.0;
    bool synpa_beats_random_everywhere = true;
    bool drained = true;  // every run retired its tasks before the safety cap

    for (const int width : widths) {
        for (const int chips : chip_counts) {
            uarch::SimConfig cfg = base;
            cfg.num_chips = chips;
            cfg.smt_ways = width;
            const double capacity = static_cast<double>(chips) *
                                    static_cast<double>(cfg.cores) *
                                    static_cast<double>(width);

            scenario::ScenarioSpec spec;
            spec.name = "chips-" + std::to_string(chips) + "-w" + std::to_string(width);
            spec.process = scenario::ArrivalProcess::kPoisson;
            spec.app_mix = mix;
            spec.service_quanta = service_quanta;
            spec.horizon_quanta = horizon;
            spec.seed = opts.seed;
            spec.arrival_rate = load * capacity / static_cast<double>(service_quanta);
            spec.initial_tasks = static_cast<std::uint64_t>(
                std::min(load * capacity, capacity));

            exp::ScenarioCampaign campaign;
            campaign.name = "multichip-" + spec.name;
            campaign.configs = {cfg};
            campaign.scenarios = {spec};
            // The `policy=` axis: registered names expanded by the grid
            // runner (sched/registry.hpp).  "linux" is the no-migration
            // baseline the earlier hand-wired column spelled out.
            campaign.policy_names = {"linux", "random", "synpa"};
            campaign.reps = opts.reps;
            campaign.needs_training = true;
            campaign.trainer = bench::default_trainer(opts);

            std::vector<exp::ScenarioAggregator*> aggregators;
            if (csv) aggregators.push_back(csv.get());
            exp::ScenarioGridRunner runner({.threads = opts.threads});
            const exp::ScenarioGridResult result = runner.run(campaign, aggregators);
            wall += result.wall_seconds;

            double random_slowdown = 0.0, synpa_slowdown = 0.0;
            for (const auto& cell : result.cells) {
                const auto& s = cell.summary;
                if (cell.policy == "random") random_slowdown = s.mean_slowdown;
                if (cell.policy == "synpa") synpa_slowdown = s.mean_slowdown;
                if (!s.all_completed) {
                    std::cout << "FAIL: " << cell.scenario << " / " << cell.policy
                              << " (chips=" << cell.chips << ", smt=" << cell.smt_ways
                              << ") hit the quantum cap before draining\n";
                    drained = false;
                }
                table.row()
                    .add(std::to_string(cell.chips))
                    .add(std::to_string(cell.smt_ways))
                    .add(cell.policy)
                    .add(std::to_string(s.completed_tasks) + "/" +
                         std::to_string(s.planned_tasks))
                    .add(s.throughput, 3)
                    .add(s.mean_turnaround, 1)
                    .add(s.p95_turnaround, 1)
                    .add(s.mean_slowdown, 2)
                    .add(s.mean_utilization, 2)
                    .add(s.migrations_per_quantum, 2)
                    .add(s.cross_chip_per_quantum, 2);
            }
            if (synpa_slowdown >= random_slowdown)
                synpa_beats_random_everywhere = false;
        }
    }

    table.print(std::cout);
    std::cout << "\nsynpa beats random on mean slowdown at every (chips, width): "
              << (synpa_beats_random_everywhere ? "yes" : "NO") << "\n"
              << "expected: yes — informed per-chip grouping plus benefit-gated\n"
                 "cross-chip moves; random churn pays the cold remote-cache window\n"
                 "on a large share of its migrations.  wall " << wall << " s\n";
    return synpa_beats_random_everywhere && drained ? 0 : 1;
}

int main() { return synpa::common::guarded_main(run_program); }
