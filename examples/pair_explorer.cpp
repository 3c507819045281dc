// pair_explorer — measures the ground-truth SMT slowdown matrix for a set
// of applications (optionally pinned to a single phase with "app:phase"),
// by running every pair on one SMT core and comparing against isolated
// execution.
//
// Usage: pair_explorer [app[:phase] ...]
//   default: the fb2 cast at their interesting phases.
//
// This is the experiment SYNPA's regression model approximates: the printed
// matrix shows slowdown(row | column) — how much the row application slows
// down when sharing a core with the column application.
//
// Implementation: a declarative campaign over a single-core config whose
// workload axis is the N*(N+1)/2 unordered pairs; each cell runs the pair
// under the (migration-free) linux policy with the paper's measurement
// methodology, and the slowdown is the inverse of the slot's individual
// speedup.  Cells run in parallel; isolated target profiles are memoized.
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "exp/campaign.hpp"
#include "sched/baselines.hpp"
#include "uarch/sim_config.hpp"

int run_program(int argc, char** argv) {
    using namespace synpa;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
    if (names.empty())
        names = {"lbm_r", "mcf", "cactuBSSN_r", "leela_r:search", "leela_r:eval",
                 "astar:search", "astar:map", "mcf_r:simplex"};

    uarch::SimConfig pair_cfg = uarch::SimConfig::from_env();
    pair_cfg.cores = 1;  // one SMT core per pair

    exp::Campaign campaign;
    campaign.name = "pair-explorer";
    campaign.configs = {pair_cfg};
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i; j < names.size(); ++j)
            campaign.workloads.push_back({names[i] + " + " + names[j],
                                          {names[i], names[j]}});
    campaign.policies = {
        {"linux", [](const exp::ArtifactSet&, std::uint64_t) {
             return std::make_unique<sched::LinuxPolicy>();
         }}};
    campaign.methodology.reps = 1;
    campaign.methodology.record_traces = false;
    campaign.methodology.target_isolated_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_PAIR_QUANTA", 40));
    // Even a pathological pair slows down well under 8x, so this cap scales
    // with the profiling window instead of silently truncating long runs.
    campaign.methodology.max_quanta = 8 * campaign.methodology.target_isolated_quanta + 64;

    exp::CampaignRunner runner;
    exp::CampaignResult result;
    try {
        result = runner.run(campaign);
    } catch (const std::out_of_range& e) {
        std::cerr << "pair_explorer: " << e.what() << "\n";
        return 1;
    }

    std::vector<std::vector<double>> matrix(names.size(),
                                            std::vector<double>(names.size(), 0.0));
    std::size_t cell = 0;
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i; j < names.size(); ++j, ++cell) {
            const sched::RunResult& run = result.cells[cell].result.exemplar;
            if (!run.completed)
                std::cerr << "warning: pair " << result.cells[cell].workload
                          << " hit the quantum cap; its cells read 0\n";
            // Outcomes exist only for slots that finished; match by slot.
            const auto slowdown = [&run](int slot) {
                for (const auto& o : run.outcomes)
                    if (o.slot_index == slot && o.individual_speedup > 0.0)
                        return 1.0 / o.individual_speedup;
                return 0.0;
            };
            matrix[i][j] = slowdown(0);
            matrix[j][i] = slowdown(1);
        }

    std::vector<std::string> headers = {"slowdown of row | col"};
    for (const auto& n : names) headers.push_back(n);
    common::Table table(headers);
    for (std::size_t i = 0; i < names.size(); ++i) {
        table.row().add(names[i]);
        for (std::size_t j = 0; j < names.size(); ++j) table.add(matrix[i][j], 2);
    }
    table.print(std::cout);
    std::cout << "read: cell (r, c) = slowdown application r suffers when it shares an SMT\n"
                 "core with application c (isolated cycles for the same work / SMT cycles).\n";
    return 0;
}

int main(int argc, char** argv) {
    return synpa::common::guarded_main([&] { return run_program(argc, argv); });
}
