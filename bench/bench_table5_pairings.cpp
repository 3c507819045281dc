// Reproduces Table V: for workload fb2 under SYNPA, the percentage of time
// each application is scheduled with each other application, split by
// whether it behaved frontend- or backend-dominant that quantum, plus the
// "diff. group" synergistic-pair rate.
//
// A one-cell campaign (fb2 x synpa x 1 rep) whose exemplar run carries the
// per-quantum traces the table is computed from; the trained model and the
// suite characterization are shared artifacts.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "metrics/metrics.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Table V", "Pair-selection percentages in fb2 under SYNPA");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts = bench::default_methodology();
    opts.reps = 1;

    exp::Campaign campaign;
    campaign.name = "table5-pairings";
    campaign.configs = {cfg};
    campaign.workloads = {workloads::paper_fb2()};
    campaign.policies = {bench::synpa_policy()};
    campaign.methodology = opts;
    campaign.needs_training = true;
    campaign.trainer = bench::default_trainer(opts);
    campaign.needs_characterizations = true;  // static Table III slot groups
    campaign.characterization_quanta = bench::characterization_quanta();

    std::cout << "campaign: fb2 x synpa x 1 rep (training memoized)...\n";
    bench::EnvExports exports;
    exp::CampaignRunner runner({.threads = opts.threads});
    const exp::CampaignResult result = runner.run(campaign, exports.with());
    const workloads::WorkloadSpec& spec = campaign.workloads.front();
    const sched::RunResult& run = result.cells.front().result.exemplar;

    // Static groups of each slot (Table III classification), from the very
    // characterization artifact the campaign resolved.
    const auto& chars = result.artifacts.front().characterizations;
    std::vector<workloads::Group> slot_groups;
    for (const auto& app : spec.app_names)
        for (const auto& c : *chars)
            if (c.name == app) slot_groups.push_back(c.group);

    const metrics::PairBehaviorStats stats = metrics::pair_behavior_stats(run, slot_groups);

    std::vector<std::string> headers = {"app (top:FE% / bottom:BE%)"};
    for (std::size_t y = 0; y < spec.app_names.size(); ++y)
        headers.push_back(spec.app_names[y] + "(" + std::to_string(y) + ")");
    headers.push_back("diff. group");
    common::Table table(headers);
    for (std::size_t x = 0; x < spec.app_names.size(); ++x) {
        table.row().add(spec.app_names[x] + "(" + std::to_string(x) + ") FE");
        for (std::size_t y = 0; y < spec.app_names.size(); ++y)
            table.add(stats.fe_share[x][y], 1);
        table.add(stats.diff_group_pct[x], 1);
        table.row().add(std::string(26, ' ') + "BE");
        for (std::size_t y = 0; y < spec.app_names.size(); ++y)
            table.add(stats.be_share[x][y], 1);
        table.add("");
    }
    table.print(std::cout);
    std::cout << "row = % of the app's quanta spent with each partner, split by the\n"
                 "app's own dominant behaviour that quantum; 'diff. group' = % of quanta\n"
                 "paired cross-group (the synergistic rate; paper reports 70-97%).\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
