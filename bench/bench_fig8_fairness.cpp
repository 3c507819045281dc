// Reproduces Figure 8: fairness (1 - sigma/mu of the individual speedups)
// of Linux vs SYNPA across the 20 workloads, with group averages.
//
// Runs the shared paper-eval campaign; the per-workload table comes from
// the paired-speedup aggregator and the group table from a streaming
// group-mean aggregator over the fairness metric.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 8", "Fairness comparison of Linux and SYNPA");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const workloads::MethodologyOptions opts = bench::default_methodology();

    exp::Campaign campaign = bench::paper_eval_campaign(cfg, opts);
    campaign.name = "fig8-fairness";

    std::cout << "campaign: 20 workloads x 2 policies x " << opts.reps
              << " reps (training memoized)...\n\n";
    exp::PairedSpeedupAggregator paired("linux");
    exp::GroupMeanAggregator group_fairness(
        [](const exp::CellResult& cell) { return cell.result.mean_metrics.fairness; });
    bench::EnvExports exports;
    exp::CampaignRunner runner({.threads = opts.threads});
    runner.run(campaign, exports.with({&paired, &group_fairness}));

    common::Table table({"workload", "fairness linux", "fairness synpa", "delta"});
    for (const auto& r : paired.comparisons("synpa")) {
        table.row()
            .add(r.workload)
            .add(r.baseline.fairness, 3)
            .add(r.treatment.fairness, 3)
            .add(r.fairness_delta, 3);
    }
    table.print(std::cout);

    common::Table avg({"group", "linux", "synpa"});
    common::RunningStats all_linux, all_synpa;
    for (const auto& group : group_fairness.group_order()) {
        const auto& linux_stats = group_fairness.groups().at({"linux", group});
        const auto& synpa_stats = group_fairness.groups().at({"synpa", group});
        avg.row().add(group).add(linux_stats.mean(), 3).add(synpa_stats.mean(), 3);
        all_linux.merge(linux_stats);
        all_synpa.merge(synpa_stats);
    }
    avg.row().add("avg").add(all_linux.mean(), 3).add(all_synpa.mean(), 3);
    avg.print(std::cout);
    std::cout << "paper reference: SYNPA is never less fair; the gap is largest on the\n"
                 "mixed workloads and smallest on the frontend-intensive ones.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
