// Reproduces Figure 9: IPC speedup (geometric mean of per-application IPCs)
// of SYNPA over Linux across the 20 workloads, via the shared paper-eval
// campaign.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 9", "Speedup of IPC (geomean) over Linux");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const workloads::MethodologyOptions opts = bench::default_methodology();

    exp::Campaign campaign = bench::paper_eval_campaign(cfg, opts);
    campaign.name = "fig9-ipc";

    std::cout << "campaign: 20 workloads x 2 policies x " << opts.reps
              << " reps (training memoized)...\n\n";
    exp::PairedSpeedupAggregator paired("linux");
    bench::EnvExports exports;
    exp::CampaignRunner runner({.threads = opts.threads});
    runner.run(campaign, exports.with({&paired}));

    common::Table table(
        {"workload", "IPC linux", "IPC synpa", "IPC speedup", "TT speedup (context)"});
    std::map<std::string, std::vector<double>> by_group;
    for (const auto& r : paired.comparisons("synpa")) {
        by_group[r.workload.substr(0, 2)].push_back(r.ipc_speedup);
        table.row()
            .add(r.workload)
            .add(r.baseline.ipc_geomean, 3)
            .add(r.treatment.ipc_geomean, 3)
            .add(r.ipc_speedup, 3)
            .add(r.tt_speedup, 3);
    }
    table.print(std::cout);

    common::Table avg({"group", "mean IPC speedup", "paper reference"});
    const std::map<std::string, const char*> ref = {
        {"be", "~1.01"}, {"fe", "~1.008"}, {"fb", "~1.022"}};
    for (const auto& [group, values] : by_group)
        avg.row().add(group).add(common::mean(values), 3).add(ref.at(group));
    avg.print(std::cout);
    std::cout << "paper reference shape: IPC gains are an order of magnitude smaller\n"
                 "than TT gains — throughput is nearly conserved; SYNPA's win comes from\n"
                 "equalizing progress (fairness) and shortening the critical path.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
