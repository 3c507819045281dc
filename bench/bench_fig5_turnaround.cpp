// Reproduces Figure 5: turnaround-time speedup of SYNPA over the Linux
// baseline across the 20 evaluation workloads (be0-be4, fe0-fe4, fb0-fb9),
// with per-group averages.
//
// Paper reference shape: backend-intensive ~ +18%, frontend-intensive
// ~ +8%, mixed ~ +36% (up to +55% on fb2); mixed > backend > frontend.
//
// The whole evaluation is one declarative campaign: the engine trains the
// interference model once (memoized in the ArtifactCache), expands the
// paper's twenty workloads, and runs every (workload, policy, rep) cell in
// parallel; the paired-speedup aggregator receives cells in grid order.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 5",
                        "Speedup of the turnaround time over Linux, 20 workloads");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const workloads::MethodologyOptions opts = bench::default_methodology();

    exp::Campaign campaign = bench::paper_eval_campaign(cfg, opts);
    campaign.name = "fig5-turnaround";

    std::cout << "campaign: 20 workloads x 2 policies x " << opts.reps
              << " reps (training memoized)...\n\n";
    exp::PairedSpeedupAggregator paired("linux");
    bench::EnvExports exports;
    exp::CampaignRunner runner({.threads = opts.threads});
    runner.run(campaign, exports.with({&paired}));
    const auto comparisons = paired.comparisons("synpa");

    const std::map<std::string, double> paper_group_ref = {
        {"be", 1.18}, {"fe", 1.08}, {"fb", 1.36}};

    common::Table table({"workload", "TT linux (quanta)", "TT synpa (quanta)",
                         "TT speedup", "bar"});
    std::map<std::string, std::vector<double>> by_group;
    for (const auto& c : comparisons) {
        const std::string group = c.workload.substr(0, 2);
        by_group[group].push_back(c.tt_speedup);
        table.row()
            .add(c.workload)
            .add(c.baseline.turnaround_quanta, 1)
            .add(c.treatment.turnaround_quanta, 1)
            .add(c.tt_speedup, 3)
            .add(common::ascii_bar((c.tt_speedup - 0.9) / 0.8, 32));
    }
    table.print(std::cout);

    common::Table avg({"group", "mean TT speedup", "paper reference"});
    for (const auto& [group, values] : by_group) {
        const auto it = paper_group_ref.find(group);
        avg.row()
            .add(group + " (" + std::to_string(values.size()) + " workloads)")
            .add(common::mean(values), 3)
            .add(it != paper_group_ref.end() ? common::format_double(it->second, 2) : "-");
    }
    avg.print(std::cout);
    std::cout << "expected ordering (paper): fb > be > fe, all >= 1\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
