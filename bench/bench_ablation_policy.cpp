// Design-choice ablations for the SYNPA policy on the showcased workloads:
//   * pair selector: Blossom (paper) vs greedy,
//   * hysteresis: on (default) vs off (re-solve every quantum),
//   * baselines: Linux, Random, Oracle (true phase categories).
//
// One campaign: 3 workloads x 6 policy columns; the trained model and the
// oracle's phase calibration are shared artifacts resolved once.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Policy ablations",
                        "Selector / hysteresis / baseline sweep on be1, fe2, fb2");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts = bench::default_methodology();
    opts.reps = std::min(opts.reps, 2);

    const auto synpa_with = [](std::string label, core::PairSelector sel, bool hysteresis) {
        core::SynpaPolicy::Options o;
        o.selector = sel;
        if (!hysteresis) {
            o.stability_bias = 0.0;
            o.keep_threshold = 0.0;
        }
        return exp::PolicySpec{
            std::move(label), [o](const exp::ArtifactSet& artifacts, std::uint64_t) {
                return std::make_unique<core::SynpaPolicy>(artifacts.training->model, o);
            }};
    };

    exp::Campaign campaign;
    campaign.name = "ablation-policy";
    campaign.configs = {cfg};
    campaign.workloads = {workloads::paper_be1(), workloads::paper_fe2(),
                          workloads::paper_fb2()};
    campaign.policies = {
        bench::linux_policy(),
        {"random",
         [](const exp::ArtifactSet&, std::uint64_t s) {
             return std::make_unique<sched::RandomPolicy>(s);
         }},
        {"oracle",
         [](const exp::ArtifactSet& artifacts, std::uint64_t) {
             return std::make_unique<sched::OraclePolicy>(artifacts.training->model);
         }},
        synpa_with("synpa (blossom)", core::PairSelector::kBlossom, true),
        synpa_with("synpa (greedy)", core::PairSelector::kGreedy, true),
        synpa_with("synpa (no hysteresis)", core::PairSelector::kBlossom, false),
    };
    campaign.methodology = opts;
    campaign.methodology.record_traces = false;  // only scalar run fields are read
    campaign.needs_training = true;
    campaign.trainer = bench::default_trainer(opts);
    campaign.needs_calibration = true;  // the oracle reads true phase categories

    std::cout << "campaign: 3 workloads x " << campaign.policies.size() << " policies x "
              << opts.reps << " reps...\n";
    bench::EnvExports exports;
    exp::CampaignRunner runner({.threads = opts.threads});
    const exp::CampaignResult result = runner.run(campaign, exports.with());

    for (const auto& spec : campaign.workloads) {
        std::cout << "\n=== workload " << spec.name << " ===\n";
        common::Table table(
            {"policy", "TT (quanta)", "TT speedup vs linux", "fairness", "migr/quantum"});
        const double linux_tt =
            result.find(spec.name, "linux")->result.mean_metrics.turnaround_quanta;
        for (const auto& policy : campaign.policies) {
            const exp::CellResult* cell = result.find(spec.name, policy.label);
            const workloads::RepeatedResult& r = cell->result;
            table.row()
                .add(policy.label)
                .add(r.mean_metrics.turnaround_quanta, 1)
                .add(linux_tt > 0.0 ? linux_tt / r.mean_metrics.turnaround_quanta : 0.0, 3)
                .add(r.mean_metrics.fairness, 3)
                .add(static_cast<double>(r.exemplar.migrations) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, r.exemplar.quanta_executed)),
                     2);
        }
        table.print(std::cout);
    }
    std::cout << "\nreading guide: random churn loses badly (pairing matters); informed\n"
                 "selectors agree at n=8 (the optimum is small); hysteresis suppresses\n"
                 "near-tie oscillation that would otherwise pay migration costs.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
