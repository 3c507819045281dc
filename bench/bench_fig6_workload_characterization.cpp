// Reproduces Figure 6: per-application category stacks for the three
// showcased workloads (be1, fe2, fb2), Linux vs SYNPA side by side.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "core/synpa_policy.hpp"
#include "model/trainer.hpp"
#include "sched/baselines.hpp"
#include "workloads/groups.hpp"
#include "workloads/methodology.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 6",
                        "Per-application characterization under Linux vs SYNPA "
                        "(be1, fe2, fb2)");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts = bench::default_methodology();
    opts.reps = 1;  // the figure shows one representative execution

    model::TrainerOptions topts;
    topts.seed = opts.seed;
    std::cout << "training the interference model...\n";
    const model::TrainingResult trained =
        model::Trainer(cfg, topts).train(workloads::training_apps());

    for (const workloads::WorkloadSpec& spec :
         {workloads::paper_be1(), workloads::paper_fe2(), workloads::paper_fb2()}) {
        std::cout << "\n=== workload " << spec.name << " ===\n";
        sched::LinuxPolicy linux_policy;
        core::SynpaPolicy synpa_policy(trained.model);
        const auto prepared = workloads::prepare_workload(spec, cfg, opts, 0);
        const auto run_linux =
            workloads::run_workload_once(prepared, cfg, linux_policy, opts);
        const auto run_synpa =
            workloads::run_workload_once(prepared, cfg, synpa_policy, opts);

        common::Table table({"slot", "application", "policy", "FD", "FE", "BE",
                             "norm. time", "bar"});
        const double tt_linux = run_linux.turnaround_quanta;
        const double tt_synpa = run_synpa.turnaround_quanta;
        for (std::size_t s = 0; s < spec.app_names.size(); ++s) {
            for (const auto* run : {&run_linux, &run_synpa}) {
                const auto& out = run->outcomes[s];
                const double tt = run == &run_linux ? tt_linux : tt_synpa;
                table.row()
                    .add(std::to_string(s))
                    .add(spec.app_names[s])
                    .add(run->policy_name)
                    .add_pct(out.mean_fractions[0])
                    .add_pct(out.mean_fractions[1])
                    .add_pct(out.mean_fractions[2])
                    .add(out.finish_quantum / tt, 2)
                    .add(common::stacked_bar(out.mean_fractions[0], out.mean_fractions[1],
                                             out.mean_fractions[2], 32));
            }
        }
        table.print(std::cout);
        std::cout << "TT linux = " << common::format_double(tt_linux, 1)
                  << " quanta, TT synpa = " << common::format_double(tt_synpa, 1)
                  << " quanta\n";
    }
    std::cout << "\npaper reference shape: fe2 shows high frontend stalls everywhere\n"
                 "(little headroom); be1 and fb2 show SYNPA trimming backend stalls of\n"
                 "the slowest applications.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
