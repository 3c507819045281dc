// Reproduces Figure 7: the dynamic per-quantum characterization of the two
// leela_r instances of fb2 (slots 4 and 5), under Linux and under SYNPA,
// with the co-runner's dominant category per quantum.
#include <iostream>

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
    bench::print_header("Figure 7",
                        "Dynamic characterization of the two leela_r of fb2 "
                        "(Linux vs SYNPA)");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts = bench::default_methodology();
    opts.reps = 1;

    model::TrainerOptions topts;
    topts.seed = opts.seed;
    std::cout << "training the interference model...\n";
    const model::TrainingResult trained =
        model::Trainer(cfg, topts).train(workloads::training_apps());

    const workloads::WorkloadSpec spec = workloads::paper_fb2();
    const auto prepared = workloads::prepare_workload(spec, cfg, opts, 0);
    sched::LinuxPolicy linux_policy;
    core::SynpaPolicy synpa_policy(trained.model);
    const auto run_linux = workloads::run_workload_once(prepared, cfg, linux_policy, opts);
    const auto run_synpa = workloads::run_workload_once(prepared, cfg, synpa_policy, opts);

    for (const int slot : {4, 5}) {
        for (const auto* run : {&run_linux, &run_synpa}) {
            std::cout << "\n--- leela_r(0" << slot << ") with " << run->policy_name
                      << " (finish at "
                      << common::format_double(run->outcomes[static_cast<std::size_t>(slot)]
                                                   .finish_quantum,
                                               0)
                      << " quanta) ---\n";
            const auto& trace = run->traces[static_cast<std::size_t>(slot)];
            common::Table table(
                {"quantum", "FD", "FE", "BE", "bar", "corunner", "corunner behaves"});
            // Downsample the series so the table stays readable.
            const std::size_t stride = std::max<std::size_t>(1, trace.size() / 24);
            for (std::size_t q = 0; q < trace.size(); q += stride) {
                const auto& t = trace[q];
                const char* partner_kind = "-";
                if (t.corunner_slot >= 0) {
                    const auto& partner_trace =
                        run->traces[static_cast<std::size_t>(t.corunner_slot)];
                    if (q < partner_trace.size())
                        partner_kind =
                            partner_trace[q].frontend_dominant ? "frontend" : "backend";
                }
                table.row()
                    .add(static_cast<long long>(t.quantum))
                    .add_pct(t.fractions[0])
                    .add_pct(t.fractions[1])
                    .add_pct(t.fractions[2])
                    .add(common::stacked_bar(t.fractions[0], t.fractions[1], t.fractions[2],
                                             24))
                    .add(t.corunner_slot >= 0
                             ? spec.app_names[static_cast<std::size_t>(t.corunner_slot)] +
                                   "(" + std::to_string(t.corunner_slot) + ")"
                             : "-")
                    .add(partner_kind);
            }
            table.print(std::cout);
        }
    }
    std::cout << "\npaper reference shape: under Linux each leela_r keeps one fixed\n"
                 "partner for its whole run; under SYNPA the partner changes with\n"
                 "leela's phase (backend phases get frontend-ish partners).\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
