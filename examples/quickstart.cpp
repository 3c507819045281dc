// quickstart — the smallest end-to-end SYNPA program:
//   1. train the interference model on a handful of applications,
//   2. run an 8-application mixed workload under Linux and under SYNPA,
//   3. print turnaround time, fairness, and IPC for both.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "common/main_guard.hpp"
#include "core/synpa_policy.hpp"
#include "model/trainer.hpp"
#include "sched/baselines.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/groups.hpp"
#include "workloads/methodology.hpp"

int run_program() {
    using namespace synpa;

    // The simulated ThunderX2-class chip (Table II parameters, scaled time).
    const uarch::SimConfig cfg = uarch::SimConfig::from_env();

    // 1. Train Equation 1 per category: isolated profiles + all SMT pairs,
    //    aligned by instruction counts, fitted with least squares.
    std::cout << "training the interference model on 8 applications...\n";
    model::TrainerOptions train_opts;
    train_opts.isolated_quanta = 80;
    train_opts.pair_quanta = 24;
    const std::vector<std::string> training = {"mcf",   "lbm_r",  "leela_r", "gobmk",
                                               "nab_r", "bwaves", "hmmer",   "povray_r"};
    const model::TrainingResult trained = model::Trainer(cfg, train_opts).train(training);
    std::cout << trained.model.to_string();

    // 2. A mixed frontend/backend workload (the paper's fb2).
    const workloads::WorkloadSpec workload = workloads::paper_fb2();
    std::cout << "\nworkload " << workload.name << ":";
    for (const auto& app : workload.app_names) std::cout << ' ' << app;
    std::cout << "\n\n";

    // 3. Run it under both policies and compare.
    workloads::MethodologyOptions opts;
    opts.reps = 1;
    for (const bool use_synpa : {false, true}) {
        const workloads::PolicyFactory factory =
            use_synpa ? workloads::PolicyFactory([&](std::uint64_t) {
                return std::make_unique<core::SynpaPolicy>(trained.model);
            })
                      : workloads::PolicyFactory([](std::uint64_t) {
                            return std::make_unique<sched::LinuxPolicy>();
                        });
        const workloads::RepeatedResult r =
            workloads::run_workload(workload, cfg, factory, opts);
        std::cout << (use_synpa ? "SYNPA" : "Linux") << ": turnaround "
                  << r.mean_metrics.turnaround_quanta << " quanta, fairness "
                  << r.mean_metrics.fairness << ", IPC geomean "
                  << r.mean_metrics.ipc_geomean << "\n";
    }
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
