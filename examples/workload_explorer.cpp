// workload_explorer — runs one workload under every allocation policy and
// compares turnaround, fairness, IPC and migration counts.
//
// Usage: workload_explorer [workload-name] [reps]
//   workload-name: one of be0-be4, fe0-fe4, fb0-fb9 (default fb2)
//
// Demonstrates the full public API: suite characterization, workload
// construction, model training, policy construction (Linux / Random /
// Oracle / SYNPA variants) and the measurement methodology.
#include <iostream>
#include <memory>
#include <string>

#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "core/synpa_policy.hpp"
#include "model/trainer.hpp"
#include "sched/baselines.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/groups.hpp"
#include "workloads/methodology.hpp"

int run_program(int argc, char** argv) {
    using namespace synpa;
    const std::string workload_name = argc > 1 ? argv[1] : "fb2";
    const int reps = argc > 2 ? std::atoi(argv[2]) : 1;

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts;
    opts.reps = reps;

    std::cout << "characterizing the 28-application suite...\n";
    const auto chars = workloads::characterize_suite(cfg, 40, opts.seed);
    workloads::calibrate_suite(cfg, 30, opts.seed);  // oracle needs phase truth
    const auto specs = workloads::paper_workloads(chars, opts.seed);
    const workloads::WorkloadSpec& spec = workloads::workload_by_name(specs, workload_name);

    std::cout << "workload " << spec.name << ":";
    for (const auto& a : spec.app_names) std::cout << ' ' << a;
    std::cout << "\n\ntraining the interference model...\n";
    model::TrainerOptions topts;
    topts.seed = opts.seed;
    const model::TrainingResult trained =
        model::Trainer(cfg, topts).train(workloads::training_apps());

    struct Candidate {
        std::string label;
        workloads::PolicyFactory factory;
    };
    const std::vector<Candidate> candidates = {
        {"linux", [](std::uint64_t) { return std::make_unique<sched::LinuxPolicy>(); }},
        {"random",
         [](std::uint64_t seed) { return std::make_unique<sched::RandomPolicy>(seed); }},
        {"oracle",
         [&](std::uint64_t) { return std::make_unique<sched::OraclePolicy>(trained.model); }},
        {"synpa",
         [&](std::uint64_t) { return std::make_unique<core::SynpaPolicy>(trained.model); }},
        {"synpa-greedy",
         [&](std::uint64_t) {
             core::SynpaPolicy::Options o;
             o.selector = core::PairSelector::kGreedy;
             return std::make_unique<core::SynpaPolicy>(trained.model, o);
         }},
    };

    common::Table table({"policy", "TT (quanta)", "TT speedup vs linux", "fairness",
                         "IPC geomean", "migrations/quantum"});
    double linux_tt = 0.0;
    for (const auto& cand : candidates) {
        const workloads::RepeatedResult r =
            workloads::run_workload(spec, cfg, cand.factory, opts);
        if (cand.label == "linux") linux_tt = r.mean_metrics.turnaround_quanta;
        table.row()
            .add(cand.label)
            .add(r.mean_metrics.turnaround_quanta, 1)
            .add(linux_tt > 0.0 ? linux_tt / r.mean_metrics.turnaround_quanta : 0.0, 3)
            .add(r.mean_metrics.fairness, 3)
            .add(r.mean_metrics.ipc_geomean, 3)
            .add(static_cast<double>(r.exemplar.migrations) /
                     static_cast<double>(std::max<std::uint64_t>(1, r.exemplar.quanta_executed)),
                 2);
    }
    table.print(std::cout);
    return 0;
}

int main(int argc, char** argv) {
    return synpa::common::guarded_main([&] { return run_program(argc, argv); });
}
