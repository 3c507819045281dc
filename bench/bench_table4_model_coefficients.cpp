// Reproduces Table IV and §VI-A model accuracy: trains the three-category
// regression on the 22 training applications (isolated profiles + all SMT
// pairs, instruction-aligned) and reports the fitted coefficients and MSE,
// next to the paper's ThunderX2-trained values.
//
// Coefficients are substrate-specific (ours come from the simulator, the
// paper's from silicon); the comparison point is the *structure*: beta
// dominates its own category, the backend category leans hardest on the
// co-runner (large gamma), and the full-dispatch category keeps beta
// slightly below 1 with a non-negligible rho.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "model/trainer.hpp"
#include "workloads/groups.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Table IV",
                        "Model coefficients per category + fit MSE (22 training apps)");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    model::TrainerOptions opts;
    opts.isolated_quanta = static_cast<std::uint64_t>(
        common::env_int("SYNPA_BENCH_TRAIN_ISOLATED_QUANTA", 120));
    opts.pair_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_TRAIN_PAIR_QUANTA", 36));
    opts.seed = static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_SEED", 42));

    const auto training = workloads::training_apps();
    std::cout << "training applications: " << training.size() << " (of 28; "
              << workloads::holdout_apps().size() << " held out)\n";

    const model::Trainer trainer(cfg, opts);
    const model::TrainingResult result = trainer.train(training);

    std::cout << "pair runs: " << result.pair_runs
              << ", aligned samples used: " << result.sample_count << "\n\n";

    const model::InterferenceModel paper = model::InterferenceModel::paper_table4();
    common::Table table({"category", "alpha", "beta", "gamma", "rho", "MSE", "R^2",
                         "paper alpha/beta/gamma/rho", "paper MSE"});
    const std::array<double, 3> paper_mse = {0.0021, 0.0703, 0.1583};
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        const auto cat = static_cast<model::Category>(c);
        const auto& k = result.model.coefficients(cat);
        const auto& pk = paper.coefficients(cat);
        table.row()
            .add(model::kCategoryNames[c])
            .add(k.alpha, 4)
            .add(k.beta, 4)
            .add(k.gamma, 4)
            .add(k.rho, 4)
            .add(result.mse[c], 4)
            .add(result.r_squared[c], 3)
            .add(common::format_double(pk.alpha, 4) + "/" + common::format_double(pk.beta, 4) +
                 "/" + common::format_double(pk.gamma, 4) + "/" +
                 common::format_double(pk.rho, 4))
            .add(paper_mse[c], 4);
    }
    table.print(std::cout);
    std::cout << "(paper MSE column order matches the paper: full-dispatch 0.0021, "
                 "frontend 0.0703, backend 0.1583 — backend is the noisiest there too)\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
