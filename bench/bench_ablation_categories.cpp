// Ablation from §VI-A: the paper first built a ~ten-category model (backend
// split by cause) and found it performed *worse* than the three-category
// one — per-category errors compound when summed into a slowdown.  This
// bench trains both models through the same pipeline (same pair runs,
// profiles and alignment) and prints the sum of the per-category fit MSEs
// of each.  The two fits differ: the 3-category Trainer::fit uses least
// squares on a sample_fraction subset, the 8-category fit ridge on every
// sample, so the sums come from different sample sets.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "model/extended_model.hpp"
#include "model/trainer.hpp"
#include "workloads/groups.hpp"

int main() {
    using namespace synpa;
    bench::print_header("Ablation (SVI-A)",
                        "Three-category model vs fine-grained multi-category model");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    model::TrainerOptions opts;
    opts.isolated_quanta = 80;
    opts.pair_quanta = 24;
    opts.seed = static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_SEED", 42));
    // A representative cross-group subset keeps the double training pass
    // within the bench time budget.
    const std::vector<std::string> apps = {"mcf",     "lbm_r", "leela_r", "gobmk",
                                           "mcf_r",   "nab_r", "bwaves",  "hmmer",
                                           "omnetpp_r", "povray_r"};

    std::cout << "training the 3-category model...\n";
    const model::TrainingResult coarse = model::Trainer(cfg, opts).train(apps);
    std::cout << "training the " << model::kExtendedCategoryCount
              << "-category model on the same runs...\n";
    const model::ExtendedTrainingResult fine = model::ExtendedTrainer(cfg, opts).train(apps);

    // Per-category fit error.
    common::Table table({"model", "categories", "sum of category MSEs", "samples"});
    double coarse_sum = 0.0, fine_sum = 0.0;
    for (double m : coarse.mse) coarse_sum += m;
    for (double m : fine.mse) fine_sum += m;
    table.row()
        .add("SYNPA (3 categories)")
        .add(static_cast<long long>(model::kCategoryCount))
        .add(coarse_sum, 5)
        .add(static_cast<long long>(coarse.sample_count));
    table.row()
        .add("fine-grained")
        .add(static_cast<long long>(model::kExtendedCategoryCount))
        .add(fine_sum, 5)
        .add(static_cast<long long>(fine.sample_count));
    table.print(std::cout);

    common::Table detail({"fine category", "MSE"});
    for (std::size_t c = 0; c < model::kExtendedCategoryCount; ++c)
        detail.row().add(model::kExtendedCategoryNames[c]).add(fine.mse[c], 6);
    detail.print(std::cout);

    std::cout << "paper finding: \"the sum of the error deviations with more components\n"
                 "exceeds the errors of only considering the backend category as a single\n"
                 "category\" — fewer, better-measured categories win.  Measured here: "
              << (fine_sum > coarse_sum ? "reproduced" : "NOT reproduced") << " ("
              << common::format_double(fine_sum / std::max(coarse_sum, 1e-12), 2)
              << "x the 3-category error).\n";
    return 0;
}
