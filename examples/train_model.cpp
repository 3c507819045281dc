// train_model — trains the Equation-1 interference model on a custom set of
// applications and validates it on held-out pairs: predicted vs measured
// slowdown for applications the model never saw during training.
//
// Usage: train_model [app ...]     (default: the paper's 22-app training set)
#include <iostream>
#include <string>
#include <vector>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "model/trainer.hpp"
#include "pmu/events.hpp"
#include "uarch/platform.hpp"
#include "workloads/groups.hpp"

namespace {

using namespace synpa;

/// Measures the true slowdowns of a pair sharing one SMT core.
std::pair<double, double> measure_pair(const std::string& a, const std::string& b,
                                       const uarch::SimConfig& cfg) {
    uarch::SimConfig solo = cfg;
    solo.cores = 1;
    const auto prof_a = model::profile_isolated(apps::find_app(a), solo, 60, 1);
    const auto prof_b = model::profile_isolated(apps::find_app(b), solo, 60, 2);
    solo.num_chips = 1;
    solo.sim_threads = 1;
    uarch::Platform platform(solo);
    apps::AppInstance ta(1, apps::find_app(a), 1);
    apps::AppInstance tb(2, apps::find_app(b), 2);
    platform.bind(ta, {.core = 0, .slot = 0});
    platform.bind(tb, {.core = 0, .slot = 1});
    for (int q = 0; q < 20; ++q) platform.run_quantum();
    const auto slowdown = [](const apps::AppInstance& t, const model::IsolatedProfile& p) {
        const std::uint64_t insts = std::min(t.insts_retired(), p.total_instructions() - 1);
        return static_cast<double>(t.counters().value(pmu::Event::kCpuCycles)) /
               p.cycles_for(0, insts);
    };
    return {slowdown(ta, prof_a), slowdown(tb, prof_b)};
}

}  // namespace

int run_program(int argc, char** argv) {
    std::vector<std::string> training;
    for (int i = 1; i < argc; ++i) training.emplace_back(argv[i]);
    if (training.empty()) training = workloads::training_apps();

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    std::cout << "training on " << training.size() << " applications...\n";
    model::TrainerOptions opts;
    opts.isolated_quanta = 100;
    opts.pair_quanta = 30;
    const model::TrainingResult result = model::Trainer(cfg, opts).train(training);

    std::cout << "\nfitted coefficients:\n" << result.model.to_string() << "\nfit quality:\n";
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        std::cout << "  " << model::kCategoryNames[c] << ": MSE " << result.mse[c]
                  << ", R^2 " << result.r_squared[c] << "\n";

    // Validate on held-out applications (never seen during training).
    std::cout << "\nvalidation on held-out pairs (predicted vs measured slowdown):\n";
    common::Table table({"pair", "predicted A|B", "measured A|B", "predicted B|A",
                         "measured B|A"});
    const auto holdout = workloads::holdout_apps();
    for (std::size_t i = 0; i + 1 < holdout.size(); i += 2) {
        const std::string& a = holdout[i];
        const std::string& b = holdout[i + 1];
        uarch::SimConfig solo = cfg;
        solo.cores = 1;
        const auto fa = model::profile_isolated(apps::find_app(a), solo, 40, 1)
                            .overall_fractions();
        const auto fb = model::profile_isolated(apps::find_app(b), solo, 40, 2)
                            .overall_fractions();
        const auto [ma, mb] = measure_pair(a, b, cfg);
        table.row()
            .add(a + " + " + b)
            .add(result.model.predict_slowdown(fa, fb), 2)
            .add(ma, 2)
            .add(result.model.predict_slowdown(fb, fa), 2)
            .add(mb, 2);
    }
    table.print(std::cout);
    return 0;
}

int main(int argc, char** argv) {
    return synpa::common::guarded_main([&] { return run_program(argc, argv); });
}
