// Reproduces Figure 2 / §III-B: the three-step characterization of cycles
// at the dispatch stage, shown numerically for a few representative
// applications (measured vs estimated quantities per step).
#include <iostream>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "model/categories.hpp"
#include "uarch/platform.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 2", "Characterization of cycles at the dispatch stage");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    common::Table table({"application", "cycles", "Step1 FE (M)", "Step1 BE (M)",
                         "Step1 Dc", "Step2 F-Dc (E)", "Step2 Reveals (E)", "Step3 FE",
                         "Step3 BE (+Reveals)", "Step3 FD"});
    for (const char* name : {"mcf", "leela_r", "nab_r", "perlbench", "hmmer"}) {
        uarch::SimConfig solo = cfg;
        solo.cores = 1;
        solo.num_chips = 1;
        solo.sim_threads = 1;
        uarch::Platform platform(solo);
        apps::AppInstance task(1, apps::find_app(name), 42);
        platform.bind(task, {.core = 0, .slot = 0});
        for (int q = 0; q < 20; ++q) platform.run_quantum();
        const auto b = model::characterize(task.counters(), cfg.dispatch_width);
        table.row()
            .add(name)
            .add(static_cast<long long>(b.cycles))
            .add(b.frontend_stalls_measured, 0)
            .add(b.backend_stalls_measured, 0)
            .add(b.dispatch_cycles, 0)
            .add(b.full_dispatch_cycles, 0)
            .add(b.revealed_stalls, 0)
            .add(b.categories[1], 0)
            .add(b.categories[2], 0)
            .add(b.categories[0], 0);
    }
    table.print(std::cout);
    std::cout << "(M) = measured with a performance counter, (E) = estimated from them.\n"
                 "Invariant: Step3 FD + FE + BE == cycles (the three categories tile the\n"
                 "execution exactly, as in the paper's Figure 2 bars).\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
