// characterize_app — runs one application alone on the simulated chip and
// walks through the paper's three-step dispatch-stage characterization
// (Figure 2), printing each intermediate quantity and the final category
// fractions, plus a per-quantum timeline.
//
// Usage: characterize_app [app-name] [quanta]     (default: leela_r, 30)
#include <iostream>
#include <string>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "model/categories.hpp"
#include "pmu/counters.hpp"
#include "uarch/platform.hpp"

int run_program(int argc, char** argv) {
    using namespace synpa;
    const std::string name = argc > 1 ? argv[1] : "leela_r";
    const int quanta = argc > 2 ? std::atoi(argv[2]) : 30;

    uarch::SimConfig cfg = uarch::SimConfig::from_env();
    cfg.cores = 1;
    cfg.num_chips = 1;
    cfg.sim_threads = 1;
    uarch::Platform platform(cfg);
    apps::AppInstance task(1, apps::find_app(name), 42);
    platform.bind(task, {.core = 0, .slot = 0});

    // Read the task's counters once per quantum and difference them, like
    // the paper's perf-based manager (characterize() uses the four Table I
    // events).
    common::Table timeline({"quantum", "IPC", "FD", "FE", "BE", "bar", "phase"});
    pmu::CounterBank prev;
    for (int q = 0; q < quanta; ++q) {
        platform.run_quantum();
        const pmu::CounterBank now = task.counters();
        const auto b = model::characterize(now.delta_since(prev), cfg.dispatch_width);
        prev = now;
        const auto f = b.fractions();
        timeline.row()
            .add(static_cast<long long>(q))
            .add(b.ipc(), 2)
            .add_pct(f[0])
            .add_pct(f[1])
            .add_pct(f[2])
            .add(common::stacked_bar(f[0], f[1], f[2], 30))
            .add(task.profile().phases[task.phase_index()].name);
    }

    std::cout << "application: " << name << " (" << task.profile().phase_count()
              << " phase(s))\n\n";
    const auto total = model::characterize(task.counters(), cfg.dispatch_width);
    std::cout << "three-step characterization over the whole run:\n"
              << "  cycles                 " << total.cycles << "\n"
              << "  instructions (spec)    " << total.instructions << "\n"
              << "  step 1: frontend stalls " << total.frontend_stalls_measured
              << ", backend stalls " << total.backend_stalls_measured
              << ", dispatch cycles " << total.dispatch_cycles << "\n"
              << "  step 2: full-dispatch  " << total.full_dispatch_cycles
              << ", revealed horizontal waste " << total.revealed_stalls << "\n"
              << "  step 3: FD / FE / BE = " << total.categories[0] << " / "
              << total.categories[1] << " / " << total.categories[2] << "\n\n";
    timeline.print(std::cout);
    return 0;
}

int main(int argc, char** argv) {
    return synpa::common::guarded_main([&] { return run_program(argc, argv); });
}
