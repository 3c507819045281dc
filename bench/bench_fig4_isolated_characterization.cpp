// Reproduces Figure 4: the execution-time distribution of all 28
// applications in isolated execution, as stacked full-dispatch / frontend /
// backend bars.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "workloads/groups.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Figure 4",
                        "Characterization of the applications in isolated execution");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    const auto chars =
        workloads::characterize_suite(cfg, bench::characterization_quanta(), 42);

    common::Table table({"application", "IPC", "FD", "FE", "BE",
                         "bar (#=full-dispatch F=frontend B=backend)", "group"});
    for (const auto& c : chars) {
        table.row()
            .add(c.name)
            .add(c.ipc, 2)
            .add_pct(c.fractions[0])
            .add_pct(c.fractions[1])
            .add_pct(c.fractions[2])
            .add(common::stacked_bar(c.fractions[0], c.fractions[1], c.fractions[2], 40))
            .add(workloads::group_name(c.group));
    }
    table.print(std::cout);
    std::cout << "paper reference: backend-bound apps show >65% BE stalls, frontend-bound\n"
                 ">35% FE stalls; Others span ~20% (hmmer) to ~61% (nab_r) full dispatch.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
