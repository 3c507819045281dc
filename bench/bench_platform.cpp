// Prints the simulated platform configuration (paper Table II) and the
// scale knobs in effect, so every bench run is self-describing.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "uarch/sim_config.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Table II", "Simulated platform configuration");
    const uarch::SimConfig cfg = uarch::SimConfig::from_env();

    common::Table table({"parameter", "value", "paper (ThunderX2 CN9975)"});
    table.row().add("chips").add(static_cast<long long>(cfg.num_chips)).add(
        "dual-socket target boxes (SYNPA_NUM_CHIPS)");
    table.row().add("SMT ways").add(static_cast<long long>(cfg.smt_ways)).add(
        "BIOS-configurable 1/2/4 (SYNPA_SMT_WAYS)");
    table.row().add("dispatch width").add(static_cast<long long>(cfg.dispatch_width)).add("4");
    table.row().add("ROB size").add(static_cast<long long>(cfg.rob_size)).add("128");
    table.row().add("IQ size").add(static_cast<long long>(cfg.iq_size)).add("60");
    table.row()
        .add("load/store buffer")
        .add(std::to_string(cfg.load_buffer) + "/" + std::to_string(cfg.store_buffer))
        .add("64/36");
    table.row().add("L1I / L1D (KB)").add(common::format_double(cfg.l1i_kb, 0) + " / " +
                                          common::format_double(cfg.l1d_kb, 0)).add("32 / 32");
    table.row().add("L2 (KB)").add(cfg.l2_kb, 0).add("256");
    table.row().add("shared LLC (MB)").add(cfg.llc_mb, 0).add("28");
    table.row().add("cores used").add(static_cast<long long>(cfg.cores)).add(
        "4 of 28 (8-app workloads)");
    table.row()
        .add("cycles per quantum")
        .add(static_cast<long long>(cfg.cycles_per_quantum))
        .add("~2.2e8 (100 ms)");
    table.row().add("DRAM latency (cycles)").add(static_cast<long long>(cfg.mem_latency)).add(
        "(machine-specific)");
    table.print(std::cout);
    std::cout << "time scales are configurable via SYNPA_* environment variables; the\n"
                 "structure sizes match the paper's Table II exactly.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
