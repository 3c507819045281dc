// Campaign-engine orchestration baseline: cells/second and the
// serial-vs-parallel speedup on a reduced fig5-style grid.  Future PRs that
// touch the engine (scheduling, caching, aggregation) compare against these
// numbers to catch orchestration-overhead regressions.
//
// Knobs: SYNPA_BENCH_WORKLOADS (grid width, default 6), plus the usual
// SYNPA_BENCH_* scales.  Training, characterization, and the process-wide
// isolated target-profile cache are all warmed *before* either timer
// starts, so both modes measure the same thing: cell execution plus
// engine overhead, from an equally warm start.
#include <iostream>

#include "bench_common.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"

int run_program() {
    using namespace synpa;
    bench::print_header("Campaign throughput",
                        "cells/second and serial-vs-parallel speedup of the engine");

    const uarch::SimConfig cfg = uarch::SimConfig::from_env();
    workloads::MethodologyOptions opts = bench::default_methodology();
    opts.record_traces = false;

    exp::Campaign campaign = bench::paper_eval_campaign(cfg, opts);
    campaign.name = "campaign-throughput";

    // Reduce the workload axis: expand the paper grid once, keep the first N.
    const std::size_t width =
        static_cast<std::size_t>(common::env_int("SYNPA_BENCH_WORKLOADS", 6));
    {
        exp::ArtifactCache warmup;
        const auto chars =
            warmup.characterizations(cfg, campaign.characterization_quanta, opts.seed);
        auto specs = workloads::paper_workloads(*chars, opts.seed);
        if (specs.size() > width) specs.resize(width);
        campaign.workloads = std::move(specs);
        campaign.use_paper_workloads = false;
    }
    const std::size_t cells = campaign.workloads.size() * campaign.policies.size();
    std::cout << "grid: " << campaign.workloads.size() << " workloads x "
              << campaign.policies.size() << " policies x " << opts.reps << " reps = "
              << cells << " cells\n\n";

    struct Mode {
        const char* label;
        std::size_t threads;
    };
    const std::size_t hw = std::thread::hardware_concurrency();
    const std::vector<Mode> modes = {{"serial", 1}, {"parallel", hw}};

    common::Table table({"mode", "threads", "wall (s)", "cells/s", "reps/s", "speedup"});
    double serial_seconds = 0.0;
    // Warm the process-global target-profile cache (prepare_workload's
    // expensive inner step) once, untimed — otherwise the first timed mode
    // would pay all the isolated profiling and bias the speedup.
    {
        exp::ArtifactCache prewarm;
        for (const auto& spec : campaign.workloads)
            for (int rep = 0; rep < opts.reps; ++rep)
                (void)prewarm.prepared(spec, cfg, opts, rep);
    }

    for (const Mode& mode : modes) {
        const bool is_serial = &mode == &modes.front();
        // A private cache per mode: artifacts are pre-resolved untimed, so
        // both modes execute exactly the same cell work from a warm start.
        exp::ArtifactCache cache;
        cache.training(cfg, campaign.trainer, workloads::training_apps());
        cache.characterizations(cfg, campaign.characterization_quanta, opts.seed);
        exp::CampaignRunner runner({.threads = mode.threads}, &cache);
        const exp::CampaignResult result = runner.run(campaign);
        if (is_serial) serial_seconds = result.wall_seconds;
        table.row()
            .add(mode.label)
            .add(static_cast<long long>(mode.threads))
            .add(result.wall_seconds, 2)
            .add(static_cast<double>(result.cells.size()) / result.wall_seconds, 2)
            .add(static_cast<double>(result.reps_executed) / result.wall_seconds, 2)
            .add(serial_seconds > 0.0 ? serial_seconds / result.wall_seconds : 0.0, 2);
    }
    table.print(std::cout);
    std::cout << "speedup = serial wall / mode wall on " << hw << " hardware threads;\n"
                 "overheads to watch: artifact-cache locking, reorder-buffer emission,\n"
                 "per-rep policy construction.\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
