// Pins the flight recorder's overhead contract (src/obs/trace.hpp):
//
//   * tracing OFF (null tracer, or attached-but-disabled) costs one
//     predictable branch per site — wall-clock within run-to-run noise of
//     the uninstrumented baseline;
//   * tracing ON (in-memory ring, all events) costs <= 5% throughput.
//
// Method: the same closed 2-chip workload runs `reps` times per mode and
// the best (minimum) wall time per mode is compared — min-of-reps is the
// standard way to strip scheduler noise from a throughput gate.  Noise is
// measured as the baseline's own rep spread and added to both gates, so a
// jittery container doesn't flake the bench.
//
// SYNPA_BENCH_STRICT (default 1) turns gate misses into a nonzero exit;
// SYNPA_BENCH_REPS scales the repetitions.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/config.hpp"
#include "common/main_guard.hpp"
#include "common/table.hpp"
#include "model/interference_model.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "sched/thread_manager.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

uarch::SimConfig bench_config() {
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.smt_ways = 2;
    cfg.num_chips = 2;
    cfg.sim_threads = 1;  // serial platform: measure instrumentation, not the pool
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

std::vector<sched::TaskSpec> bench_specs(int count) {
    const std::vector<std::string> apps = {"mcf",   "leela_r", "nab_r", "bwaves",
                                           "gobmk", "hmmer",   "lbm_r", "astar"};
    std::vector<sched::TaskSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({.app_name = apps[static_cast<std::size_t>(i) % apps.size()],
                         .seed = static_cast<std::uint64_t>(i + 1),
                         .target_insts = 60'000,
                         .isolated_ipc = 1.0});
    return specs;
}

/// One full closed run; returns wall seconds.
double run_once(obs::Tracer* tracer) {
    const uarch::SimConfig cfg = bench_config();
    uarch::Platform platform(cfg);
    sched::PolicyConfig pconfig;
    pconfig.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    pconfig.seed = 17;
    const auto policy = sched::make_policy("synpa", pconfig);
    const auto specs = bench_specs(platform.hw_contexts());
    sched::ThreadManager manager(
        platform, *policy, specs,
        {.max_quanta = 2'000, .record_traces = false, .tracer = tracer});
    const auto t0 = std::chrono::steady_clock::now();
    manager.run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

struct ModeResult {
    double best = 0.0;
    double worst = 0.0;
};

template <typename MakeTracer>
ModeResult measure(int reps, MakeTracer make_tracer) {
    ModeResult r;
    for (int i = 0; i < reps; ++i) {
        auto tracer = make_tracer();
        const double t = run_once(tracer.get());
        if (i == 0 || t < r.best) r.best = t;
        if (i == 0 || t > r.worst) r.worst = t;
    }
    return r;
}

}  // namespace

int run_program() {
    bench::print_header("trace overhead",
                        "flight-recorder cost: off within noise, on <= 5%");
    const int reps = static_cast<int>(
        std::max<std::int64_t>(3, common::env_int("SYNPA_BENCH_REPS", 5)));
    const bool strict = common::env_int("SYNPA_BENCH_STRICT", 1) != 0;

    // Warm-up: first run pays one-time costs (page faults, app table init).
    run_once(nullptr);

    const ModeResult baseline =
        measure(reps, [] { return std::unique_ptr<obs::Tracer>(); });
    const ModeResult attached_off = measure(reps, [] {
        obs::TraceConfig cfg;  // enabled = false
        return std::make_unique<obs::Tracer>(cfg);
    });
    const ModeResult enabled = measure(reps, [] {
        obs::TraceConfig cfg;
        cfg.enabled = true;  // in-memory: export cost is not the loop's cost
        return std::make_unique<obs::Tracer>(cfg);
    });

    // Run-to-run noise of the measurement itself, from the baseline spread.
    const double noise = baseline.best > 0.0
                             ? (baseline.worst - baseline.best) / baseline.best
                             : 0.0;
    const double off_overhead = attached_off.best / baseline.best - 1.0;
    const double on_overhead = enabled.best / baseline.best - 1.0;
    const double off_gate = noise + 0.02;
    const double on_gate = noise + 0.05;

    common::Table table({"mode", "best (s)", "overhead", "gate", "verdict"});
    const auto row = [&](const std::string& mode, const ModeResult& r, double overhead,
                         double gate, bool gated) {
        table.row()
            .add(mode)
            .add(r.best, 4)
            .add_pct(overhead, 1)
            .add(gated ? "<= " + common::format_double(gate * 100.0, 1) + "%" : "-")
            .add(!gated ? "baseline" : (overhead <= gate ? "PASS" : "FAIL"));
    };
    row("no tracer", baseline, 0.0, 0.0, false);
    row("attached, disabled", attached_off, off_overhead, off_gate, true);
    row("enabled, in-memory", enabled, on_overhead, on_gate, true);
    table.print(std::cout);
    std::cout << "reps " << reps << ", baseline noise "
              << common::format_double(noise * 100.0, 1) << "% (added to both gates)\n";

    const bool ok = off_overhead <= off_gate && on_overhead <= on_gate;
    if (!ok) {
        std::cout << "FAIL: tracing overhead above gate\n";
        return strict ? 1 : 0;
    }
    std::cout << "PASS: tracing-off within noise, tracing-on within 5%\n";
    return 0;
}

int main() { return synpa::common::guarded_main(run_program); }
