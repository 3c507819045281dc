// synpa_e2e — end-to-end benchmark of the SYNPA simulator.
//
//   synpa_e2e --workload <paper-closed|open-256-smt4|fleet-slo>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 (measured run): sets the workload up repeatedly (median set-up
// time), runs the Linux reference once, then repeats complete SYNPA runs
// until --seconds have elapsed, checking each against the first.
// --trace 1 (traced split): one set-up, then SYNPA untraced, traced (an
// in-memory flight recorder plus a reallocate() timing decorator) and
// untraced again; all three must be bit-identical.
//
// Prints a human-readable report, then one JSON line:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 0 only when every correctness check passed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace e2e {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") return false;
                args.trace = value == "1";
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

/// Names of inherited SYNPA_* variables: any of them could change a
/// default the bench did not pin, so their presence refuses the run.
std::vector<std::string> inherited_knobs() {
    std::vector<std::string> knobs;
    for (char** env = environ; env != nullptr && *env != nullptr; ++env)
        if (std::strncmp(*env, "SYNPA_", 6) == 0) {
            const char* eq = std::strchr(*env, '=');
            knobs.emplace_back(*env, eq != nullptr ? static_cast<std::size_t>(eq - *env)
                                                   : std::strlen(*env));
        }
    return knobs;
}

/// Nanoseconds per step of a fixed dependent integer chain (best of five):
/// a host-speed reference printed beside every result.
double calibration_ns_per_step() {
    constexpr std::uint64_t kSteps = 20'000'000;
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint64_t i = 0; i < kSteps; ++i) x = x * 6364136223846793005ull + (x >> 17);
        const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
        if (x == 42) std::cout << "";  // keeps the chain observable
        best = std::min(best, ns / static_cast<double>(kSteps));
    }
    return best;
}

void print_fingerprint() {
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
#if defined(__clang__)
    const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char* compiler = "g++ " __VERSION__;
#else
    const char* compiler = "unknown";
#endif
    std::cout << "# host: compiler=\"" << compiler << "\" build_type=" << E2E_BUILD_TYPE
              << " nproc=" << std::thread::hardware_concurrency()
              << " affinity_cpus=" << affinity
              << " calibration_ns_per_step=" << calibration_ns_per_step() << "\n";
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;
};

class Report {
public:
    void add(std::string name, double value, std::string unit, std::string note = {}) {
        metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                            std::move(unit), std::move(note)});
    }
    void fail(const std::string& what) {
        failures_.push_back(what);
        std::cout << "CHECK FAILED: " << what << "\n";
    }
    bool correct() const noexcept { return failures_.empty(); }

    /// Report lines, then the result object as the last line of stdout.
    void print(const TaskTally& tally) const {
        for (const Metric& m : metrics_) {
            std::cout << "  " << m.name << " = " << m.value << ' ' << m.unit;
            if (!m.note.empty()) std::cout << "  (" << m.note << ')';
            std::cout << "\n";
        }
        std::cout << "  failed_ratio = " << tally.failed_ratio() << " ratio  ("
                  << tally.failed << " of " << tally.attempted << " planned tasks)\n";
        std::cout << "{\"correct\": " << (correct() ? "true" : "false")
                  << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
                  << ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
            std::cout << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": "
                      << value << ", \"unit\": \"" << metrics_[i].unit << "\"}";
        }
        std::cout << "}}" << std::endl;
    }

private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
};

void check_run(Report& report, const RunOut& run, const std::string& label) {
    for (const std::string& f : run.failures) report.fail(label + ": " + f);
}

std::string tail_note(int per_mille, std::size_t n) {
    return per_mille_label(per_mille) + ", n=" + std::to_string(n);
}

/// Measured run: end-to-end metrics.
int measure(Workload& wl, const Args& args) {
    Report report;
    TaskTally tally;
    const Shape shape = wl.shape();

    // Set up at least three times and for at least a second; the median is
    // the reported set-up time.  Earlier set-ups use seeds derived from the
    // bench seed, so no set-up finds its inputs memoized by an earlier one;
    // the last one uses the bench seed and provides the runs' inputs.
    std::vector<double> setups;
    const auto setup_start = Clock::now();
    for (std::uint64_t k = 1; setups.size() < 2 || seconds_since(setup_start) < 1.0; ++k)
        setups.push_back(wl.setup(args.seed ^ (0x9e3779b97f4a7c15ull * k)).total());
    setups.push_back(wl.setup(args.seed).total());

    const RunOut linux_run = wl.run(PolicyKind::kLinux, {});
    check_run(report, linux_run, "linux");
    tally.add_run(linux_run.planned, linux_run.completed, linux_run.failures.empty());

    // Every repetition executes the same quanta in the same order, so
    // quantum i's host time is taken as its median over the repetitions:
    // a burst of other load on the host disturbs a minority of them.  The
    // host-time metrics are computed from these per-quantum medians.
    const auto t0 = Clock::now();
    RunOut first = wl.run(PolicyKind::kSynpa, {});
    // Read after a fixed amount of work, so it does not depend on how many
    // repetitions fit in the window.
    const double rss_mb = peak_rss_mb();
    std::vector<std::vector<double>> rep_ms;
    std::vector<double> run_walls;
    const auto fold = [&](RunOut& run) {
        if (run.signature != first.signature)
            run.failures.push_back("simulated outputs differ from the first run");
        if (run.quantum_ms.size() != first.quantum_ms.size())
            run.failures.push_back("on_quantum count differs from the first run");
        check_run(report, run, "synpa run " + std::to_string(run_walls.size() + 1));
        tally.add_run(run.planned, run.completed, run.failures.empty());
        run_walls.push_back(run.wall_s);
        if (run.failures.empty()) rep_ms.push_back(run.quantum_ms);
    };
    fold(first);
    while (seconds_since(t0) < args.seconds) {
        RunOut repeat = wl.run(PolicyKind::kSynpa, {});
        fold(repeat);
    }
    std::vector<double> quantum_ms(rep_ms.empty() ? 0 : rep_ms.front().size());
    for (std::size_t i = 0; i < quantum_ms.size(); ++i) {
        std::vector<double> across;
        for (const std::vector<double>& ms : rep_ms) across.push_back(ms[i]);
        quantum_ms[i] = median(std::move(across));
    }
    if (first.migrations == 0) report.fail("synpa never migrated: the decide path is idle");

    const int quantum_tail = tail_per_mille(quantum_ms.size());
    const int slowdown_tail = tail_per_mille(first.slowdowns.size());

    std::cout << "workload " << wl.name() << " seed " << args.seed << ": " << run_walls.size()
              << " synpa runs of " << first.quanta << " quanta, " << first.completed << "/"
              << first.planned << " tasks, " << first.migrations << " migrations\n";
    std::cout << "  run walls (s):";
    for (double w : run_walls) std::cout << ' ' << w;
    std::cout << "\n";
    report.add("setup_s", median(setups), "s", "median of " + std::to_string(setups.size()));
    report.add("core_mcycles_per_s",
               ratio(static_cast<double>(shape.core_cycles(quantum_ms.size())), sum(quantum_ms) / 1e3) /
                   1e6,
               "Mcycle/s", "per-quantum medians over " + std::to_string(rep_ms.size()) + " runs");
    report.add("quantum_ms_p50", median(quantum_ms), "ms",
               "n=" + std::to_string(quantum_ms.size()));
    report.add("quantum_ms_tail", percentile(quantum_ms, quantum_tail), "ms",
               tail_note(quantum_tail, quantum_ms.size()));
    report.add("peak_rss_mb", rss_mb, "MB", "after set-up, the linux run and one synpa run");
    report.add("turnaround_quanta", first.turnaround, "quanta",
               wl.driver() == Driver::kClosed ? "slowest original task" : "mean per task");
    report.add("tt_gain_vs_linux", ratio(linux_run.turnaround, first.turnaround), "ratio",
               "linux " + std::to_string(linux_run.turnaround) + " quanta");
    report.add("slowdown_mean", mean(first.slowdowns), "ratio");
    report.add("slowdown_tail", percentile(first.slowdowns, slowdown_tail), "ratio",
               tail_note(slowdown_tail, first.slowdowns.size()));
    report.add("goodput", first.goodput, "tasks/quantum");
    report.add("lc_slo_attainment",
               first.lc_planned == 0 ? 1.0
                                     : 1.0 - ratio(static_cast<double>(first.lc_violations),
                                                   static_cast<double>(first.lc_planned)),
               "ratio",
               first.lc_planned == 0
                   ? "no latency-critical tasks"
                   : "lc_violation_rate " +
                         std::to_string(ratio(static_cast<double>(first.lc_violations),
                                              static_cast<double>(first.lc_planned))));
    report.print(tally);
    return report.correct() ? 0 : 1;
}

/// Traced split: per-layer metrics.
int trace_split(Workload& wl, const Args& args) {
    Report report;
    TaskTally tally;
    const Shape shape = wl.shape();
    const Driver driver = wl.driver();

    const SetupTimes setup = wl.setup(args.seed);
    // The first run of a process is slower (cold caches, thread start-up),
    // so the overhead compares the traced run with an untraced run after it.
    const RunOut plain = wl.run(PolicyKind::kSynpa, {});
    check_run(report, plain, "untraced");
    tally.add_run(plain.planned, plain.completed, plain.failures.empty());

    synpa::obs::TraceConfig cfg;
    cfg.enabled = true;
    cfg.file.clear();  // in memory only
    cfg.event_mask = 0xFFFF'FFFFu;
    cfg.capacity = std::size_t{1} << 24;
    synpa::obs::Tracer tracer(cfg);
    RunOut traced = wl.run(PolicyKind::kSynpa, {.tracer = &tracer, .time_decide = true});
    if (traced.signature != plain.signature)
        traced.failures.push_back("simulated outputs differ from the untraced run");
    if (tracer.samples().dropped() != 0 || tracer.dropped_events() != 0)
        traced.failures.push_back("flight recorder dropped samples or events");
    if (tracer.samples().size() != traced.quanta)
        traced.failures.push_back("flight recorder holds " +
                                  std::to_string(tracer.samples().size()) + " samples for " +
                                  std::to_string(traced.quanta) + " quanta");
    check_run(report, traced, "traced");
    tally.add_run(traced.planned, traced.completed, traced.failures.empty());

    RunOut after = wl.run(PolicyKind::kSynpa, {});
    if (after.signature != plain.signature)
        after.failures.push_back("simulated outputs differ from the first untraced run");
    check_run(report, after, "untraced after traced");
    tally.add_run(after.planned, after.completed, after.failures.empty());

    std::vector<double> simulate_ms, observe_ms, decide_ms, bind_ms;
    for (std::size_t i = 0; i < tracer.samples().size(); ++i) {
        const synpa::obs::QuantumStats& s = tracer.samples().at(i);
        simulate_ms.push_back(s.simulate_us / 1000.0);
        observe_ms.push_back(s.observe_us / 1000.0);
        decide_ms.push_back(s.decide_us / 1000.0);
        bind_ms.push_back(s.bind_us / 1000.0);
    }
    const double wall_ms = traced.wall_s * 1000.0;
    const auto core_cycles = static_cast<double>(shape.core_cycles(traced.quanta));
    const int sim_tail = tail_per_mille(simulate_ms.size());
    const int decide_tail = tail_per_mille(traced.decide_ms.size());
    const bool fleet = driver == Driver::kFleet;
    const bool open = driver == Driver::kOpen;
    const auto only = [](bool applies, double value) { return applies ? value : 0.0; };

    std::cout << "workload " << wl.name() << " seed " << args.seed << " traced: "
              << traced.quanta << " quanta, " << tracer.events().size() << " events\n";
    report.add("uarch.simulate_ms_p50", median(simulate_ms), "ms",
               fleet ? "whole node step" : "");
    report.add("uarch.simulate_ms_tail", percentile(simulate_ms, sim_tail), "ms",
               tail_note(sim_tail, simulate_ms.size()));
    report.add("uarch.simulate_share", ratio(sum(simulate_ms), wall_ms), "ratio");
    report.add("uarch.core_cycles", core_cycles, "count");
    report.add("uarch.ns_per_core_cycle", ratio(sum(simulate_ms) * 1e6, core_cycles), "ns");

    report.add("core.decide_ms_p50", median(traced.decide_ms), "ms",
               fleet ? "node policies are not reachable from outside" : "");
    report.add("core.decide_ms_tail", percentile(traced.decide_ms, decide_tail), "ms",
               tail_note(decide_tail, traced.decide_ms.size()));
    report.add("core.decide_share", ratio(sum(traced.decide_ms), wall_ms), "ratio");
    report.add("core.reallocate_calls", static_cast<double>(traced.reallocate_calls), "count");
    const auto& cache = traced.cache;
    report.add("core.weight_cache.hits", static_cast<double>(cache.hits), "count");
    report.add("core.weight_cache.misses", static_cast<double>(cache.misses), "count");
    report.add("core.weight_cache.solve_reuse", static_cast<double>(cache.solve_reuse),
               "count");
    report.add("core.weight_cache.hit_rate",
               ratio(static_cast<double>(cache.hits), static_cast<double>(cache.hits + cache.misses)),
               "ratio");

    report.add("sched.observe_ms_p50", only(!fleet, median(observe_ms)), "ms");
    report.add("sched.bind_ms_p50", only(!fleet, median(bind_ms)), "ms");
    report.add("sched.migrations", static_cast<double>(traced.migrations), "count");
    report.add("sched.cross_chip_migrations", static_cast<double>(traced.cross_chip), "count");
    report.add("sched.migrations_per_quantum",
               ratio(static_cast<double>(traced.migrations), static_cast<double>(traced.quanta)),
               "1/quantum");

    report.add("model.train_s", setup.train_s, "s");
    report.add("workloads.prepare_s", setup.prepare_s, "s");
    report.add("scenario.build_trace_s", setup.build_trace_s, "s");
    report.add("scenario.queue_quanta_mean", only(open, traced.queue_mean), "quanta");
    report.add("scenario.admissions", only(open, static_cast<double>(traced.admissions)),
               "count");

    // admit_and_preempt runs outside the fleet's phase stopwatch: it is the
    // rest of the on_quantum interval once step and fold are taken out.
    double admit_ms = 0.0;
    if (fleet && traced.quantum_ms.size() == simulate_ms.size()) {
        for (std::size_t i = 0; i < simulate_ms.size(); ++i)
            admit_ms += traced.quantum_ms[i] - simulate_ms[i] - observe_ms[i];
        admit_ms /= static_cast<double>(std::max<std::size_t>(1, simulate_ms.size()));
    }
    report.add("fleet.node_step_ms_p50", only(fleet, median(simulate_ms)), "ms");
    report.add("fleet.fold_ms_p50", only(fleet, median(observe_ms)), "ms");
    report.add("fleet.admit_ms_per_quantum", admit_ms, "ms");
    report.add("fleet.admissions", only(fleet, static_cast<double>(traced.admissions)),
               "count");
    report.add("fleet.preemptions", only(fleet, static_cast<double>(traced.preemptions)),
               "count");
    report.add("fleet.preemption_ratio",
               only(fleet, ratio(static_cast<double>(traced.preemptions),
                                 static_cast<double>(traced.admissions))),
               "ratio");
    report.add("fleet.queue_quanta_mean", only(fleet, traced.queue_mean), "quanta");

    report.add("slo.lc_violation_rate",
               ratio(static_cast<double>(traced.lc_violations),
                     static_cast<double>(traced.lc_planned)),
               "ratio");
    report.add("obs.trace_overhead", ratio(traced.wall_s, after.wall_s) - 1.0, "ratio",
               "traced " + std::to_string(traced.wall_s) + " s vs untraced " +
                   std::to_string(after.wall_s) + " s");
    report.print(tally);
    return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
    e2e::Args args;
    if (!e2e::parse_args(argc, argv, args)) {
        std::cerr << "usage: synpa_e2e --workload <paper-closed|open-256-smt4|fleet-slo> "
                     "--seed <n> --seconds <s> --trace <0|1>\n";
        return 2;
    }
    const std::vector<std::string> knobs = e2e::inherited_knobs();
    if (!knobs.empty()) {
        std::cerr << "synpa_e2e: refusing to run with inherited knob(s):";
        for (const std::string& k : knobs) std::cerr << ' ' << k;
        std::cerr << "\n";
        return 2;
    }
    const std::unique_ptr<e2e::Workload> wl = e2e::make_workload(args.workload);
    if (!wl) {
        std::cerr << "synpa_e2e: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    try {
        e2e::print_fingerprint();
        return args.trace ? e2e::trace_split(*wl, args) : e2e::measure(*wl, args);
    } catch (const std::exception& e) {
        std::cerr << "synpa_e2e: " << e.what() << "\n";
        return 1;
    }
}
