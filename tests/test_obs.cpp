// Flight-recorder observability contracts (src/obs):
//
//  1. Determinism — a traced run is bit-identical to an untraced run (same
//     RunResult / ScenarioResult signatures) for SMT widths {2, 4}, chips
//     {1, 4}, and SYNPA_SIM_THREADS {1, 4}: tracing only reads simulated
//     state, wall-clock never feeds back.
//  2. Structure — traced runs carry the expected event stream (quantum
//     boundaries, admissions, retirements, allocations, migrations) with
//     monotone quantum stamps, and the event mask filters per kind.
//  3. Primitives — the drop-oldest Ring, the log2-bucketed histogram
//     (bucket edges, percentiles, merge-of-shards associativity), and the
//     registry's stable instrument identity.
//  4. Export — the Chrome-trace JSON and metrics CSV contain the fields
//     tools/trace_summary.py --validate checks for, and the registry's
//     deterministic cycle counters cover every simulated core-cycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "model/interference_model.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "sched/thread_manager.hpp"
#include "signatures.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

// ------------------------------------------------------------------ ring --

TEST(Ring, DropsOldestWhenFull) {
    obs::Ring<int> ring(3);
    for (int i = 1; i <= 5; ++i) ring.push(i);
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.dropped(), 2u);
    EXPECT_EQ(ring.at(0), 3);  // oldest retained
    EXPECT_EQ(ring.at(2), 5);
}

TEST(Ring, DrainReturnsOldestFirstAndResets) {
    obs::Ring<int> ring(4);
    for (int i = 0; i < 6; ++i) ring.push(i);
    const std::vector<int> got = ring.drain();
    EXPECT_EQ(got, (std::vector<int>{2, 3, 4, 5}));
    EXPECT_TRUE(ring.empty());
    ring.push(9);
    EXPECT_EQ(ring.at(0), 9);
}

// ------------------------------------------------------------- histogram --

TEST(LogHistogram, EmptyReportsZeros) {
    obs::LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(LogHistogram, SingleSampleIsEveryPercentile) {
    obs::LogHistogram h;
    h.record(37);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 37u);
    EXPECT_EQ(h.max(), 37u);
    EXPECT_DOUBLE_EQ(h.mean(), 37.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 37.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 37.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 37.0);
}

TEST(LogHistogram, PercentileBoundsAreExactExtrema) {
    obs::LogHistogram h;
    for (const std::uint64_t v : {3u, 900u, 17u, 44u, 260u}) h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 900.0);
    const double p50 = h.percentile(0.5);
    EXPECT_GE(p50, 3.0);
    EXPECT_LE(p50, 900.0);
}

TEST(LogHistogram, BucketEdges) {
    // bit_width buckets: 0 -> bucket 0, [2^(b-1), 2^b - 1] -> bucket b.
    obs::LogHistogram h;
    h.record(0);
    h.record(1);    // bucket 1
    h.record(2);    // bucket 2 low edge
    h.record(3);    // bucket 2 high edge
    h.record(4);    // bucket 3 low edge
    h.record(7);    // bucket 3 high edge
    h.record(8);    // bucket 4
    const auto buckets = h.buckets();
    EXPECT_EQ(buckets[0], 1u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 2u);
    EXPECT_EQ(buckets[3], 2u);
    EXPECT_EQ(buckets[4], 1u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 8u);
}

TEST(LogHistogram, MergeOfShardsMatchesSerial) {
    // Three "shards" recording disjoint streams, folded in two different
    // orders, must agree with one histogram fed serially — associativity is
    // what lets per-chip histograms merge after the barrier.
    std::vector<std::uint64_t> stream;
    std::uint64_t x = 1;
    for (int i = 0; i < 300; ++i) {
        x = x * 2862933555777941757ull + 3037000493ull;  // any deterministic walk
        stream.push_back(x >> 40);
    }
    obs::LogHistogram serial;
    obs::LogHistogram shard[3];
    for (std::size_t i = 0; i < stream.size(); ++i) {
        serial.record(stream[i]);
        shard[i % 3].record(stream[i]);
    }
    obs::LogHistogram left;  // (s0 + s1) + s2
    left.merge(shard[0]);
    left.merge(shard[1]);
    left.merge(shard[2]);
    obs::LogHistogram right;  // s2 + (s1 + s0)
    obs::LogHistogram inner;
    inner.merge(shard[1]);
    inner.merge(shard[0]);
    right.merge(shard[2]);
    right.merge(inner);

    for (const obs::LogHistogram* merged : {&left, &right}) {
        EXPECT_EQ(merged->count(), serial.count());
        EXPECT_EQ(merged->min(), serial.min());
        EXPECT_EQ(merged->max(), serial.max());
        EXPECT_DOUBLE_EQ(merged->mean(), serial.mean());
        for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
            EXPECT_DOUBLE_EQ(merged->percentile(p), serial.percentile(p)) << "p=" << p;
    }
}

// -------------------------------------------------------------- registry --

TEST(MetricsRegistry, InstrumentsKeepIdentityAcrossLookups) {
    obs::MetricsRegistry reg;
    obs::Counter& c = reg.counter("quanta");
    c.add(3);
    // Registering more instruments must not invalidate the reference.
    for (int i = 0; i < 100; ++i) reg.counter(std::string("c").append(std::to_string(i)));
    obs::Counter& again = reg.counter("quanta");
    EXPECT_EQ(&again, &c);
    EXPECT_EQ(again.value(), 3u);
    EXPECT_EQ(reg.find_counter("quanta"), &c);
    EXPECT_EQ(reg.find_counter("never"), nullptr);
}

TEST(MetricsRegistry, KindMismatchThrows) {
    obs::MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), std::logic_error);
    EXPECT_THROW(reg.histogram("x"), std::logic_error);
    EXPECT_EQ(reg.find_gauge("x"), nullptr);
}

TEST(MetricsRegistry, CsvWalksRegistrationOrder) {
    obs::MetricsRegistry reg;
    reg.counter("b").add(2);
    reg.gauge("a").set(1.5);
    reg.histogram("h").record(10);
    std::ostringstream os;
    reg.write_csv(os);
    const std::string csv = os.str();
    EXPECT_EQ(csv.find("name,kind,"), 0u);
    EXPECT_LT(csv.find("b,counter"), csv.find("a,gauge"));
    EXPECT_LT(csv.find("a,gauge"), csv.find("h,histogram"));
}

// ------------------------------------------------------------ event mask --

TEST(TraceConfig, EventMaskGroups) {
    const std::uint32_t quantum_bits = obs::parse_event_mask("quantum");
    EXPECT_TRUE(quantum_bits & (1u << static_cast<unsigned>(obs::EventKind::kQuantumBegin)));
    EXPECT_TRUE(quantum_bits & (1u << static_cast<unsigned>(obs::EventKind::kQuantumEnd)));
    EXPECT_FALSE(quantum_bits & (1u << static_cast<unsigned>(obs::EventKind::kMigration)));
    EXPECT_EQ(obs::parse_event_mask("all"), 0xFFFF'FFFFu);
    const std::uint32_t combo = obs::parse_event_mask("migration, task");
    EXPECT_TRUE(combo & (1u << static_cast<unsigned>(obs::EventKind::kMigration)));
    EXPECT_TRUE(combo & (1u << static_cast<unsigned>(obs::EventKind::kAdmission)));
    EXPECT_TRUE(combo & (1u << static_cast<unsigned>(obs::EventKind::kRetirement)));
    EXPECT_THROW(obs::parse_event_mask("quantum,bogus"), std::runtime_error);
}

TEST(TraceConfig, DeriveTracePathInsertsTag) {
    EXPECT_EQ(obs::derive_trace_path("grid.json", "c0s1p2r0"), "grid-c0s1p2r0.json");
    EXPECT_EQ(obs::derive_trace_path("trace", "t1"), "trace-t1");
}

// ----------------------------------------------------------- determinism --

using testsig::signature;

uarch::SimConfig shape_config(int chips, int smt_ways, int sim_threads) {
    uarch::SimConfig cfg;
    cfg.cores = 2;
    cfg.smt_ways = smt_ways;
    cfg.num_chips = chips;
    cfg.sim_threads = sim_threads;
    cfg.cycles_per_quantum = 2'000;
    return cfg;
}

sched::PolicyConfig policy_config() {
    sched::PolicyConfig config;
    config.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    config.seed = 17;
    return config;
}

std::vector<sched::TaskSpec> closed_specs(int count) {
    const std::vector<std::string> apps = {"mcf",   "leela_r", "nab_r", "bwaves",
                                           "gobmk", "hmmer",   "lbm_r", "astar"};
    std::vector<sched::TaskSpec> specs;
    specs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        specs.push_back({.app_name = apps[static_cast<std::size_t>(i) % apps.size()],
                         .seed = static_cast<std::uint64_t>(i + 1),
                         .target_insts = 12'000,
                         .isolated_ipc = 1.0});
    return specs;
}

obs::TraceConfig memory_trace_config() {
    obs::TraceConfig cfg;
    cfg.enabled = true;  // no file: record in memory only
    return cfg;
}

std::string run_closed(int chips, int smt_ways, int sim_threads, obs::Tracer* tracer) {
    const uarch::SimConfig cfg = shape_config(chips, smt_ways, sim_threads);
    uarch::Platform platform(cfg);
    const auto policy = sched::make_policy("synpa", policy_config());
    const auto specs = closed_specs(platform.hw_contexts());
    sched::ThreadManager manager(
        platform, *policy, specs,
        {.max_quanta = 400, .record_traces = false, .tracer = tracer});
    return signature(manager.run());
}

TEST(TracedDeterminism, ClosedRunsMatchUntracedAtEveryShape) {
    for (const int smt_ways : {2, 4}) {
        for (const int chips : {1, 4}) {
            const std::string want = run_closed(chips, smt_ways, 1, nullptr);
            for (const int threads : {1, 4}) {
                obs::Tracer tracer(memory_trace_config());
                EXPECT_EQ(run_closed(chips, smt_ways, threads, &tracer), want)
                    << "chips=" << chips << " ways=" << smt_ways
                    << " threads=" << threads;
                EXPECT_GT(tracer.events().size(), 0u);
                EXPECT_GT(tracer.samples().size(), 0u);
            }
        }
    }
}

scenario::ScenarioSpec open_spec(int initial_tasks = 8) {
    scenario::ScenarioSpec spec;
    spec.name = "obs-open";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.initial_tasks = initial_tasks;
    spec.arrival_rate = 0.8;
    spec.service_quanta = 5;
    spec.horizon_quanta = 25;
    spec.seed = 9;
    return spec;
}

TEST(TracedDeterminism, OpenScenarioMatchesUntracedAtEveryShape) {
    for (const int smt_ways : {2, 4}) {
        for (const int chips : {1, 4}) {
            const uarch::SimConfig base = shape_config(chips, smt_ways, 1);
            const scenario::ScenarioTrace trace = scenario::build_trace(open_spec(), base);

            std::string want;
            {
                uarch::Platform platform(base);
                const auto policy = sched::make_policy("synpa", policy_config());
                scenario::ScenarioRunner runner(
                    platform, *policy, trace,
                    {.max_quanta = 400, .record_timeline = false});
                want = signature(runner.run());
            }
            for (const int threads : {1, 4}) {
                const uarch::SimConfig cfg = shape_config(chips, smt_ways, threads);
                uarch::Platform platform(cfg);
                const auto policy = sched::make_policy("synpa", policy_config());
                obs::Tracer tracer(memory_trace_config());
                scenario::ScenarioRunner runner(platform, *policy, trace,
                                                {.max_quanta = 400,
                                                 .record_timeline = false,
                                                 .tracer = &tracer});
                EXPECT_EQ(signature(runner.run()), want)
                    << "chips=" << chips << " ways=" << smt_ways
                    << " threads=" << threads;
                EXPECT_GT(tracer.events().size(), 0u);
            }
        }
    }
}

TEST(TracedDeterminism, ChipEventStreamIdenticalAcrossThreadCounts) {
    // The per-chip rings merge after the barrier in ascending chip order,
    // so the full event stream — not just the run result — must be
    // identical at every SYNPA_SIM_THREADS.
    const auto event_stream = [](int threads) {
        obs::Tracer tracer(memory_trace_config());
        run_closed(4, 2, threads, &tracer);
        return testsig::event_stream(tracer);
    };
    const std::string serial = event_stream(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(event_stream(4), serial);
}

TEST(TracedDeterminism, EventStreamDigestsArePinned) {
    // Captured before the three quantum drivers merged into one loop: the
    // (kind, quantum, chip, task, core) stream of one closed and one open run.
    obs::Tracer closed(memory_trace_config());
    run_closed(2, 2, 1, &closed);
    EXPECT_EQ(testsig::digest(testsig::event_stream(closed)), 0x640445c420454998ull);

    const uarch::SimConfig cfg = shape_config(2, 2, 1);
    const scenario::ScenarioTrace trace = scenario::build_trace(open_spec(), cfg);
    uarch::Platform platform(cfg);
    const auto policy = sched::make_policy("synpa", policy_config());
    obs::Tracer open(memory_trace_config());
    scenario::ScenarioRunner(platform, *policy, trace,
                             {.max_quanta = 400, .record_timeline = false, .tracer = &open})
        .run();
    EXPECT_EQ(testsig::digest(testsig::event_stream(open)), 0x5fa5b4a270bc290eull);
}

// ------------------------------------------------------- event structure --

TEST(TraceEvents, ClosedRunEmitsExpectedKindsWithMonotoneQuanta) {
    obs::Tracer tracer(memory_trace_config());
    run_closed(2, 2, 1, &tracer);

    std::array<int, obs::kEventKindCount> counts{};
    std::uint64_t last_begin = 0;
    bool first_begin = true;
    for (std::size_t i = 0; i < tracer.events().size(); ++i) {
        const obs::TraceEvent& e = tracer.events().at(i);
        counts[static_cast<std::size_t>(e.kind)]++;
        if (e.kind == obs::EventKind::kQuantumBegin) {
            if (!first_begin) {
                EXPECT_GT(e.quantum, last_begin);
            }
            last_begin = e.quantum;
            first_begin = false;
        }
    }
    EXPECT_GT(counts[static_cast<std::size_t>(obs::EventKind::kQuantumBegin)], 0);
    EXPECT_GT(counts[static_cast<std::size_t>(obs::EventKind::kQuantumEnd)], 0);
    EXPECT_GT(counts[static_cast<std::size_t>(obs::EventKind::kAllocation)], 0);
    // Finished tasks relaunch in the closed loop: admissions + retirements.
    EXPECT_GT(counts[static_cast<std::size_t>(obs::EventKind::kRetirement)], 0);
    EXPECT_GT(counts[static_cast<std::size_t>(obs::EventKind::kAdmission)], 0);

    // The registry aggregates alongside the ring.
    const obs::Counter* quanta = tracer.metrics().find_counter("quanta");
    ASSERT_NE(quanta, nullptr);
    EXPECT_GT(quanta->value(), 0u);
    ASSERT_NE(tracer.metrics().find_histogram("decide_ns"), nullptr);
    EXPECT_GT(tracer.metrics().find_histogram("decide_ns")->count(), 0u);
}

TEST(TraceEvents, EventMaskFiltersKinds) {
    obs::TraceConfig cfg = memory_trace_config();
    cfg.event_mask = obs::parse_event_mask("migration");
    obs::Tracer tracer(cfg);
    run_closed(2, 2, 1, &tracer);
    for (std::size_t i = 0; i < tracer.events().size(); ++i)
        EXPECT_EQ(tracer.events().at(i).kind, obs::EventKind::kMigration);
    // Samples and metrics still collect — the mask filters events only.
    EXPECT_GT(tracer.samples().size(), 0u);
}

TEST(TraceEvents, DisabledTracerRecordsNothing) {
    obs::TraceConfig cfg;  // enabled = false
    obs::Tracer tracer(cfg);
    run_closed(2, 2, 1, &tracer);
    EXPECT_EQ(tracer.events().size(), 0u);
    EXPECT_EQ(tracer.samples().size(), 0u);
    EXPECT_EQ(tracer.metrics().size(), 0u);
}

TEST(TraceEvents, CapacityBoundsRetainedEvents) {
    obs::TraceConfig cfg = memory_trace_config();
    cfg.capacity = 32;
    obs::Tracer tracer(cfg);
    run_closed(2, 2, 1, &tracer);
    EXPECT_LE(tracer.events().size(), 32u);
    EXPECT_GT(tracer.dropped_events(), 0u);
}

// ---------------------------------------------------------------- export --

TEST(TraceExport, ChromeTraceCarriesRequiredFields) {
    obs::Tracer tracer(memory_trace_config());
    run_closed(2, 2, 1, &tracer);

    std::ostringstream os;
    obs::write_chrome_trace(os, tracer);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // quantum slices
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);   // counters
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);   // process names
    EXPECT_NE(json.find("\"pid\":"), std::string::npos);
    EXPECT_NE(json.find("\"ts\":"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"quantum\""), std::string::npos);
    EXPECT_NE(json.find("policy_wall_us"), std::string::npos);

    std::ostringstream csv_os;
    obs::write_metrics_csv(csv_os, tracer);
    const std::string csv = csv_os.str();
    EXPECT_EQ(csv.find("quantum,live,queued,utilization,migrations"), 0u);
    EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 1);
}

TEST(TraceExport, MetricsCsvPathDerivation) {
    EXPECT_EQ(obs::metrics_csv_path("t.json"), "t.metrics.csv");
    EXPECT_EQ(obs::metrics_csv_path("trace"), "trace.metrics.csv");
    EXPECT_EQ(obs::registry_csv_path("t.json"), "t.registry.csv");
    EXPECT_EQ(obs::registry_csv_path("trace"), "trace.registry.csv");
}

TEST(TraceExport, MissingTraceDirectoryIsRejectedBeforeTheRun) {
    // A trace file in a directory that does not exist fails at construction,
    // naming the knob, instead of after the whole run when finish() exports.
    obs::TraceConfig cfg = memory_trace_config();
    cfg.file = ::testing::TempDir() + "obs-no-such-dir/trace.json";
    try {
        obs::Tracer tracer(cfg);
        ADD_FAILURE() << "Tracer accepted " << cfg.file;
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("SYNPA_TRACE_FILE"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("obs-no-such-dir"), std::string::npos) << e.what();
    }
    // A disabled tracer never writes, so its path is not checked.
    cfg.enabled = false;
    EXPECT_NO_THROW(obs::Tracer{cfg});
    cfg.enabled = true;
    cfg.file = ::testing::TempDir() + "obs-existing-dir-trace.json";
    EXPECT_NO_THROW(obs::Tracer{cfg});
}

TEST(TraceExport, FinishExportsTheMetricsRegistry) {
    // Every recorded instrument is exported: a traced synpa run's
    // cost-evaluation and model-inversion counters reach the registry CSV
    // written next to the trace.
    obs::TraceConfig cfg = memory_trace_config();
    cfg.file = ::testing::TempDir() + "obs-registry-export.json";
    obs::Tracer tracer(cfg);
    run_closed(2, 2, 1, &tracer);
    const char* const counters[] = {"core.cost_evaluations", "model.inversions",
                                    "model.inversion_fallbacks", "model.inversion_iterations"};
    for (const char* name : counters)
        ASSERT_NE(tracer.metrics().find_counter(name), nullptr) << name;
    const obs::MetricsRegistry& m = tracer.metrics();
    EXPECT_GT(m.find_counter("model.inversions")->value(), 0u);
    EXPECT_LE(m.find_counter("model.inversion_fallbacks")->value(),
              m.find_counter("model.inversions")->value());
    tracer.finish();

    std::ifstream in(obs::registry_csv_path(cfg.file));
    ASSERT_TRUE(in) << "no registry CSV next to " << cfg.file;
    const std::string csv((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(csv.find("name,kind,"), 0u);
    for (const char* name : counters)
        EXPECT_NE(csv.find("\n" + std::string(name) + ",counter,"), std::string::npos) << name;
}

TEST(TraceExport, CycleCountersCoverEveryCoreCycleAtEveryThreadCount) {
    // uarch.cycles_ticked + uarch.cycles_skipped account for every simulated
    // core-cycle (chips x cores x cycles_per_quantum x quanta), and both are
    // deterministic work: the same at SYNPA_SIM_THREADS 1 and 4.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const int threads : {1, 4}) {
        obs::Tracer tracer(memory_trace_config());
        run_closed(4, 2, threads, &tracer);
        const obs::MetricsRegistry& m = tracer.metrics();
        const obs::Counter* ticked = m.find_counter("uarch.cycles_ticked");
        const obs::Counter* skipped = m.find_counter("uarch.cycles_skipped");
        const obs::Counter* quanta = m.find_counter("quanta");
        ASSERT_NE(ticked, nullptr);
        ASSERT_NE(skipped, nullptr);
        ASSERT_NE(quanta, nullptr);
        const uarch::SimConfig cfg = shape_config(4, 2, threads);
        EXPECT_EQ(ticked->value() + skipped->value(),
                  static_cast<std::uint64_t>(cfg.num_chips) *
                      static_cast<std::uint64_t>(cfg.cores) * cfg.cycles_per_quantum *
                      quanta->value())
            << "threads=" << threads;
        EXPECT_GT(ticked->value(), 0u);
        EXPECT_GT(skipped->value(), 0u);
        seen.emplace_back(ticked->value(), skipped->value());
    }
    EXPECT_EQ(seen[0], seen[1]);
}

TEST(TraceExport, LargeScenarioTraceExportsCleanly) {
    // A 512-context open scenario (4 chips x 64 cores x 2-way SMT): the
    // trace must export without overflow or quadratic blowup, with every
    // quantum slice monotone — the shape tools/trace_summary.py --validate
    // checks on the CI artifact.
    uarch::SimConfig cfg;
    cfg.cores = 64;
    cfg.smt_ways = 2;
    cfg.num_chips = 4;
    cfg.sim_threads = 2;
    cfg.cycles_per_quantum = 1'000;
    uarch::Platform platform(cfg);
    ASSERT_EQ(platform.hw_contexts(), 512);

    scenario::ScenarioSpec spec = open_spec(256);
    spec.arrival_rate = 8.0;
    spec.horizon_quanta = 12;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);

    const auto policy = sched::make_policy("synpa", policy_config());
    obs::Tracer tracer(memory_trace_config());
    scenario::ScenarioRunner runner(
        platform, *policy, trace,
        {.max_quanta = 100, .record_timeline = false, .tracer = &tracer});
    runner.run();

    EXPECT_GT(tracer.events().size(), 100u);
    std::ostringstream os;
    obs::write_chrome_trace(os, tracer);
    EXPECT_GT(os.str().size(), 10'000u);
}

}  // namespace
