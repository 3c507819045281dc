// Tests for the fleet serving layer (src/fleet/): SLO-class sampling in
// scenario traces, the fleet-policy registry (lookup, errors, and a
// parameterized sweep running *every* registered fleet policy), priority
// preemption semantics, pinned SLO-metric arithmetic, and the determinism
// contract — bit-identical fleet runs at every SYNPA_SIM_THREADS x
// fleet-thread combination, pinned the way test_parallel_engine.cpp pins a
// single node.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exp/artifact_cache.hpp"
#include "exp/fleet_grid.hpp"
#include "fleet/metrics.hpp"
#include "fleet/policy.hpp"
#include "fleet/runner.hpp"
#include "model/interference_model.hpp"
#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/registry.hpp"
#include "signatures.hpp"

namespace {

using namespace synpa;

uarch::SimConfig node_config(int chips = 1, int cores = 4, int smt_ways = 2,
                             int sim_threads = 1) {
    uarch::SimConfig cfg;
    cfg.num_chips = chips;
    cfg.cores = cores;
    cfg.smt_ways = smt_ways;
    cfg.sim_threads = sim_threads;
    cfg.cycles_per_quantum = 4'000;
    return cfg;
}

sched::PolicyConfig test_policy_config(std::uint64_t seed = 11) {
    sched::PolicyConfig config;
    config.model = std::make_shared<const model::InterferenceModel>(
        model::InterferenceModel::paper_table4());
    config.seed = seed;
    return config;
}

/// A small open scenario with both SLO classes in the mix.
scenario::ScenarioSpec fleet_spec() {
    scenario::ScenarioSpec spec;
    spec.name = "fleet-open";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"mcf", "leela_r", "gobmk", "nab_r"};
    spec.initial_tasks = 4;
    spec.arrival_rate = 0.4;
    spec.service_quanta = 5;
    spec.horizon_quanta = 24;
    spec.seed = 7;
    spec.lc_fraction = 0.35;
    return spec;
}

fleet::FleetOptions fleet_options(std::string fleet_policy, int nodes = 2) {
    fleet::FleetOptions fo;
    fo.nodes = nodes;
    fo.node_config = node_config();
    fo.node_policy = "synpa";
    fo.fleet_policy = std::move(fleet_policy);
    fo.policy_config = test_policy_config();
    fo.fleet_seed = 21;
    fo.max_quanta = 5'000;
    return fo;
}

obs::TraceConfig memory_trace_config() {
    obs::TraceConfig cfg;
    cfg.enabled = true;  // no file: record in memory only
    return cfg;
}

// ------------------------------------------------------- scenario SLO --

TEST(ScenarioSlo, SamplesBothClassesWithContracts) {
    const uarch::SimConfig cfg = node_config();
    const scenario::ScenarioSpec spec = fleet_spec();
    const scenario::ScenarioTrace a = scenario::build_trace(spec, cfg);
    const scenario::ScenarioTrace b = scenario::build_trace(spec, cfg);

    ASSERT_FALSE(a.tasks.empty());
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    std::size_t lc = 0, batch = 0;
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        const scenario::PlannedTask& task = a.tasks[i];
        // Same seed => bit-identical SLO contract on every task.
        EXPECT_EQ(task.slo, b.tasks[i].slo);
        EXPECT_EQ(task.priority, b.tasks[i].priority);
        EXPECT_EQ(task.deadline_quantum, b.tasks[i].deadline_quantum);

        if (task.slo == scenario::SloClass::kLatencyCritical) {
            ++lc;
            EXPECT_EQ(task.priority, spec.lc_priority);
        } else {
            ++batch;
            EXPECT_EQ(task.priority, spec.batch_priority);
        }
        // Every sampled task has positive isolated IPC, so a deadline.
        EXPECT_GT(task.deadline_quantum,
                  static_cast<double>(task.arrival_quantum));
    }
    EXPECT_GT(lc, 0u) << "lc_fraction=0.35 sampled no latency-critical task";
    EXPECT_GT(batch, 0u);
}

TEST(ScenarioSlo, DedicatedStreamKeepsLegacyTracesBitIdentical) {
    const uarch::SimConfig cfg = node_config();
    scenario::ScenarioSpec legacy = fleet_spec();
    legacy.lc_fraction = 0.0;
    scenario::ScenarioSpec classed = fleet_spec();
    classed.lc_fraction = 0.7;

    const scenario::ScenarioTrace a = scenario::build_trace(legacy, cfg);
    const scenario::ScenarioTrace b = scenario::build_trace(classed, cfg);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        // The SLO stream must not perturb arrivals or demand sampling.
        EXPECT_EQ(a.tasks[i].arrival_quantum, b.tasks[i].arrival_quantum);
        EXPECT_EQ(a.tasks[i].app_name, b.tasks[i].app_name);
        EXPECT_EQ(a.tasks[i].seed, b.tasks[i].seed);
        EXPECT_EQ(a.tasks[i].service_insts, b.tasks[i].service_insts);
        EXPECT_EQ(a.tasks[i].isolated_ipc, b.tasks[i].isolated_ipc);
        EXPECT_EQ(a.tasks[i].slo, scenario::SloClass::kBatch);
    }
}

TEST(ScenarioSlo, FingerprintCoversSloFields) {
    const scenario::ScenarioSpec base = fleet_spec();
    const std::uint64_t fp = scenario::scenario_fingerprint(base);

    scenario::ScenarioSpec s = base;
    s.lc_fraction = 0.5;
    EXPECT_NE(scenario::scenario_fingerprint(s), fp);
    s = base;
    s.lc_deadline_slack = 5.0;
    EXPECT_NE(scenario::scenario_fingerprint(s), fp);
    s = base;
    s.batch_deadline_slack = 12.0;
    EXPECT_NE(scenario::scenario_fingerprint(s), fp);
    s = base;
    s.lc_priority = 7;
    EXPECT_NE(scenario::scenario_fingerprint(s), fp);
    s = base;
    s.batch_priority = 1;
    EXPECT_NE(scenario::scenario_fingerprint(s), fp);
}

TEST(ScenarioSlo, InvalidSloSpecThrows) {
    const uarch::SimConfig cfg = node_config();
    scenario::ScenarioSpec spec = fleet_spec();
    spec.lc_fraction = 1.5;
    EXPECT_THROW(scenario::build_trace(spec, cfg), std::invalid_argument);
    spec = fleet_spec();
    spec.lc_deadline_slack = 0.0;
    EXPECT_THROW(scenario::build_trace(spec, cfg), std::invalid_argument);
    spec = fleet_spec();
    spec.batch_deadline_slack = -1.0;
    EXPECT_THROW(scenario::build_trace(spec, cfg), std::invalid_argument);
}

// ---------------------------------------------------- policy registry --

TEST(FleetRegistry, TableAndLookup) {
    const auto policies = fleet::registered_fleet_policies();
    ASSERT_FALSE(policies.empty());
    std::set<std::string> names;
    for (const fleet::FleetPolicyInfo& info : policies) {
        EXPECT_TRUE(names.insert(std::string(info.name)).second)
            << "duplicate registry entry: " << info.name;
        EXPECT_EQ(fleet::find_fleet_policy(info.name), &info);
        EXPECT_FALSE(info.objective.empty());
        // The fleet namespace is part of the name contract.
        EXPECT_EQ(std::string(info.name).rfind("fleet-", 0), 0u) << info.name;
    }
    EXPECT_NE(fleet::find_fleet_policy("fleet-least-loaded"), nullptr);
    EXPECT_NE(fleet::find_fleet_policy("fleet-interference-aware"), nullptr);
    EXPECT_EQ(fleet::find_fleet_policy("least-loaded"), nullptr);
}

TEST(FleetRegistry, UnknownNameThrowsWithInventory) {
    try {
        fleet::make_fleet_policy("fleet-nope", {});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        // The message must teach the caller the valid names.
        EXPECT_NE(std::string(e.what()).find("fleet-least-loaded"),
                  std::string::npos);
    }
}

TEST(FleetRegistry, MakeInstantiatesEveryEntry) {
    for (const fleet::FleetPolicyInfo& info : fleet::registered_fleet_policies()) {
        const auto policy = fleet::make_fleet_policy(info.name, {.seed = 3});
        ASSERT_NE(policy, nullptr) << info.name;
        EXPECT_EQ(policy->name(), info.name);
    }
}

TEST(FleetRegistry, ModelRequiredForScoringPolicies) {
    const scenario::ScenarioTrace trace =
        scenario::build_trace(fleet_spec(), node_config());
    for (const fleet::FleetPolicyInfo& info : fleet::registered_fleet_policies()) {
        if (!info.needs_model) continue;
        fleet::FleetOptions fo = fleet_options(std::string(info.name));
        fo.node_policy = "random";  // model-free node policy: only the fleet
        fo.policy_config.model = nullptr;  // scoring layer misses the model
        EXPECT_THROW(fleet::FleetRunner(trace, std::move(fo)),
                     std::invalid_argument)
            << info.name;
    }
}

TEST(FleetRunner, RejectsZeroMaxQuanta) {
    const scenario::ScenarioTrace trace = scenario::build_trace(fleet_spec(), node_config());
    fleet::FleetOptions fo = fleet_options("fleet-least-loaded");
    fo.max_quanta = 0;
    try {
        fleet::FleetRunner runner(trace, std::move(fo));
        ADD_FAILURE() << "FleetRunner accepted max_quanta = 0";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("max_quanta"), std::string::npos) << e.what();
    }
}

TEST(FleetRunner, RejectsZeroNodes) {
    const scenario::ScenarioTrace trace = scenario::build_trace(fleet_spec(), node_config());
    EXPECT_THROW(fleet::FleetRunner(trace, fleet_options("fleet-least-loaded", 0)),
                 std::invalid_argument);
    try {
        fleet::FleetRunner runner(trace, fleet_options("fleet-least-loaded", 0));
        ADD_FAILURE() << "FleetRunner accepted nodes = 0";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos) << e.what();
    }
}

// -------------------------------------------------------- preemption --

/// Hand-built trace: two long batch tasks saturate the only node, then a
/// latency-critical request arrives.
scenario::ScenarioTrace preemption_trace() {
    scenario::ScenarioTrace trace;
    trace.spec.name = "preemption-unit";
    trace.spec.process = scenario::ArrivalProcess::kTrace;
    auto batch = [](std::uint64_t seed) {
        scenario::PlannedTask t;
        t.arrival_quantum = 0;
        t.app_name = "nab_r";
        t.seed = seed;
        t.service_insts = 40'000;
        t.isolated_ipc = 2.0;
        t.slo = scenario::SloClass::kBatch;
        t.priority = 0;
        t.deadline_quantum = 200.0;
        return t;
    };
    trace.tasks.push_back(batch(1));
    trace.tasks.push_back(batch(2));
    scenario::PlannedTask lc;
    lc.arrival_quantum = 2;
    lc.app_name = "nab_r";
    lc.seed = 3;
    lc.service_insts = 2'000;
    lc.isolated_ipc = 2.0;
    lc.slo = scenario::SloClass::kLatencyCritical;
    lc.priority = 10;
    lc.deadline_quantum = 10.0;
    trace.tasks.push_back(lc);
    return trace;
}

TEST(FleetPreemption, LcArrivalDemotesOneBatchResident) {
    const scenario::ScenarioTrace trace = preemption_trace();
    fleet::FleetOptions fo = fleet_options("fleet-least-loaded", /*nodes=*/1);
    fo.node_config = node_config(1, /*cores=*/1, /*smt_ways=*/2);

    fleet::FleetProgress last{};
    fo.on_quantum = [&last](const fleet::Fleet&, const fleet::FleetProgress& p) {
        last = p;
    };
    fleet::FleetRunner runner(trace, std::move(fo));
    const fleet::FleetResult result = runner.run();

    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.preemptions, 1u);
    EXPECT_EQ(last.requeues, 1u);
    // Exactly one batch task was demoted back to the queue — exactly once —
    // and still completed; the LC request was admitted on arrival.
    std::uint64_t demoted = 0;
    for (const fleet::FleetTaskRecord& rec : result.tasks) {
        EXPECT_TRUE(rec.completed) << rec.plan_index;
        demoted += rec.preemptions;
        if (rec.slo == scenario::SloClass::kLatencyCritical) {
            EXPECT_EQ(rec.preemptions, 0u);
            EXPECT_EQ(rec.admit_quantum, rec.arrival_quantum);
            EXPECT_TRUE(rec.deadline_met);
        }
    }
    EXPECT_EQ(demoted, 1u);
}

TEST(FleetPreemption, DisabledPreemptionMakesLcWait) {
    const scenario::ScenarioTrace trace = preemption_trace();
    fleet::FleetOptions fo = fleet_options("fleet-least-loaded", /*nodes=*/1);
    fo.node_config = node_config(1, /*cores=*/1, /*smt_ways=*/2);
    fo.preemption = false;

    fleet::FleetRunner runner(trace, std::move(fo));
    const fleet::FleetResult result = runner.run();

    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.preemptions, 0u);
    for (const fleet::FleetTaskRecord& rec : result.tasks) {
        EXPECT_EQ(rec.preemptions, 0u);
        if (rec.slo == scenario::SloClass::kLatencyCritical) {
            EXPECT_GT(rec.admit_quantum, rec.arrival_quantum)
                << "LC request should queue behind the saturated node";
        }
    }
}

// ------------------------------------------------------- SLO metrics --

TEST(FleetMetrics, PercentileEdgeCases) {
    EXPECT_EQ(common::percentile({}, 0.5), 0.0);
    const std::vector<double> one = {7.5};
    EXPECT_DOUBLE_EQ(common::percentile(one, 0.0), 7.5);
    EXPECT_DOUBLE_EQ(common::percentile(one, 0.99), 7.5);
    EXPECT_DOUBLE_EQ(common::percentile(one, 1.0), 7.5);
}

/// Pinned against hand-computed values: 11 completed batch tasks with
/// slowdowns 1..11 (one past its deadline), one abandoned batch task, an
/// empty LC class, 100 quanta, 2 preemptions.
TEST(FleetMetrics, SummaryPinnedAgainstHandComputedValues) {
    fleet::FleetResult r;
    r.quanta_executed = 100;
    r.preemptions = 2;
    r.completed_tasks = 11;
    for (int i = 1; i <= 11; ++i) {
        fleet::FleetTaskRecord rec;
        rec.plan_index = static_cast<std::size_t>(i - 1);
        rec.task_id = i;
        rec.slo = scenario::SloClass::kBatch;
        rec.completed = true;
        rec.deadline_met = i != 11;  // the slowest run missed its deadline
        rec.slowdown = static_cast<double>(i);
        rec.queue_quanta = 2.0;
        r.tasks.push_back(rec);
    }
    fleet::FleetTaskRecord abandoned;
    abandoned.plan_index = 11;
    abandoned.task_id = 12;
    abandoned.slo = scenario::SloClass::kBatch;
    abandoned.completed = false;
    r.tasks.push_back(abandoned);

    const fleet::FleetSummary s = fleet::summarize(r);
    EXPECT_EQ(s.batch.planned, 12u);
    EXPECT_EQ(s.batch.completed, 11u);
    // One deadline miss + one task that never completed.
    EXPECT_EQ(s.batch.slo_violations, 2u);
    EXPECT_DOUBLE_EQ(s.batch.violation_rate, 2.0 / 12.0);
    EXPECT_DOUBLE_EQ(s.batch.mean_slowdown, 6.0);
    EXPECT_DOUBLE_EQ(s.batch.p50_slowdown, 6.0);
    // Linear interpolation over sorted order statistics:
    // p99 sits at position 0.99 * 10 = 9.9 => 10 + 0.9 * (11 - 10).
    EXPECT_NEAR(s.batch.p99_slowdown, 10.9, 1e-9);
    EXPECT_NEAR(s.batch.p999_slowdown, 10.99, 1e-9);
    EXPECT_DOUBLE_EQ(s.batch.mean_queue_quanta, 2.0);

    // The batch class is the whole population here.
    EXPECT_EQ(s.all.planned, s.batch.planned);
    EXPECT_NEAR(s.all.p99_slowdown, 10.9, 1e-9);

    // Empty LC class: all-zero summary, not NaN.
    EXPECT_EQ(s.latency_critical.planned, 0u);
    EXPECT_EQ(s.latency_critical.slo_violations, 0u);
    EXPECT_DOUBLE_EQ(s.latency_critical.violation_rate, 0.0);
    EXPECT_DOUBLE_EQ(s.latency_critical.p99_slowdown, 0.0);

    // 10 deadline-met completions over 100 quanta.
    EXPECT_DOUBLE_EQ(s.goodput, 0.10);
    EXPECT_DOUBLE_EQ(s.throughput, 0.11);
    EXPECT_DOUBLE_EQ(s.preemptions_per_kquanta, 20.0);
}

TEST(FleetMetrics, SingleTaskClassPercentilesAreTheTask) {
    fleet::FleetResult r;
    r.quanta_executed = 10;
    r.completed_tasks = 1;
    fleet::FleetTaskRecord rec;
    rec.task_id = 1;
    rec.slo = scenario::SloClass::kLatencyCritical;
    rec.completed = true;
    rec.deadline_met = true;
    rec.slowdown = 3.25;
    r.tasks.push_back(rec);

    const fleet::FleetSummary s = fleet::summarize(r);
    EXPECT_DOUBLE_EQ(s.latency_critical.p50_slowdown, 3.25);
    EXPECT_DOUBLE_EQ(s.latency_critical.p99_slowdown, 3.25);
    EXPECT_DOUBLE_EQ(s.latency_critical.p999_slowdown, 3.25);
    EXPECT_DOUBLE_EQ(s.latency_critical.violation_rate, 0.0);
    EXPECT_EQ(s.batch.planned, 0u);
}

TEST(FleetMetrics, RunSignatureIsExactToTheBit) {
    fleet::FleetResult r;
    r.fleet_policy = "fleet-least-loaded";
    r.node_policy = "synpa";
    r.nodes = 2;
    fleet::FleetTaskRecord rec;
    rec.task_id = 1;
    rec.completed = true;
    rec.finish_quantum = 12.5;
    rec.slowdown = 1.75;
    r.tasks.push_back(rec);

    fleet::FleetResult same = r;
    EXPECT_EQ(fleet::run_signature(r), fleet::run_signature(same));
    // One ULP of drift in a single double must change the signature.
    same.tasks[0].finish_quantum =
        std::nextafter(same.tasks[0].finish_quantum, 1e9);
    EXPECT_NE(fleet::run_signature(r), fleet::run_signature(same));
}

// -------------------------------------------- every registered policy --

class FleetPolicyTest : public ::testing::TestWithParam<fleet::FleetPolicyInfo> {};

TEST_P(FleetPolicyTest, RunsDeterministicallyWithConservation) {
    const fleet::FleetPolicyInfo info = GetParam();
    const scenario::ScenarioTrace trace =
        scenario::build_trace(fleet_spec(), node_config());

    std::vector<std::string> signatures;
    for (int run = 0; run < 2; ++run) {
        // Run 1 is traced: traced runs must stay bit-identical to untraced
        // ones, and the registry counters must agree with the result.
        obs::Tracer tracer(memory_trace_config());
        fleet::FleetOptions fo = fleet_options(std::string(info.name));
        fo.tracer = run == 1 ? &tracer : nullptr;
        fleet::FleetProgress last{};
        fo.on_quantum = [&last](const fleet::Fleet& f,
                                const fleet::FleetProgress& p) {
            // Conservation at every quantum boundary: every admission is
            // either retired, resident, or was demoted back to the queue.
            EXPECT_EQ(p.admissions - p.preemptions, p.retirements +
                          static_cast<std::uint64_t>(p.in_flight));
            EXPECT_EQ(p.requeues, p.preemptions);
            EXPECT_EQ(p.in_flight, f.live_count());
            last = p;
        };
        fleet::FleetRunner runner(trace, std::move(fo));
        const fleet::FleetResult result = runner.run();

        ASSERT_EQ(result.tasks.size(), trace.tasks.size()) << info.name;
        EXPECT_TRUE(result.completed) << info.name;
        EXPECT_EQ(last.retirements, result.completed_tasks);
        EXPECT_EQ(last.arrived, trace.tasks.size());
        std::set<int> ids;
        for (const fleet::FleetTaskRecord& rec : result.tasks) {
            if (!rec.completed) continue;
            EXPECT_TRUE(ids.insert(rec.task_id).second)
                << "duplicate task id under " << info.name;
            EXPECT_GE(rec.node_id, 0);
            EXPECT_GE(rec.finish_quantum, static_cast<double>(rec.arrival_quantum));
            EXPECT_GT(rec.slowdown, 0.0);
        }
        EXPECT_EQ(ids.size(), result.completed_tasks);

        if (run == 1) {
            const obs::MetricsRegistry& m = tracer.metrics();
            // The nodes' cycle counters cover every node core-cycle.
            const obs::Counter* ticked = m.find_counter("uarch.cycles_ticked");
            const obs::Counter* skipped = m.find_counter("uarch.cycles_skipped");
            const obs::Counter* jumped = m.find_counter("uarch.cycles_jumped");
            ASSERT_NE(ticked, nullptr);
            ASSERT_NE(skipped, nullptr);
            ASSERT_NE(jumped, nullptr);
            const uarch::SimConfig cfg = node_config();
            EXPECT_EQ(ticked->value() + skipped->value(),
                      static_cast<std::uint64_t>(result.nodes) *
                          static_cast<std::uint64_t>(cfg.num_chips * cfg.cores) *
                          cfg.cycles_per_quantum * result.quanta_executed)
                << info.name;
            EXPECT_LE(jumped->value(), ticked->value()) << info.name;
            ASSERT_NE(m.find_counter("fleet.admissions"), nullptr);
            EXPECT_EQ(m.find_counter("fleet.admissions")->value(),
                      result.admissions);
            ASSERT_NE(m.find_counter("fleet.retirements"), nullptr);
            EXPECT_EQ(m.find_counter("fleet.retirements")->value(),
                      result.completed_tasks);
            if (result.preemptions > 0) {
                ASSERT_NE(m.find_counter("fleet.preemptions"), nullptr);
                EXPECT_EQ(m.find_counter("fleet.preemptions")->value(),
                          result.preemptions);
            }
        }
        signatures.push_back(fleet::run_signature(result));
    }
    EXPECT_EQ(signatures[0], signatures[1])
        << info.name << " is nondeterministic (or tracing perturbs the run)";
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredFleetPolicies, FleetPolicyTest,
    ::testing::ValuesIn(fleet::registered_fleet_policies().begin(),
                        fleet::registered_fleet_policies().end()),
    [](const ::testing::TestParamInfo<fleet::FleetPolicyInfo>& info) {
        std::string name(info.param.name);
        for (char& c : name)
            if (c == '-') c = '_';
        return name;
    });

// ------------------------------------------------------- determinism --

/// The tentpole contract: a fleet run is bit-identical at every
/// (SYNPA_SIM_THREADS x fleet threads) combination.  Two-chip nodes so the
/// per-node parallel engine actually shards.
TEST(FleetDeterminism, SimThreadsByFleetThreadsMatrix) {
    scenario::ScenarioSpec spec = fleet_spec();
    spec.horizon_quanta = 16;
    const scenario::ScenarioTrace trace =
        scenario::build_trace(spec, node_config(2, 2, 2));

    std::string want;
    for (const int sim_threads : {1, 2, 4}) {
        for (const std::size_t fleet_threads : {std::size_t{1}, std::size_t{8}}) {
            fleet::FleetOptions fo =
                fleet_options("fleet-interference-aware", /*nodes=*/3);
            fo.node_config = node_config(2, 2, 2, sim_threads);
            fo.threads = fleet_threads;
            fleet::FleetRunner runner(trace, std::move(fo));
            const std::string sig = fleet::run_signature(runner.run());
            if (want.empty()) want = sig;
            EXPECT_EQ(sig, want)
                << "sim_threads=" << sim_threads
                << " fleet_threads=" << fleet_threads << " diverged";
        }
    }
}

TEST(FleetPins, FourNodeInterferenceAwareDigest) {
    // Captured before the three quantum drivers merged into one loop: four
    // 2-context nodes under an arrival rate that keeps the fleet saturated,
    // so admission, queueing and priority preemption all run.
    scenario::ScenarioSpec spec = fleet_spec();
    spec.arrival_rate = 2.0;
    const scenario::ScenarioTrace trace =
        scenario::build_trace(spec, node_config(1, 1, 2));
    fleet::FleetOptions fo = fleet_options("fleet-interference-aware", /*nodes=*/4);
    fo.node_config = node_config(1, 1, 2);
    fo.record_timeline = true;
    const fleet::FleetResult r = fleet::FleetRunner(trace, std::move(fo)).run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.preemptions, 0u);
    std::string sig = fleet::run_signature(r);
    for (const fleet::FleetQuantumSample& q : r.timeline)
        sig += "|" + std::to_string(q.live) + ":" + std::to_string(q.queued) + ":" +
               std::to_string(testsig::bits(q.aggregate_ipc));
    EXPECT_EQ(testsig::digest(sig), 0x69a7bd311a870a45ull);
}

// --------------------------------------------------------- fleet grid --

/// 2 scenarios x 2 fleet policies x 2 reps on 2-node fleets.
exp::FleetCampaign small_fleet_campaign() {
    exp::FleetCampaign campaign;
    campaign.name = "fleet-grid-test";
    campaign.node_configs = {node_config()};
    scenario::ScenarioSpec heavy = fleet_spec();
    heavy.name = "fleet-heavy";
    heavy.arrival_rate = 0.9;
    heavy.seed = 13;
    campaign.scenarios = {fleet_spec(), heavy};
    campaign.fleet_policies = {"fleet-least-loaded", "fleet-interference-aware"};
    campaign.nodes = 2;
    campaign.reps = 2;
    campaign.max_quanta = 5'000;
    campaign.model = test_policy_config().model;
    return campaign;
}

TEST(FleetGrid, ResultsAreIdenticalForOneAndManyThreads) {
    const exp::FleetCampaign campaign = small_fleet_campaign();
    exp::ArtifactCache cache_serial, cache_parallel;
    std::ostringstream csv;
    exp::FleetCsvAggregator csv_agg(csv);
    const exp::FleetGridResult a =
        exp::FleetGridRunner({.threads = 1}, &cache_serial).run(campaign);
    const exp::FleetGridResult b =
        exp::FleetGridRunner({.threads = 4}, &cache_parallel).run(campaign, {&csv_agg});

    ASSERT_EQ(a.cells.size(), 4u);
    ASSERT_EQ(b.cells.size(), a.cells.size());
    EXPECT_EQ(a.reps_executed, 8u);
    std::string all;
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].scenario_index, i / 2);
        EXPECT_EQ(a.cells[i].policy_index, i % 2);
        ASSERT_EQ(a.cells[i].runs.size(), 2u);
        ASSERT_EQ(b.cells[i].runs.size(), 2u);
        for (std::size_t rep = 0; rep < 2; ++rep) {
            EXPECT_TRUE(a.cells[i].runs[rep].completed) << "cell " << i << " rep " << rep;
            const std::string sig = fleet::run_signature(a.cells[i].runs[rep]);
            EXPECT_EQ(sig, fleet::run_signature(b.cells[i].runs[rep]))
                << "cell " << i << " rep " << rep << " diverged across thread counts";
            all += sig + "|";
        }
    }
    // Captured from the grid runner before the three grids shared one engine.
    EXPECT_EQ(testsig::digest(all), 0xa9c1d1e3ad0647f0ull);

    // The 4-thread CSV rows arrive in grid order: scenario-major, then policy.
    std::istringstream rows(csv.str());
    std::string line;
    std::getline(rows, line);  // header
    std::vector<std::string> order;
    while (std::getline(rows, line)) {
        std::istringstream fields(line);
        std::string field, key;
        for (int col = 0; col < 7 && std::getline(fields, field, ','); ++col)
            if (col >= 5) key += field;
        order.push_back(key);
    }
    EXPECT_EQ(order, (std::vector<std::string>{"00", "01", "10", "11"}));
}

// ------------------------------------------------- differential oracle --

/// A 1-node fleet with nothing to prioritize or preempt is the open-system
/// single-platform run: the same trace must produce the same schedule, task
/// by task, to the last bit.
TEST(FleetOracle, OneNodeFleetEqualsOpenRun) {
    for (const std::string node_policy : {"linux", "synpa"}) {
        for (const int width : {2, 4}) {
            for (const int chips : {1, 2}) {
                const uarch::SimConfig cfg = node_config(chips, 2, width);
                scenario::ScenarioSpec spec = fleet_spec();
                spec.lc_fraction = 0.0;
                spec.arrival_rate = 0.5 * chips * width;
                const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);

                fleet::FleetOptions fo = fleet_options("fleet-least-loaded", /*nodes=*/1);
                fo.node_config = cfg;
                fo.node_policy = node_policy;
                fo.preemption = false;
                const fleet::FleetResult f = fleet::FleetRunner(trace, fo).run();

                // Node 0's policy seed, as Fleet derives it.
                sched::PolicyConfig pc = fo.policy_config;
                pc.seed = common::derive_key(pc.seed, 0xf1e7, 0);
                uarch::Platform platform(cfg);
                const auto policy = sched::make_policy(node_policy, pc);
                const scenario::ScenarioResult o =
                    scenario::ScenarioRunner(platform, *policy, trace,
                                             {.max_quanta = fo.max_quanta})
                        .run();

                const std::string where = node_policy + " width=" + std::to_string(width) +
                                          " chips=" + std::to_string(chips);
                ASSERT_TRUE(o.completed) << where;
                ASSERT_TRUE(f.completed) << where;
                EXPECT_EQ(f.quanta_executed, o.quanta_executed) << where;
                EXPECT_EQ(f.migrations, o.migrations) << where;
                EXPECT_EQ(f.cross_chip_migrations, o.cross_chip_migrations) << where;
                EXPECT_EQ(f.completed_tasks, o.completed_tasks) << where;
                ASSERT_EQ(f.tasks.size(), o.tasks.size()) << where;
                for (std::size_t i = 0; i < o.tasks.size(); ++i) {
                    const fleet::FleetTaskRecord& a = f.tasks[i];
                    const scenario::TaskRecord& b = o.tasks[i];
                    EXPECT_EQ(a.task_id, b.task_id) << where << " task " << i;
                    EXPECT_EQ(a.admit_quantum, b.admit_quantum) << where << " task " << i;
                    EXPECT_EQ(testsig::bits(a.finish_quantum), testsig::bits(b.finish_quantum))
                        << where << " task " << i;
                    EXPECT_EQ(testsig::bits(a.slowdown), testsig::bits(b.slowdown))
                        << where << " task " << i;
                    EXPECT_EQ(testsig::bits(a.turnaround_quanta),
                              testsig::bits(b.turnaround_quanta))
                        << where << " task " << i;
                    EXPECT_EQ(a.queue_quanta, b.queue_quanta) << where << " task " << i;
                }
            }
        }
    }
}

}  // namespace
