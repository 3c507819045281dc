#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iterator>
#include <span>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "core/synpa_policy.hpp"
#include "fleet/metrics.hpp"
#include "fleet/runner.hpp"
#include "model/trainer.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sched/baselines.hpp"
#include "sched/registry.hpp"
#include "sched/thread_manager.hpp"
#include "uarch/platform.hpp"
#include "workloads/methodology.hpp"

namespace e2e {
namespace {

using namespace synpa;
/// Records the host time between consecutive on_quantum calls; the first
/// interval starts when the driver's run() is entered.
class QuantumClock {
public:
    void start() { last_ = Clock::now(); }
    void tick() {
        const auto now = Clock::now();
        ms_.push_back(std::chrono::duration<double, std::milli>(now - last_).count());
        last_ = now;
    }
    std::vector<double> take() { return std::move(ms_); }

private:
    Clock::time_point last_{};
    std::vector<double> ms_;
};

/// Decorator timing every reallocate() of the wrapped policy; all other
/// hooks forward unchanged, so decisions are identical with or without it.
class TimedPolicy final : public sched::AllocationPolicy {
public:
    explicit TimedPolicy(sched::AllocationPolicy& inner) : inner_(inner) {}

    std::string name() const override { return inner_.name(); }
    sched::CoreAllocation initial_allocation(std::span<const int> task_ids,
                                             int smt_ways) override {
        return inner_.initial_allocation(task_ids, smt_ways);
    }
    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override {
        const auto t0 = Clock::now();
        sched::CoreAllocation alloc = inner_.reallocate(observations);
        decide_ms_.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
        return alloc;
    }
    void on_task_replaced(int old_task_id, int new_task_id) override {
        inner_.on_task_replaced(old_task_id, new_task_id);
    }
    void on_task_finished(int task_id) override { inner_.on_task_finished(task_id); }
    void on_task_preempted(int task_id) override { inner_.on_task_preempted(task_id); }
    void set_tracer(obs::Tracer* tracer) override { inner_.set_tracer(tracer); }

    std::vector<double> take() { return std::move(decide_ms_); }

private:
    sched::AllocationPolicy& inner_;
    std::vector<double> decide_ms_;
};

/// Every SynpaPolicy knob, spelled out: the Options defaults read
/// SYNPA_WEIGHT_CACHE and SYNPA_EMA_DEADBAND.
core::SynpaPolicy::Options pinned_synpa_options() {
    core::SynpaPolicy::Options o;
    o.selector = core::PairSelector::kBlossom;
    o.objective = core::Objective::kTotalSlowdown;
    o.estimator.ema_alpha = 0.5;
    o.estimator.ema_deadband = 0.0;
    o.estimator.inversion = {};
    o.stability_bias = 0.002;
    o.keep_threshold = 0.001;
    o.cross_chip_penalty = sched::kDefaultCrossChipPenalty;
    o.weight_cache = true;
    return o;
}

/// Code defaults (SimConfig{} never reads the environment) plus the shape.
uarch::SimConfig pinned_config(const Shape& shape) {
    uarch::SimConfig cfg;
    cfg.num_chips = shape.chips;
    cfg.cores = shape.cores;
    cfg.smt_ways = shape.smt_ways;
    cfg.cycles_per_quantum = shape.cycles_per_quantum;
    cfg.sim_threads = 1;
    return cfg;
}

/// The run's policy, optionally behind the timing decorator.
class PolicyHolder {
public:
    PolicyHolder(PolicyKind kind, const model::InterferenceModel& model, bool time_decide) {
        if (kind == PolicyKind::kSynpa) {
            auto synpa = std::make_unique<core::SynpaPolicy>(model, pinned_synpa_options());
            synpa_ = synpa.get();
            inner_ = std::move(synpa);
        } else {
            inner_ = std::make_unique<sched::LinuxPolicy>();
        }
        if (time_decide) timed_ = std::make_unique<TimedPolicy>(*inner_);
    }

    sched::AllocationPolicy& get() { return timed_ ? *timed_ : *inner_; }

    void collect(RunOut& out) {
        if (timed_) {
            out.decide_ms = timed_->take();
            out.reallocate_calls = out.decide_ms.size();
        }
        if (synpa_ != nullptr) out.cache = synpa_->weight_cache_stats();
    }

private:
    std::unique_ptr<sched::AllocationPolicy> inner_;
    core::SynpaPolicy* synpa_ = nullptr;
    std::unique_ptr<TimedPolicy> timed_;
};

std::string signature_of(const sched::RunResult& r) {
    BitSignature sig;
    sig.add(r.policy_name).add(r.turnaround_quanta).add(r.quanta_executed);
    sig.add(r.migrations).add(r.cross_chip_migrations).add(r.completed);
    for (const sched::TaskOutcome& o : r.outcomes) {
        sig.add(o.app_name).add(o.slot_index).add(o.target_insts).add(o.finish_quantum);
        sig.add(o.ipc_smt).add(o.isolated_ipc).add(o.individual_speedup).add(o.final_core);
        sig.add(std::span<const double>(o.mean_fractions));
    }
    return sig.str();
}

std::string signature_of(const scenario::ScenarioResult& r) {
    BitSignature sig;
    sig.add(r.policy_name).add(r.quanta_executed).add(r.migrations);
    sig.add(r.cross_chip_migrations).add(std::uint64_t{r.completed_tasks});
    sig.add(r.completed).add(r.turnaround_quanta);
    for (const scenario::TaskRecord& t : r.tasks) {
        sig.add(t.task_id).add(t.app_name).add(t.arrival_quantum).add(t.admit_quantum);
        sig.add(t.chip_id).add(t.finish_quantum).add(t.service_insts).add(t.isolated_ipc);
        sig.add(t.turnaround_quanta).add(t.queue_quanta).add(t.slowdown).add(t.completed);
    }
    return sig.str();
}

// --------------------------------------------------------------- closed --

/// The paper's chip and methodology: 8 tasks on 4 SMT-2 cores, finished
/// tasks relaunched, the run ends with the slowest original task.
class PaperClosed final : public Workload {
public:
    const char* name() const override { return "paper-closed"; }
    Shape shape() const override { return kShape; }
    Driver driver() const override { return Driver::kClosed; }

    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        auto t0 = Clock::now();
        std::vector<std::string> distinct;
        for (const char* app : kApps)
            if (std::find(distinct.begin(), distinct.end(), app) == distinct.end())
                distinct.emplace_back(app);
        model::TrainerOptions topts;
        topts.isolated_quanta = 160;
        topts.pair_quanta = 48;
        topts.warmup_quanta = 2;
        topts.sample_fraction = 0.8;
        topts.seed = 1;
        topts.threads = 1;
        topts.include_self_pairs = true;
        model_ = std::make_shared<const model::InterferenceModel>(
            model::Trainer(cfg_, topts).train(distinct).model);
        t.train_s = seconds_since(t0);

        t0 = Clock::now();
        workloads::WorkloadSpec spec{.name = "fb7", .app_names = {}};
        for (const char* app : kApps) spec.app_names.emplace_back(app);
        prepared_ = workloads::prepare_workload(spec, cfg_, methodology(seed), 0);
        t.prepare_s = seconds_since(t0);

        t0 = Clock::now();
        {
            uarch::Platform platform(cfg_);
            PolicyHolder policy(PolicyKind::kSynpa, *model_, false);
            sched::ThreadManager manager(platform, policy.get(), prepared_.tasks, options(nullptr));
        }
        t.construct_s = seconds_since(t0);
        return t;
    }

    RunOut run(PolicyKind kind, const Probe& probe) override {
        RunOut out;
        uarch::Platform platform(cfg_);
        PolicyHolder policy(kind, *model_, probe.time_decide);
        QuantumClock clock;
        sched::ThreadManager::Options opts = options(probe.tracer);
        opts.on_quantum = [&clock](const uarch::Platform&) { clock.tick(); };
        sched::ThreadManager manager(platform, policy.get(), prepared_.tasks, opts);

        const auto t0 = Clock::now();
        clock.start();
        const sched::RunResult r = manager.run();
        out.wall_s = seconds_since(t0);
        out.quantum_ms = clock.take();
        policy.collect(out);

        out.signature = signature_of(r);
        out.planned = prepared_.tasks.size();
        out.quanta = r.quanta_executed;
        out.turnaround = r.turnaround_quanta;
        out.migrations = r.migrations;
        out.cross_chip = r.cross_chip_migrations;
        for (const sched::TaskOutcome& o : r.outcomes) {
            if (o.finish_quantum <= 0.0 || o.ipc_smt <= 0.0) continue;
            ++out.completed;
            out.slowdowns.push_back(o.isolated_ipc / o.ipc_smt);
        }
        // No deadlines in a closed run: every completion is good.
        out.goodput = out.quanta > 0 ? static_cast<double>(out.completed) /
                                           static_cast<double>(out.quanta)
                                     : 0.0;
        if (!r.completed) out.failures.push_back("safety quantum cap hit");
        if (out.completed != out.planned) out.failures.push_back("original task unfinished");
        // The final quantum ends the run before the hook fires.
        if (out.quantum_ms.size() + 1 != out.quanta && out.quantum_ms.size() != out.quanta)
            out.failures.push_back("on_quantum count disagrees with quanta executed");
        return out;
    }

private:
    static constexpr Shape kShape{.nodes = 1, .chips = 1, .cores = 4, .smt_ways = 2,
                                  .cycles_per_quantum = 50'000};
    /// Mixed frontend/backend workload fb7 (paper_workloads at seed 42),
    /// pinned by name so the application list never depends on the seed.
    static constexpr const char* kApps[] = {"xalancbmk_r", "cactuBSSN_r", "mcf",   "perlbench",
                                            "cactuBSSN_r", "astar",       "gobmk", "leela_r"};

    static workloads::MethodologyOptions methodology(std::uint64_t seed) {
        workloads::MethodologyOptions m;
        m.target_isolated_quanta = 120;
        m.reps = 1;
        m.seed = seed;
        m.max_quanta = 20'000;
        m.record_traces = false;
        m.threads = 1;
        return m;
    }

    static sched::ThreadManager::Options options(obs::Tracer* tracer) {
        sched::ThreadManager::Options o;
        o.max_quanta = 20'000;
        o.record_traces = false;
        o.tracer = tracer;
        return o;
    }

    uarch::SimConfig cfg_ = pinned_config(kShape);
    std::shared_ptr<const model::InterferenceModel> model_;
    workloads::PreparedWorkload prepared_;
};

// ----------------------------------------------------------------- open --

/// Application mix of examples/scenario_replay.
constexpr const char* kOpenMix[] = {"mcf", "bwaves", "leela_r", "gobmk", "nab_r", "exchange2_r"};

/// Poisson arrivals with SLO classes stamped (lc_fraction 0.25), starting
/// from the steady-state population rather than a full machine.
scenario::ScenarioSpec poisson_spec(const char* name, const Shape& shape, double load,
                                    std::uint64_t service_quanta, std::uint64_t horizon,
                                    std::uint64_t seed) {
    const double capacity = static_cast<double>(shape.contexts());
    scenario::ScenarioSpec spec;
    spec.name = name;
    spec.process = scenario::ArrivalProcess::kPoisson;
    for (const char* app : kOpenMix) spec.app_mix.emplace_back(app);
    spec.initial_tasks = static_cast<std::uint64_t>(std::llround(load * capacity));
    spec.arrival_rate = load * capacity / static_cast<double>(service_quanta);
    spec.load_profile = {};
    spec.service_quanta = service_quanta;
    spec.service_jitter = 0.3;
    spec.horizon_quanta = horizon;
    spec.seed = seed;
    spec.lc_fraction = 0.25;
    spec.lc_deadline_slack = 4.0;
    spec.batch_deadline_slack = 24.0;
    spec.lc_priority = 10;
    spec.batch_priority = 0;
    return spec;
}

/// build_trace derives each application's service demand from one short
/// isolated profile per trace, so a single trace carries a seed-specific
/// bias in every task of an application.  The bench therefore superposes
/// kTraceParts independent traces, each at 1/kTraceParts of the load, from
/// sub-seeds of the bench seed: the merged arrivals are still Poisson at
/// the full rate, and the per-application bias averages out.
constexpr std::uint64_t kTraceParts = 8;

scenario::ScenarioTrace pooled_trace(const char* name, const Shape& shape, double load,
                                     std::uint64_t service_quanta, std::uint64_t horizon,
                                     std::uint64_t seed, const uarch::SimConfig& cfg) {
    const double part_load = load / static_cast<double>(kTraceParts);
    scenario::ScenarioTrace pooled;
    pooled.spec = poisson_spec(name, shape, load, service_quanta, horizon, seed);
    for (std::uint64_t part = 0; part < kTraceParts; ++part) {
        scenario::ScenarioTrace t = scenario::build_trace(
            poisson_spec(name, shape, part_load, service_quanta, horizon,
                         common::derive_key(seed, 0xe2eb, part)),
            cfg);
        pooled.tasks.insert(pooled.tasks.end(), std::make_move_iterator(t.tasks.begin()),
                            std::make_move_iterator(t.tasks.end()));
    }
    std::stable_sort(pooled.tasks.begin(), pooled.tasks.end(),
                     [](const scenario::PlannedTask& a, const scenario::PlannedTask& b) {
                         return a.arrival_quantum < b.arrival_quantum;
                     });
    return pooled;
}

/// 256 hardware contexts (2 chips x 32 cores x SMT-4) under an open
/// Poisson stream: k-way grouping, cross-chip balancing and WeightCache
/// churn dominate the quantum.
class Open256 final : public Workload {
public:
    const char* name() const override { return "open-256-smt4"; }
    Shape shape() const override { return kShape; }
    Driver driver() const override { return Driver::kOpen; }

    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        auto t0 = Clock::now();
        trace_ = pooled_trace(name(), kShape, kLoad, kServiceQuanta, kHorizon, seed, cfg_);
        t.build_trace_s = seconds_since(t0);

        t0 = Clock::now();
        {
            uarch::Platform platform(cfg_);
            PolicyHolder policy(PolicyKind::kSynpa, model_, false);
            scenario::ScenarioRunner runner(platform, policy.get(), trace_, options(nullptr));
        }
        t.construct_s = seconds_since(t0);
        return t;
    }

    RunOut run(PolicyKind kind, const Probe& probe) override {
        RunOut out;
        uarch::Platform platform(cfg_);
        PolicyHolder policy(kind, model_, probe.time_decide);
        QuantumClock clock;
        scenario::ScenarioRunner::Options opts = options(probe.tracer);
        opts.on_quantum = [&clock](const uarch::Platform&) { clock.tick(); };
        scenario::ScenarioRunner runner(platform, policy.get(), trace_, opts);

        const auto t0 = Clock::now();
        clock.start();
        const scenario::ScenarioResult r = runner.run();
        out.wall_s = seconds_since(t0);
        out.quantum_ms = clock.take();
        policy.collect(out);

        out.signature = signature_of(r);
        out.planned = trace_.tasks.size();
        out.completed = r.completed_tasks;
        out.quanta = r.quanta_executed;
        out.migrations = r.migrations;
        out.cross_chip = r.cross_chip_migrations;
        std::vector<double> turnarounds;
        std::vector<double> queue_waits;
        std::uint64_t good = 0;
        for (std::size_t i = 0; i < r.tasks.size(); ++i) {
            const scenario::TaskRecord& rec = r.tasks[i];
            const scenario::PlannedTask& plan = trace_.tasks[i];
            if (rec.task_id >= 0) ++out.admissions;
            // The single-node runner ignores SLO classes; the deadlines
            // stamped on the trace are scored here as fleet::summarize does.
            const bool met = rec.completed && (plan.deadline_quantum <= 0.0 ||
                                               rec.finish_quantum <= plan.deadline_quantum);
            if (met) ++good;
            if (plan.slo == scenario::SloClass::kLatencyCritical) {
                ++out.lc_planned;
                if (!met) ++out.lc_violations;
            }
            if (!rec.completed) continue;
            turnarounds.push_back(rec.turnaround_quanta);
            queue_waits.push_back(rec.queue_quanta);
            out.slowdowns.push_back(rec.slowdown);
        }
        out.turnaround = mean(turnarounds);
        out.queue_mean = mean(queue_waits);
        out.goodput = out.quanta > 0
                          ? static_cast<double>(good) / static_cast<double>(out.quanta)
                          : 0.0;
        if (!r.completed) out.failures.push_back("safety quantum cap hit");
        if (out.completed != out.planned) out.failures.push_back("planned task unfinished");
        if (out.quantum_ms.size() > out.quanta)
            out.failures.push_back("on_quantum fired more often than quanta executed");
        return out;
    }

private:
    static constexpr Shape kShape{.nodes = 1, .chips = 2, .cores = 32, .smt_ways = 4,
                                  .cycles_per_quantum = 5'000};
    static constexpr double kLoad = 0.26;
    static constexpr std::uint64_t kServiceQuanta = 8;
    static constexpr std::uint64_t kHorizon = 110;

    static scenario::ScenarioRunner::Options options(obs::Tracer* tracer) {
        scenario::ScenarioRunner::Options o;
        o.max_quanta = 20'000;
        o.record_timeline = false;
        o.tracer = tracer;
        return o;
    }

    uarch::SimConfig cfg_ = pinned_config(kShape);
    model::InterferenceModel model_ = model::InterferenceModel::paper_table4();
    scenario::ScenarioTrace trace_;
};

// ---------------------------------------------------------------- fleet --

/// Eight small serving nodes behind fleet admission, SLO-class priority
/// preemption and interference-aware placement; short quanta make the
/// coordinator's per-quantum fork/join visible.
class FleetSlo final : public Workload {
public:
    const char* name() const override { return "fleet-slo"; }
    Shape shape() const override { return kShape; }
    Driver driver() const override { return Driver::kFleet; }

    SetupTimes setup(std::uint64_t seed) override {
        SetupTimes t;
        auto t0 = Clock::now();
        trace_ = pooled_trace(name(), kShape, kLoad, kServiceQuanta, kHorizon, seed, cfg_);
        t.build_trace_s = seconds_since(t0);

        t0 = Clock::now();
        { fleet::FleetRunner runner(trace_, options(PolicyKind::kSynpa, nullptr)); }
        t.construct_s = seconds_since(t0);
        return t;
    }

    RunOut run(PolicyKind kind, const Probe& probe) override {
        RunOut out;
        QuantumClock clock;
        fleet::FleetOptions opts = options(kind, probe.tracer);
        opts.on_quantum = [&clock, &out](const fleet::Fleet&, const fleet::FleetProgress& p) {
            clock.tick();
            // Conservation: every admission is either undone by a
            // preemption, retired, or still resident.
            if (p.admissions - p.preemptions !=
                    p.retirements + static_cast<std::uint64_t>(p.in_flight) &&
                out.failures.empty())
                out.failures.push_back("conservation violated at quantum " +
                                       std::to_string(p.quantum));
        };
        fleet::FleetRunner runner(trace_, std::move(opts));

        const auto t0 = Clock::now();
        clock.start();
        const fleet::FleetResult r = runner.run();
        out.wall_s = seconds_since(t0);
        out.quantum_ms = clock.take();

        out.signature = fleet::run_signature(r);
        out.planned = trace_.tasks.size();
        out.completed = r.completed_tasks;
        out.quanta = r.quanta_executed;
        out.migrations = r.migrations;
        out.cross_chip = r.cross_chip_migrations;
        out.admissions = r.admissions;
        out.preemptions = r.preemptions;
        std::vector<double> turnarounds;
        std::vector<double> queue_waits;
        for (const fleet::FleetTaskRecord& rec : r.tasks) {
            if (!rec.completed) continue;
            turnarounds.push_back(rec.turnaround_quanta);
            queue_waits.push_back(rec.queue_quanta);
            out.slowdowns.push_back(rec.slowdown);
        }
        out.turnaround = mean(turnarounds);
        out.queue_mean = mean(queue_waits);
        const fleet::FleetSummary summary = fleet::summarize(r);
        out.goodput = summary.goodput;
        out.lc_planned = summary.latency_critical.planned;
        out.lc_violations = summary.latency_critical.slo_violations;
        if (!r.completed) out.failures.push_back("safety quantum cap hit");
        if (out.completed != out.planned) out.failures.push_back("planned task unfinished");
        if (out.quantum_ms.size() != out.quanta)
            out.failures.push_back("on_quantum count disagrees with quanta executed");
        return out;
    }

private:
    static constexpr Shape kShape{.nodes = 8, .chips = 1, .cores = 4, .smt_ways = 2,
                                  .cycles_per_quantum = 2'000};
    static constexpr double kLoad = 0.45;
    static constexpr std::uint64_t kServiceQuanta = 4;
    static constexpr std::uint64_t kHorizon = 1600;

    fleet::FleetOptions options(PolicyKind kind, obs::Tracer* tracer) const {
        fleet::FleetOptions o;
        o.nodes = kShape.nodes;
        o.node_config = cfg_;
        o.node_policy = kind == PolicyKind::kSynpa ? "synpa" : "linux";
        o.fleet_policy = "fleet-interference-aware";
        o.policy_config.model = model_;
        o.policy_config.seed = 1;
        o.policy_config.synpa = pinned_synpa_options();
        o.policy_config.online = online::OnlineOptions{};
        o.policy_config.sampling = {};
        o.fleet_seed = 1;
        o.preemption = true;
        o.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
        o.max_quanta = kHorizon * 6 + 4'000;
        o.record_timeline = false;
        o.tracer = tracer;
        return o;
    }

    uarch::SimConfig cfg_ = pinned_config(kShape);
    std::shared_ptr<const model::InterferenceModel> model_ =
        std::make_shared<const model::InterferenceModel>(model::InterferenceModel::paper_table4());
    scenario::ScenarioTrace trace_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
    if (name == "paper-closed") return std::make_unique<PaperClosed>();
    if (name == "open-256-smt4") return std::make_unique<Open256>();
    if (name == "fleet-slo") return std::make_unique<FleetSlo>();
    return nullptr;
}

}  // namespace e2e
