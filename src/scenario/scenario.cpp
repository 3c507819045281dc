#include "scenario/scenario.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <stdexcept>

#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "model/trainer.hpp"

namespace synpa::scenario {
namespace {

/// Rate multiplier in effect at `quantum` (phases sorted by start).
double rate_scale_at(const std::vector<LoadPhase>& profile, std::uint64_t quantum) {
    double scale = 1.0;
    for (const LoadPhase& p : profile)
        if (p.start_quantum <= quantum) scale = p.rate_scale;
    return scale;
}

/// Knuth's Poisson sampler; fine for the per-quantum rates scenarios use.
std::uint64_t poisson_draw(common::Rng& rng, double lambda) {
    if (lambda <= 0.0) return 0;
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
        ++k;
        p *= rng.uniform();
    } while (p > limit);
    return k - 1;
}

/// Isolated service-demand baseline for one application, computed once per
/// distinct app per trace build.
struct ServiceBaseline {
    std::uint64_t insts = 0;
    double ipc = 0.0;
};

class BaselineCache {
public:
    BaselineCache(const ScenarioSpec& spec, const uarch::SimConfig& cfg)
        : spec_(spec), cfg_(cfg) {}

    const ServiceBaseline& of(const std::string& app_name) {
        const auto it = cache_.find(app_name);
        if (it != cache_.end()) return it->second;
        const model::IsolatedProfile prof = model::profile_isolated(
            apps::find_app(app_name), cfg_, spec_.service_quanta,
            common::derive_key(spec_.seed, common::hash_string(app_name), 0x0150));
        return cache_
            .emplace(app_name, ServiceBaseline{.insts = prof.total_instructions(),
                                               .ipc = prof.ipc()})
            .first->second;
    }

private:
    const ScenarioSpec& spec_;
    const uarch::SimConfig& cfg_;
    std::map<std::string, ServiceBaseline> cache_;
};

}  // namespace

const char* arrival_process_name(ArrivalProcess p) noexcept {
    switch (p) {
        case ArrivalProcess::kPoisson: return "poisson";
        case ArrivalProcess::kBurst: return "burst";
        case ArrivalProcess::kTrace: return "trace";
    }
    return "unknown";
}

ScenarioTrace build_trace(const ScenarioSpec& spec, const uarch::SimConfig& cfg) {
    if (spec.app_mix.empty() &&
        (spec.process != ArrivalProcess::kTrace || spec.initial_tasks > 0))
        throw std::invalid_argument("build_trace: app_mix must not be empty");
    if (spec.service_jitter < 0.0 || spec.service_jitter >= 1.0)
        throw std::invalid_argument("build_trace: service_jitter must be in [0, 1)");
    if (spec.lc_fraction < 0.0 || spec.lc_fraction > 1.0)
        throw std::invalid_argument("build_trace: lc_fraction must be in [0, 1]");
    if (spec.lc_deadline_slack <= 0.0 || spec.batch_deadline_slack <= 0.0)
        throw std::invalid_argument("build_trace: deadline slacks must be > 0");
    if (!std::isfinite(spec.arrival_rate) || spec.arrival_rate < 0.0)
        throw std::invalid_argument("build_trace: arrival_rate must be finite and >= 0");
    for (const LoadPhase& phase : spec.load_profile)
        if (!std::isfinite(phase.rate_scale) || phase.rate_scale < 0.0)
            throw std::invalid_argument(
                "build_trace: load_profile rate_scale must be finite and >= 0");
    // A zero-quantum isolated profile retires no instructions, so every task
    // would carry a zero-instruction service demand.
    if (spec.service_quanta == 0)
        throw std::invalid_argument("build_trace: service_quanta must be > 0");
    if (spec.horizon_quanta == 0)
        throw std::invalid_argument("build_trace: horizon_quanta must be > 0");

    // rate_scale_at takes the last matching phase, so phases must be in
    // start order — sort a copy rather than trusting the spec's order.
    std::vector<LoadPhase> profile = spec.load_profile;
    std::stable_sort(profile.begin(), profile.end(),
                     [](const LoadPhase& a, const LoadPhase& b) {
                         return a.start_quantum < b.start_quantum;
                     });

    // (arrival quantum, app) pairs, before demand sampling.
    std::vector<TraceArrival> arrivals;
    common::Rng rng(spec.seed, 0xa771);
    const auto draw_app = [&] { return spec.app_mix[rng.below(spec.app_mix.size())]; };

    for (std::uint64_t i = 0; i < spec.initial_tasks; ++i) arrivals.push_back({0, draw_app()});

    switch (spec.process) {
        case ArrivalProcess::kPoisson:
            for (std::uint64_t q = 0; q < spec.horizon_quanta; ++q) {
                const double lambda = spec.arrival_rate * rate_scale_at(profile, q);
                const std::uint64_t count = poisson_draw(rng, lambda);
                for (std::uint64_t i = 0; i < count; ++i) arrivals.push_back({q, draw_app()});
            }
            break;
        case ArrivalProcess::kBurst: {
            if (spec.burst_period == 0)
                throw std::invalid_argument("build_trace: burst_period must be > 0");
            if (spec.burst_size == 0)
                throw std::invalid_argument("build_trace: burst_size must be > 0");
            for (std::uint64_t q = 0; q < spec.horizon_quanta; q += spec.burst_period) {
                const double scale = rate_scale_at(profile, q);
                const auto size = static_cast<std::uint64_t>(
                    std::llround(static_cast<double>(spec.burst_size) * scale));
                for (std::uint64_t i = 0; i < size; ++i) arrivals.push_back({q, draw_app()});
            }
            break;
        }
        case ArrivalProcess::kTrace:
            for (const TraceArrival& a : spec.trace) {
                if (a.quantum >= spec.horizon_quanta) continue;
                arrivals.push_back(a);
            }
            break;
    }

    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const TraceArrival& a, const TraceArrival& b) {
                         return a.quantum < b.quantum;
                     });

    // Sample each task's behaviour seed and service demand.  Draws are
    // consumed in arrival order from a dedicated stream, so the arrival
    // process and the demand sampling cannot perturb each other.
    ScenarioTrace trace;
    trace.spec = spec;
    trace.tasks.reserve(arrivals.size());
    BaselineCache baselines(spec, cfg);
    common::Rng demand_rng(spec.seed, 0xd3a2);
    // SLO classes come from their own stream: enabling lc_fraction must not
    // perturb the arrival process or the demand sampling above.
    common::Rng slo_rng(spec.seed, 0x510c);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const ServiceBaseline& base = baselines.of(arrivals[i].app_name);
        const double jitter = spec.service_jitter > 0.0
                                  ? demand_rng.uniform(1.0 - spec.service_jitter,
                                                       1.0 + spec.service_jitter)
                                  : 1.0;
        PlannedTask task;
        task.arrival_quantum = arrivals[i].quantum;
        task.app_name = arrivals[i].app_name;
        task.seed = common::derive_key(spec.seed, 0x7a5c, static_cast<std::uint64_t>(i));
        task.service_insts = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::llround(static_cast<double>(base.insts) * jitter)));
        task.isolated_ipc = base.ipc;

        const bool lc = spec.lc_fraction > 0.0 && slo_rng.chance(spec.lc_fraction);
        task.slo = lc ? SloClass::kLatencyCritical : SloClass::kBatch;
        task.priority = lc ? spec.lc_priority : spec.batch_priority;
        const double isolated_quanta = task.isolated_quanta(cfg.cycles_per_quantum);
        const double slack = lc ? spec.lc_deadline_slack : spec.batch_deadline_slack;
        task.deadline_quantum = isolated_quanta > 0.0
                                    ? static_cast<double>(task.arrival_quantum) +
                                          slack * isolated_quanta
                                    : 0.0;
        trace.tasks.push_back(std::move(task));
    }
    return trace;
}

std::uint64_t scenario_fingerprint(const ScenarioSpec& spec) noexcept {
    const auto hash_double = [](double v) noexcept {
        return common::splitmix64(std::bit_cast<std::uint64_t>(v));
    };
    std::uint64_t h = common::hash_string("scenario");
    h = common::derive_key(h, common::hash_string(spec.name),
                           static_cast<std::uint64_t>(spec.process), spec.seed);
    h = common::derive_key(h, spec.initial_tasks, hash_double(spec.arrival_rate));
    h = common::derive_key(h, spec.burst_period, spec.burst_size);
    h = common::derive_key(h, spec.service_quanta, hash_double(spec.service_jitter),
                           spec.horizon_quanta);
    h = common::derive_key(h, hash_double(spec.lc_fraction),
                           hash_double(spec.lc_deadline_slack),
                           hash_double(spec.batch_deadline_slack));
    h = common::derive_key(h, static_cast<std::uint64_t>(spec.lc_priority),
                           static_cast<std::uint64_t>(spec.batch_priority), 0x510);
    for (const std::string& app : spec.app_mix)
        h = common::derive_key(h, common::hash_string(app), 0xa99);
    for (const LoadPhase& p : spec.load_profile)
        h = common::derive_key(h, p.start_quantum, hash_double(p.rate_scale), 0x10ad);
    for (const TraceArrival& a : spec.trace)
        h = common::derive_key(h, a.quantum, common::hash_string(a.app_name), 0x7ace);
    return h;
}

}  // namespace synpa::scenario
