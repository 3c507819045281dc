#include "workloads/methodology.hpp"

#include <cmath>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "apps/spec_suite.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/campaign.hpp"
#include "model/trainer.hpp"
#include "uarch/platform.hpp"

namespace synpa::workloads {
namespace {

std::uint64_t slot_seed(const MethodologyOptions& opts, const WorkloadSpec& spec, int slot,
                        int rep) {
    return common::derive_key(opts.seed, common::hash_string(spec.name),
                              static_cast<std::uint64_t>(slot),
                              static_cast<std::uint64_t>(rep));
}

/// Isolated target-profiling runs are deterministic in (app, seed, quanta,
/// config), and the evaluation sweeps repeat them (same slot seeds for the
/// baseline and treatment policies), so memoize them process-wide.
struct TargetProfile {
    std::uint64_t target_insts = 0;
    double isolated_ipc = 0.0;
};

TargetProfile profile_target(const std::string& app_name, const uarch::SimConfig& cfg,
                             std::uint64_t quanta, std::uint64_t seed) {
    struct Key {
        std::uint64_t app, cfg, quanta, seed;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            return common::derive_key(k.app, k.cfg, k.quanta, k.seed);
        }
    };
    static std::unordered_map<Key, TargetProfile, KeyHash> cache;
    static std::mutex mutex;

    const Key key{common::hash_string(app_name), uarch::config_fingerprint(cfg), quanta, seed};
    {
        const std::lock_guard lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) return it->second;
    }
    const model::IsolatedProfile prof =
        model::profile_isolated(apps::find_app(app_name), cfg, quanta, seed);
    const TargetProfile result{.target_insts = prof.total_instructions(),
                               .isolated_ipc = prof.ipc()};
    const std::lock_guard lock(mutex);
    cache.emplace(key, result);
    return result;
}

void require(bool ok, const char* field, const std::string& rule, const std::string& got) {
    if (!ok)
        throw std::invalid_argument(std::string("MethodologyOptions::") + field + " must be " +
                                    rule + ", got " + got);
}

}  // namespace

const MethodologyOptions& MethodologyOptions::validate() const {
    // Unsigned fields read back as signed so a wrapped negative is caught.
    const auto as_signed = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
    require(reps >= 1, "reps", ">= 1", std::to_string(reps));
    require(as_signed(target_isolated_quanta) > 0, "target_isolated_quanta", "> 0",
            std::to_string(as_signed(target_isolated_quanta)));
    require(as_signed(max_quanta) > 0, "max_quanta", "> 0", std::to_string(as_signed(max_quanta)));
    require(!std::isnan(cv_limit) && cv_limit >= 0.0, "cv_limit", ">= 0",
            std::to_string(cv_limit));
    common::require_thread_cap("MethodologyOptions::threads", threads);
    return *this;
}

std::size_t bench_threads_from_env() {
    const std::int64_t threads = common::env_int("SYNPA_BENCH_THREADS", 0);
    const auto max = static_cast<std::int64_t>(common::kMaxThreads);
    if (threads < 0 || threads > max)
        throw std::invalid_argument("SYNPA_BENCH_THREADS must be in [0, " + std::to_string(max) +
                                    "], got " + std::to_string(threads));
    return static_cast<std::size_t>(threads);
}

PreparedWorkload prepare_workload(const WorkloadSpec& spec, const uarch::SimConfig& cfg,
                                  const MethodologyOptions& opts, int rep) {
    opts.validate();
    if (spec.app_names.size() != static_cast<std::size_t>(cfg.num_chips) *
                                     static_cast<std::size_t>(cfg.cores) *
                                     static_cast<std::size_t>(cfg.smt_ways))
        throw std::invalid_argument(
            "prepare_workload: workload size must fill the platform");
    PreparedWorkload prepared;
    prepared.spec = spec;
    prepared.tasks.resize(spec.app_names.size());
    common::parallel_for(
        spec.app_names.size(),
        [&](std::size_t s) {
            const std::uint64_t seed = slot_seed(opts, spec, static_cast<int>(s), rep);
            const TargetProfile prof = profile_target(spec.app_names[s], cfg,
                                                      opts.target_isolated_quanta, seed);
            prepared.tasks[s] = {.app_name = spec.app_names[s],
                                 .seed = seed,
                                 .target_insts = prof.target_insts,
                                 .isolated_ipc = prof.isolated_ipc};
        },
        opts.threads);
    return prepared;
}

sched::RunResult run_workload_once(const PreparedWorkload& prepared,
                                   const uarch::SimConfig& cfg,
                                   sched::AllocationPolicy& policy,
                                   const MethodologyOptions& opts) {
    opts.validate();
    uarch::Platform platform(cfg);
    sched::ThreadManager manager(platform, policy, prepared.tasks,
                                 {.max_quanta = opts.max_quanta,
                                  .record_traces = opts.record_traces,
                                  .tracer = opts.tracer});
    return manager.run();
}

// run_workload is a thin wrapper over the campaign engine: it declares a
// one-cell grid and lets exp::CampaignRunner execute the repetitions over
// its persistent pool, with artifacts (per-rep prepared workloads)
// memoized process-wide in exp::ArtifactCache::global().

RepeatedResult run_workload(const WorkloadSpec& spec, const uarch::SimConfig& cfg,
                            const PolicyFactory& make_policy,
                            const MethodologyOptions& opts) {
    exp::Campaign campaign;
    campaign.name = "run_workload:" + spec.name;
    campaign.configs = {cfg};
    campaign.workloads = {spec};
    campaign.policies = {exp::policy("policy", make_policy)};
    campaign.methodology = opts.validate();
    exp::CampaignRunner runner({.threads = opts.threads});
    exp::CampaignResult result = runner.run(campaign);
    return std::move(result.cells.front().result);
}

}  // namespace synpa::workloads
