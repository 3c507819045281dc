#include "exp/artifact_cache.hpp"

#include <bit>

#include "common/rng.hpp"
#include "model/trainer.hpp"

namespace synpa::exp {
namespace {

std::uint64_t hash_double(double v) noexcept {
    return common::splitmix64(std::bit_cast<std::uint64_t>(v));
}

std::uint64_t hash_names(const std::vector<std::string>& names) noexcept {
    std::uint64_t h = common::hash_string("app-set");
    for (const auto& n : names) h = common::derive_key(h, common::hash_string(n));
    return h;
}

/// Every TrainerOptions field that can change the trained model.  `threads`
/// is deliberately excluded: training is deterministic in the options and
/// seed regardless of worker count.
std::uint64_t trainer_fingerprint(const model::TrainerOptions& o) noexcept {
    std::uint64_t h = common::derive_key(o.isolated_quanta, o.pair_quanta, o.warmup_quanta,
                                         o.seed);
    h = common::derive_key(h, hash_double(o.sample_fraction),
                           o.include_self_pairs ? 1u : 0u);
    return h;
}

}  // namespace

template <class T, class Build>
std::shared_ptr<const T> ArtifactCache::memoize(
    std::unordered_map<std::uint64_t, Slot<T>>& map, std::uint64_t key,
    std::size_t Stats::*counter, Build&& build) {
    // synpa-lint: fork-ok(a once-only memo: the first requester builds on its own thread)
    std::promise<std::shared_ptr<const T>> promise;
    Slot<T> slot;
    bool owner = false;
    {
        const std::lock_guard lock(mutex_);
        const auto it = map.find(key);
        if (it == map.end()) {
            slot = promise.get_future().share();
            map.emplace(key, slot);
            stats_.*counter += 1;
            owner = true;
        } else {
            slot = it->second;
            ++stats_.hits;
        }
    }
    if (owner) {
        try {
            promise.set_value(std::make_shared<const T>(build()));
        } catch (...) {
            // Drop the failed entry so a later request can retry (waiters
            // already holding this slot still observe the exception).
            {
                const std::lock_guard lock(mutex_);
                map.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    }
    return slot.get();
}

std::shared_ptr<const model::TrainingResult> ArtifactCache::training(
    const uarch::SimConfig& cfg, const model::TrainerOptions& opts,
    const std::vector<std::string>& app_names) {
    const std::uint64_t key = common::derive_key(
        uarch::config_fingerprint(cfg), trainer_fingerprint(opts), hash_names(app_names));
    return memoize(training_, key, &Stats::trainer_runs, [&] {
        return model::Trainer(cfg, opts).train(app_names);
    });
}

std::shared_ptr<const std::vector<workloads::AppCharacterization>>
ArtifactCache::characterizations(const uarch::SimConfig& cfg, std::uint64_t quanta,
                                 std::uint64_t seed) {
    const std::uint64_t key =
        common::derive_key(uarch::config_fingerprint(cfg), quanta, seed, 0xCA11);
    return memoize(characterizations_, key, &Stats::characterization_runs,
                   [&] { return workloads::characterize_suite(cfg, quanta, seed); });
}

std::shared_ptr<const workloads::PreparedWorkload> ArtifactCache::prepared(
    const workloads::WorkloadSpec& spec, const uarch::SimConfig& cfg,
    const workloads::MethodologyOptions& opts, int rep) {
    // Preparation depends only on the slot seeds (methodology seed, workload
    // name, rep) and the profiling window; reps/cv/threads do not matter.
    std::uint64_t key = common::derive_key(uarch::config_fingerprint(cfg),
                                           common::hash_string(spec.name),
                                           hash_names(spec.app_names));
    key = common::derive_key(key, opts.seed, opts.target_isolated_quanta,
                             static_cast<std::uint64_t>(rep));
    return memoize(prepared_, key, &Stats::prepared_builds, [&] {
        workloads::MethodologyOptions inner = opts;
        inner.threads = 1;  // parallelism lives at the campaign-cell grain
        return workloads::prepare_workload(spec, cfg, inner, rep);
    });
}

std::shared_ptr<const scenario::ScenarioTrace> ArtifactCache::scenario_trace(
    const scenario::ScenarioSpec& spec, const uarch::SimConfig& cfg) {
    const std::uint64_t key = common::derive_key(
        uarch::config_fingerprint(cfg), scenario::scenario_fingerprint(spec), 0x5ce0);
    return memoize(scenarios_, key, &Stats::scenario_builds,
                   [&] { return scenario::build_trace(spec, cfg); });
}

ArtifactCache::Stats ArtifactCache::stats() const {
    const std::lock_guard lock(mutex_);
    return stats_;
}

void ArtifactCache::clear() {
    const std::lock_guard lock(mutex_);
    training_.clear();
    characterizations_.clear();
    prepared_.clear();
    scenarios_.clear();
}

ArtifactCache& ArtifactCache::global() {
    static ArtifactCache cache;
    return cache;
}

}  // namespace synpa::exp
