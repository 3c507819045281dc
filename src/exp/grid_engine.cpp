#include "exp/grid_engine.hpp"

#include <cstdio>

#include "common/rng.hpp"
#include "workloads/groups.hpp"

namespace synpa::exp {

const GridOptions& GridOptions::validate() const {
    common::require_thread_cap("GridOptions::threads", threads);
    return *this;
}

GridEngine::GridEngine(GridOptions opts, ArtifactCache* cache)
    : log_(opts.log),
      cache_(cache != nullptr ? cache : &ArtifactCache::global()),
      pool_(opts.validate().threads) {}

std::vector<ArtifactSet> GridEngine::training(std::span<const uarch::SimConfig> configs,
                                              bool needs_training,
                                              const model::TrainerOptions& trainer,
                                              const std::vector<std::string>& apps) const {
    std::vector<ArtifactSet> artifacts(configs.size());
    if (!needs_training) return artifacts;
    const std::vector<std::string> train_apps = apps.empty() ? workloads::training_apps() : apps;
    for (std::size_t ci = 0; ci < configs.size(); ++ci)
        artifacts[ci].training = cache_->training(configs[ci], trainer, train_apps);
    return artifacts;
}

std::pair<std::shared_ptr<const scenario::ScenarioTrace>, std::uint64_t> GridEngine::scenario_rep(
    scenario::ScenarioSpec spec, const uarch::SimConfig& cfg, int rep) const {
    const auto r = static_cast<std::uint64_t>(rep);
    if (rep > 0) spec.seed = common::derive_key(spec.seed, 0x9e9, r);
    return {cache_->scenario_trace(spec, cfg), common::derive_key(spec.seed, 0x9001, r)};
}

// Per-rep flight recording: every repetition gets its own tracer and trace
// file, so parallel cells never share a recorder and memoized artifacts stay
// byte-identical.
std::unique_ptr<obs::Tracer> GridEngine::rep_tracer(const obs::TraceConfig& base,
                                                    const GridShape& shape,
                                                    const GridPoint& point, int rep) {
    if (!base.enabled || base.file.empty()) return nullptr;
    char tag[64];
    std::snprintf(tag, sizeof(tag), "c%zu%c%zup%zur%d", point.config, shape.axis, point.row,
                  point.policy, rep);
    obs::TraceConfig cfg = base;
    cfg.file = obs::derive_trace_path(base.file, tag);
    return std::make_unique<obs::Tracer>(std::move(cfg));
}

}  // namespace synpa::exp
