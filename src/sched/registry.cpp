#include "sched/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace synpa::sched {
namespace {

// The single source of truth for the policy name set.  Keep one entry per
// line: tools/check_docs.py parses the quoted names between the begin/end
// markers and fails CI when docs/REFERENCE.md misses one.
// registry-table-begin
constexpr PolicyInfo kRegistry[] = {
    {"linux", "none (arrival order, never migrates)", false, false,
     "the paper's CFS-observed baseline"},
    {"random", "none (uniform regroup every quantum)", false, false,
     "churn baseline isolating informed grouping from mere migration"},
    {"sampling", "measured aggregate IPC (explore/exploit)", false, false,
     "Snavely&Tullsen-style symbiotic sampler"},
    {"oracle", "total slowdown (true phase vectors)", true, false,
     "upper bound using calibrated per-phase categories"},
    {"synpa", "total slowdown", true, false,
     "the paper's policy: invert, predict, min-weight matching (Blossom)"},
    {"synpa-greedy", "total slowdown", true, false,
     "SYNPA with the greedy selector (ablation)"},
    {"synpa-stp", "throughput (STP)", true, false,
     "family variant minimizing summed throughput loss 1 - 1/s"},
    {"synpa-fair", "fairness (max slowdown)", true, false,
     "family variant minimizing the worst member (soft-max, s^4)"},
    {"synpa-tail", "turnaround tail", true, false,
     "family variant penalizing stragglers quadratically (s^2)"},
    {"synpa-adaptive", "total slowdown, phase-adaptive model", true, true,
     "SYNPA + CUSUM phase detection + incremental model retraining"},
};
// registry-table-end

const model::InterferenceModel& require_model(std::string_view name,
                                              const PolicyConfig& config) {
    if (!config.model)
        throw std::invalid_argument("make_policy(\"" + std::string(name) +
                                    "\"): PolicyConfig::model is required");
    return *config.model;
}

std::unique_ptr<AllocationPolicy> make_synpa(const PolicyConfig& config,
                                             std::string_view name,
                                             core::PairSelector selector,
                                             core::Objective objective) {
    core::SynpaPolicy::Options opts = config.synpa;
    opts.selector = selector;
    opts.objective = objective;
    return std::make_unique<core::SynpaPolicy>(require_model(name, config), opts);
}

}  // namespace

std::span<const PolicyInfo> registered_policies() { return kRegistry; }

const PolicyInfo* find_policy(std::string_view name) {
    for (const PolicyInfo& info : kRegistry)
        if (info.name == name) return &info;
    return nullptr;
}

std::unique_ptr<AllocationPolicy> make_policy(std::string_view name,
                                              const PolicyConfig& config) {
    using core::Objective;
    using core::PairSelector;
    if (name == "linux") return std::make_unique<LinuxPolicy>();
    if (name == "random") return std::make_unique<RandomPolicy>(config.seed);
    if (name == "sampling")
        return std::make_unique<SamplingPolicy>(config.seed, config.sampling);
    if (name == "oracle")
        return std::make_unique<OraclePolicy>(require_model(name, config),
                                              config.synpa.cross_chip_penalty);
    if (name == "synpa")
        return make_synpa(config, name, config.synpa.selector, Objective::kTotalSlowdown);
    if (name == "synpa-greedy")
        return make_synpa(config, name, PairSelector::kGreedy, Objective::kTotalSlowdown);
    if (name == "synpa-stp")
        return make_synpa(config, name, config.synpa.selector, Objective::kThroughput);
    if (name == "synpa-fair")
        return make_synpa(config, name, config.synpa.selector, Objective::kFairness);
    if (name == "synpa-tail")
        return make_synpa(config, name, config.synpa.selector, Objective::kTail);
    if (name == "synpa-adaptive") {
        core::SynpaPolicy::Options opts = config.synpa;
        opts.objective = Objective::kTotalSlowdown;
        return std::make_unique<online::AdaptiveSynpaPolicy>(require_model(name, config),
                                                             opts, config.online);
    }

    std::ostringstream os;
    os << "make_policy: unknown policy '" << name << "'; registered:";
    for (const PolicyInfo& info : kRegistry) os << ' ' << info.name;
    throw std::invalid_argument(os.str());
}

}  // namespace synpa::sched
