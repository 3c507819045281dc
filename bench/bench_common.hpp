// Shared helpers for the bench binaries: environment-scaled options, the
// header every report prints, and the declarative campaign the figure
// benches (fig5/fig8/fig9) share.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/synpa_policy.hpp"
#include "exp/aggregators.hpp"
#include "exp/campaign.hpp"
#include "sched/baselines.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/methodology.hpp"

namespace synpa::bench {

/// Evaluation scales, overridable via environment so the same binaries run
/// as a quick smoke pass (CI) or a fuller sweep:
///   SYNPA_BENCH_REPS, SYNPA_BENCH_SEED, SYNPA_BENCH_TARGET_QUANTA,
///   SYNPA_QUANTUM_CYCLES, SYNPA_CORES, ...
inline workloads::MethodologyOptions default_methodology() {
    workloads::MethodologyOptions opts;
    opts.reps = static_cast<int>(common::env_int("SYNPA_BENCH_REPS", 2));
    opts.seed = static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_SEED", 42));
    opts.target_isolated_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_TARGET_QUANTA", 120));
    opts.threads = workloads::bench_threads_from_env();
    return opts;
}

inline std::uint64_t characterization_quanta() {
    return static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_CHAR_QUANTA", 60));
}

/// Trainer options every evaluation bench shares, so all figures are
/// reproduced from the *same* trained model (paper §IV-C: train once,
/// reuse everywhere) and any in-process sequence of campaigns hits one
/// ArtifactCache entry.  Note this standardizes on fig5's historical
/// SYNPA_BENCH_TRAIN_PAIR_QUANTA default (36) for every bench.
inline model::TrainerOptions default_trainer(const workloads::MethodologyOptions& opts) {
    model::TrainerOptions topts;
    topts.seed = opts.seed;
    topts.pair_quanta =
        static_cast<std::uint64_t>(common::env_int("SYNPA_BENCH_TRAIN_PAIR_QUANTA", 36));
    return topts;
}

/// The linux and synpa policy columns used throughout the evaluation —
/// registry-built, so every bench resolves them exactly like a `policy=`
/// axis does (sched/registry.hpp).
inline exp::PolicySpec linux_policy() { return exp::registry_policy("linux"); }
inline exp::PolicySpec synpa_policy() { return exp::registry_policy("synpa"); }

/// The evaluation grid behind Figures 5, 8 and 9: the paper's twenty
/// workloads under {linux, synpa}, with the trained model and suite
/// characterization as shared artifacts.
inline exp::Campaign paper_eval_campaign(const uarch::SimConfig& cfg,
                                         const workloads::MethodologyOptions& opts) {
    exp::Campaign campaign;
    campaign.name = "paper-eval";
    campaign.configs = {cfg};
    campaign.use_paper_workloads = true;
    campaign.policies = {linux_policy(), synpa_policy()};
    campaign.methodology = opts;
    // The figure benches only read aggregate metrics; keeping per-quantum
    // traces for the whole 20x2 grid would hold them all in memory.
    campaign.methodology.record_traces = false;
    campaign.needs_training = true;
    campaign.trainer = default_trainer(opts);
    campaign.characterization_quanta = characterization_quanta();
    return campaign;
}

/// Optional export aggregators driven by SYNPA_BENCH_CSV / SYNPA_BENCH_JSON
/// (each names a file path); keeps the streams alive for the campaign's
/// lifetime.
class EnvExports {
public:
    EnvExports() {
        const auto open = [](const std::string& path) -> std::unique_ptr<std::ofstream> {
            auto stream = std::make_unique<std::ofstream>(path);
            if (stream->is_open()) return stream;
            std::cerr << "warning: cannot open export file '" << path << "' — skipping\n";
            return nullptr;
        };
        const std::string csv = common::env_string("SYNPA_BENCH_CSV", "");
        if (!csv.empty() && (csv_stream_ = open(csv)))
            aggregators_.push_back(std::make_unique<exp::CsvAggregator>(*csv_stream_));
        const std::string json = common::env_string("SYNPA_BENCH_JSON", "");
        if (!json.empty() && (json_stream_ = open(json)))
            aggregators_.push_back(std::make_unique<exp::JsonAggregator>(*json_stream_));
    }

    /// The export aggregators plus any bench-specific ones.
    std::vector<exp::Aggregator*> with(std::vector<exp::Aggregator*> extra = {}) {
        for (const auto& agg : aggregators_) extra.push_back(agg.get());
        return extra;
    }

private:
    std::unique_ptr<std::ofstream> csv_stream_, json_stream_;
    std::vector<std::unique_ptr<exp::Aggregator>> aggregators_;
};

inline void print_header(const std::string& artifact, const std::string& description) {
    std::cout << "==============================================================\n"
              << "SYNPA reproduction — " << artifact << "\n"
              << description << "\n"
              << "==============================================================\n";
}

}  // namespace synpa::bench
