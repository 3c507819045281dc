#include "exp/campaign.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "metrics/metrics.hpp"
#include "sched/registry.hpp"
#include "workloads/groups.hpp"

namespace synpa::exp {
namespace {

/// The paper's repetition aggregation (§V-B): CV-based outlier discard on
/// the turnaround samples, then averaging of the retained metrics.  This is
/// the single implementation — workloads::run_workload goes through here.
workloads::RepeatedResult aggregate_repetitions(const workloads::WorkloadSpec& spec,
                                                std::vector<sched::RunResult> runs,
                                                double cv_limit) {
    std::vector<metrics::WorkloadMetrics> run_metrics;
    std::vector<double> tts;
    for (const sched::RunResult& run : runs) {
        run_metrics.push_back(metrics::compute_metrics(run));
        tts.push_back(run_metrics.back().turnaround_quanta);
    }
    const std::vector<double> kept = common::discard_outliers_until_cv(tts, cv_limit);

    workloads::RepeatedResult result;
    result.workload = spec.name;
    result.policy = runs.front().policy_name;
    result.turnaround_samples = kept;

    metrics::WorkloadMetrics mean{};
    int used = 0;
    for (const metrics::WorkloadMetrics& m : run_metrics) {
        if (std::find(kept.begin(), kept.end(), m.turnaround_quanta) == kept.end()) continue;
        mean.turnaround_quanta += m.turnaround_quanta;
        mean.fairness += m.fairness;
        mean.ipc_geomean += m.ipc_geomean;
        mean.antt += m.antt;
        ++used;
    }
    if (used > 0) {
        mean.turnaround_quanta /= used;
        mean.fairness /= used;
        mean.ipc_geomean /= used;
        mean.antt /= used;
    }
    mean.individual_speedups = run_metrics.front().individual_speedups;
    result.mean_metrics = mean;
    result.exemplar = std::move(runs.front());
    return result;
}

}  // namespace

PolicySpec policy(std::string label, workloads::PolicyFactory factory) {
    return {std::move(label),
            [factory = std::move(factory)](const ArtifactSet&, std::uint64_t rep_seed) {
                return factory(rep_seed);
            },
            /*adaptive=*/false};
}

PolicySpec registry_policy(std::string name) {
    const sched::PolicyInfo* info = sched::find_policy(name);
    if (info == nullptr)
        throw std::invalid_argument("registry_policy: unknown policy '" + name +
                                    "' (see sched::registered_policies())");
    PolicySpec spec;
    spec.label = name;
    spec.adaptive = info->adaptive;
    spec.make = [name = std::move(name)](const ArtifactSet& artifacts,
                                         std::uint64_t rep_seed) {
        sched::PolicyConfig config;
        config.model = artifacts.model();
        config.seed = rep_seed;
        return sched::make_policy(name, config);
    };
    return spec;
}

std::vector<PolicySpec> policy_axis(std::vector<PolicySpec> columns,
                                    std::span<const std::string> names) {
    for (const std::string& name : names) columns.push_back(registry_policy(name));
    return columns;
}

const CellResult* CampaignResult::find(const std::string& workload,
                                       const std::string& policy) const {
    for (const auto& c : cells)
        if (c.workload == workload && c.policy == policy) return &c;
    return nullptr;
}

CampaignRunner::CampaignRunner(Options opts, ArtifactCache* cache) : engine_(opts, cache) {}

CampaignResult CampaignRunner::run(const Campaign& campaign,
                                   const std::vector<Aggregator*>& aggregators) {
    const auto start = GridEngine::Clock::now();
    if (campaign.configs.empty()) throw std::invalid_argument("campaign: no configs");
    campaign.methodology.validate();
    const std::vector<PolicySpec> policies = policy_axis(campaign.policies, campaign.policy_names);
    if (policies.empty()) throw std::invalid_argument("campaign: no policies");

    // ---- resolve shared artifacts and the workload axis per config -------
    const workloads::MethodologyOptions& opts = campaign.methodology;
    CampaignResult result;
    result.artifacts = engine_.training(campaign.configs, campaign.needs_training,
                                        campaign.trainer, campaign.training_apps);
    // Every config has the same row count: the explicit list, or the
    // paper's twenty sampled from that config's characterization.
    std::vector<std::vector<workloads::WorkloadSpec>> workloads;
    for (std::size_t ci = 0; ci < campaign.configs.size(); ++ci) {
        const uarch::SimConfig& cfg = campaign.configs[ci];
        ArtifactSet& artifacts = result.artifacts[ci];
        if (campaign.needs_characterizations || campaign.use_paper_workloads)
            artifacts.characterizations = engine_.cache().characterizations(
                cfg, campaign.characterization_quanta, opts.seed);
        if (campaign.needs_calibration)
            workloads::calibrate_suite(cfg, campaign.calibration_quanta, opts.seed);
        workloads.push_back(campaign.use_paper_workloads
                                ? workloads::paper_workloads(*artifacts.characterizations,
                                                             opts.seed)
                                : campaign.workloads);
        if (workloads.back().empty()) throw std::invalid_argument("campaign: no workloads");
    }

    const auto run_rep = [&](const GridPoint& p, int rep, obs::Tracer* tracer) {
        const workloads::WorkloadSpec& spec = workloads[p.config][p.row];
        workloads::MethodologyOptions rep_opts = opts;
        rep_opts.record_traces = opts.record_traces && rep == 0;
        rep_opts.threads = 1;  // parallelism lives at the rep grain
        rep_opts.tracer = tracer;
        const auto prepared = engine_.cache().prepared(spec, campaign.configs[p.config], opts, rep);
        const std::uint64_t rep_seed = common::derive_key(
            opts.seed, common::hash_string(spec.name), 0x9001, static_cast<std::uint64_t>(rep));
        const auto pol = policies[p.policy].make(result.artifacts[p.config], rep_seed);
        uarch::SimConfig cell_cfg = campaign.configs[p.config];
        cell_cfg.sim_threads = engine_.nested_threads(cell_cfg.sim_threads);
        return workloads::run_workload_once(*prepared, cell_cfg, *pol, rep_opts);
    };
    const auto fold = [&](const GridPoint& p, std::vector<sched::RunResult> runs) {
        const uarch::SimConfig& cfg = campaign.configs[p.config];
        const workloads::WorkloadSpec& spec = workloads[p.config][p.row];
        return CellResult{
            .config_index = p.config,
            .workload_index = p.row,
            .policy_index = p.policy,
            .chips = cfg.num_chips,
            .cores = cfg.cores,
            .smt_ways = cfg.smt_ways,
            .workload = spec.name,
            .policy = policies[p.policy].label,
            .adaptive = policies[p.policy].adaptive,
            .result = aggregate_repetitions(spec, std::move(runs), opts.cv_limit)};
    };
    const auto describe = [](std::ostream& os, const CellResult& cell) {
        os << cell.workload << " / " << cell.policy
           << " TT=" << cell.result.mean_metrics.turnaround_quanta;
    };
    engine_.run(result, start,
                {.configs = campaign.configs.size(),
                 .rows = workloads.front().size(),
                 .policies = policies.size(),
                 .reps = opts.reps,
                 .axis = 'w'},
                run_rep, fold, describe, aggregators);
    return result;
}

workloads::PolicyComparison paired_comparison(const std::string& workload,
                                              const metrics::WorkloadMetrics& baseline,
                                              const metrics::WorkloadMetrics& treatment) {
    workloads::PolicyComparison c;
    c.workload = workload;
    c.baseline = baseline;
    c.treatment = treatment;
    c.tt_speedup = metrics::turnaround_speedup(baseline, treatment);
    c.ipc_speedup = metrics::ipc_speedup(baseline, treatment);
    c.fairness_delta = treatment.fairness - baseline.fairness;
    return c;
}

std::vector<workloads::PolicyComparison> compare_to_baseline(const CampaignResult& result,
                                                             std::size_t baseline_policy,
                                                             std::size_t treatment_policy) {
    std::map<std::size_t, const CellResult*> base, treat;
    for (const auto& c : result.cells) {
        if (c.policy_index == baseline_policy) base[c.workload_index] = &c;
        if (c.policy_index == treatment_policy) treat[c.workload_index] = &c;
    }
    std::vector<workloads::PolicyComparison> out;
    out.reserve(base.size());
    for (const auto& [wi, b] : base) {
        const auto it = treat.find(wi);
        if (it == treat.end()) continue;
        out.push_back(paired_comparison(b->workload, b->result.mean_metrics,
                                        it->second->result.mean_metrics));
    }
    return out;
}

}  // namespace synpa::exp
