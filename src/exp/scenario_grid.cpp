#include "exp/scenario_grid.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "common/stats.hpp"

namespace synpa::exp {

ScenarioSummary summarize_runs(std::span<const scenario::ScenarioResult> runs) {
    ScenarioSummary s;
    std::vector<double> turnarounds;
    double queue_sum = 0.0, slowdown_sum = 0.0, util_sum = 0.0;
    double quanta_total = 0.0, migrations_total = 0.0, cross_chip_total = 0.0;
    std::size_t util_runs = 0;
    for (const scenario::ScenarioResult& run : runs) {
        s.planned_tasks += run.tasks.size();
        s.completed_tasks += run.completed_tasks;
        s.all_completed = s.all_completed && run.completed;
        for (const scenario::TaskRecord& rec : run.tasks) {
            if (!rec.completed) continue;
            turnarounds.push_back(rec.turnaround_quanta);
            queue_sum += rec.queue_quanta;
            slowdown_sum += rec.slowdown;
        }
        if (!run.timeline.empty()) {
            util_sum += run.mean_utilization();
            ++util_runs;
        }
        quanta_total += static_cast<double>(run.quanta_executed);
        migrations_total += static_cast<double>(run.migrations);
        cross_chip_total += static_cast<double>(run.cross_chip_migrations);
        s.adaptive = s.adaptive || run.adaptive;
        s.phase_changes_per_run += static_cast<double>(run.phase_changes);
        s.model_refits_per_run += static_cast<double>(run.model_refits);
    }
    if (!runs.empty()) {
        s.phase_changes_per_run /= static_cast<double>(runs.size());
        s.model_refits_per_run /= static_cast<double>(runs.size());
    }
    if (!turnarounds.empty()) {
        double sum = 0.0;
        for (double t : turnarounds) sum += t;
        const auto n = static_cast<double>(turnarounds.size());
        s.mean_turnaround = sum / n;
        std::sort(turnarounds.begin(), turnarounds.end());
        s.p50_turnaround = common::percentile_sorted(turnarounds, 0.50);
        s.p95_turnaround = common::percentile_sorted(turnarounds, 0.95);
        s.p99_turnaround = common::percentile_sorted(turnarounds, 0.99);
        s.mean_queue = queue_sum / n;
        s.mean_slowdown = slowdown_sum / n;
    }
    if (util_runs > 0) s.mean_utilization = util_sum / static_cast<double>(util_runs);
    if (quanta_total > 0.0) {
        s.throughput = static_cast<double>(s.completed_tasks) / quanta_total;
        s.migrations_per_quantum = migrations_total / quanta_total;
        s.cross_chip_per_quantum = cross_chip_total / quanta_total;
    }
    return s;
}

const ScenarioCellResult* ScenarioGridResult::find(const std::string& scenario,
                                                   const std::string& policy) const {
    for (const auto& c : cells)
        if (c.scenario == scenario && c.policy == policy) return &c;
    return nullptr;
}

ScenarioGridRunner::ScenarioGridRunner(Options opts, ArtifactCache* cache)
    : engine_(opts, cache) {}

ScenarioGridResult ScenarioGridRunner::run(
    const ScenarioCampaign& campaign, const std::vector<ScenarioAggregator*>& aggregators) {
    const auto start = GridEngine::Clock::now();
    if (campaign.configs.empty()) throw std::invalid_argument("scenario grid: no configs");
    if (campaign.scenarios.empty())
        throw std::invalid_argument("scenario grid: no scenarios");
    const std::vector<PolicySpec> policies = policy_axis(campaign.policies, campaign.policy_names);
    if (policies.empty()) throw std::invalid_argument("scenario grid: no policies");

    ScenarioGridResult result;
    result.artifacts = engine_.training(campaign.configs, campaign.needs_training,
                                        campaign.trainer, campaign.training_apps);
    const auto run_rep = [&](const GridPoint& p, int rep, obs::Tracer* tracer) {
        uarch::SimConfig cfg = campaign.configs[p.config];
        const auto [trace, rep_seed] = engine_.scenario_rep(campaign.scenarios[p.row], cfg, rep);
        const auto policy = policies[p.policy].make(result.artifacts[p.config], rep_seed);
        cfg.sim_threads = engine_.nested_threads(cfg.sim_threads);
        uarch::Platform platform(cfg);
        return scenario::ScenarioRunner(platform, *policy, *trace,
                                        {.max_quanta = campaign.max_quanta,
                                         .record_timeline = campaign.record_timelines,
                                         .tracer = tracer})
            .run();
    };
    const auto fold = [&](const GridPoint& p, std::vector<scenario::ScenarioResult> runs) {
        const uarch::SimConfig& cfg = campaign.configs[p.config];
        ScenarioSummary summary = summarize_runs(runs);
        return ScenarioCellResult{.config_index = p.config,
                                  .scenario_index = p.row,
                                  .policy_index = p.policy,
                                  .chips = cfg.num_chips,
                                  .cores = cfg.cores,
                                  .smt_ways = cfg.smt_ways,
                                  .scenario = campaign.scenarios[p.row].name,
                                  .policy = policies[p.policy].label,
                                  .adaptive = policies[p.policy].adaptive,
                                  .runs = std::move(runs),
                                  .summary = std::move(summary)};
    };
    const auto describe = [](std::ostream& os, const ScenarioCellResult& cell) {
        os << cell.scenario << " / " << cell.policy
           << " TTmean=" << cell.summary.mean_turnaround
           << " util=" << cell.summary.mean_utilization;
    };
    engine_.run(result, start,
                {.configs = campaign.configs.size(),
                 .rows = campaign.scenarios.size(),
                 .policies = policies.size(),
                 .reps = campaign.reps,
                 .axis = 's'},
                run_rep, fold, describe, aggregators);
    return result;
}

// ---------------------------------------------------------- aggregators --

ScenarioCsvAggregator::ScenarioCsvAggregator(std::ostream& os) : os_(os) {}

void ScenarioCsvAggregator::on_cell(const ScenarioCellResult& cell) {
    if (!header_written_) {
        // `adaptive` stays the trailing column: the CI smoke checks address
        // the leading columns positionally.
        os_ << "config,chips,cores,smt_ways,scenario_index,policy_index,scenario,policy,"
               "planned,completed,all_completed,mean_tt,p50_tt,p95_tt,p99_tt,mean_queue,"
               "mean_slowdown,mean_utilization,throughput,migrations_per_quantum,"
               "cross_chip_per_quantum,adaptive\n";
        header_written_ = true;
    }
    const ScenarioSummary& s = cell.summary;
    os_ << cell.config_index << ',' << cell.chips << ',' << cell.cores << ','
        << cell.smt_ways << ',' << cell.scenario_index << ',' << cell.policy_index
        << ',' << cell.scenario << ',' << cell.policy << ',' << s.planned_tasks << ','
        << s.completed_tasks << ',' << (s.all_completed ? 1 : 0) << ',' << s.mean_turnaround
        << ',' << s.p50_turnaround << ',' << s.p95_turnaround << ',' << s.p99_turnaround
        << ',' << s.mean_queue << ',' << s.mean_slowdown << ',' << s.mean_utilization << ','
        << s.throughput << ',' << s.migrations_per_quantum << ','
        // Measured, not declared: true when the runs' policy actually
        // implemented sched::OnlinePolicy, whatever the PolicySpec said.
        << s.cross_chip_per_quantum << ',' << (s.adaptive ? 1 : 0) << '\n';
}

void ScenarioCsvAggregator::finish() { os_.flush(); }

}  // namespace synpa::exp
