#include "exp/fleet_grid.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fleet/policy.hpp"

namespace synpa::exp {

const FleetCellResult* FleetGridResult::find(const std::string& scenario,
                                             const std::string& fleet_policy) const {
    for (const auto& c : cells)
        if (c.scenario == scenario && c.fleet_policy == fleet_policy) return &c;
    return nullptr;
}

const FleetCampaign& FleetCampaign::validate() const {
    if (node_configs.empty()) throw std::invalid_argument("fleet grid: no configs");
    if (scenarios.empty()) throw std::invalid_argument("fleet grid: no scenarios");
    if (fleet_policies.empty()) throw std::invalid_argument("fleet grid: no fleet policies");
    common::require_thread_cap("FleetCampaign::fleet_threads", fleet_threads);
    return *this;
}

FleetGridRunner::FleetGridRunner(Options opts, ArtifactCache* cache) : engine_(opts, cache) {}

FleetGridResult FleetGridRunner::run(const FleetCampaign& campaign,
                                     const std::vector<FleetAggregator*>& aggregators) {
    const auto start = GridEngine::Clock::now();
    campaign.validate();
    for (const std::string& name : campaign.fleet_policies)
        (void)fleet::make_fleet_policy(name, 1);  // throws with the inventory

    FleetGridResult result;
    result.artifacts = engine_.training(campaign.node_configs, campaign.needs_training,
                                        campaign.trainer, campaign.training_apps);
    const auto run_rep = [&](const GridPoint& p, int rep, obs::Tracer* tracer) {
        const uarch::SimConfig& cfg = campaign.node_configs[p.config];
        const auto [trace, rep_seed] = engine_.scenario_rep(campaign.scenarios[p.row], cfg, rep);
        fleet::FleetOptions fo;
        fo.nodes = campaign.nodes;
        fo.node_config = cfg;
        fo.node_policy = campaign.node_policy;
        fo.fleet_policy = campaign.fleet_policies[p.policy];
        fo.fleet_seed = common::derive_key(rep_seed, 0xf1ee);
        fo.preemption = campaign.preemption;
        fo.threads = static_cast<std::size_t>(engine_.nested_threads(
            static_cast<int>(std::max<std::size_t>(campaign.fleet_threads, 1))));
        fo.max_quanta = campaign.max_quanta;
        fo.record_timeline = campaign.record_timelines;
        fo.tracer = tracer;
        const ArtifactSet& arts = result.artifacts[p.config];
        fo.policy_config.model = arts.training ? arts.model() : campaign.model;
        fo.policy_config.seed = rep_seed;
        return fleet::FleetRunner(*trace, std::move(fo)).run();
    };
    const auto fold = [&](const GridPoint& p, std::vector<fleet::FleetResult> runs) {
        const uarch::SimConfig& cfg = campaign.node_configs[p.config];
        fleet::FleetSummary summary = fleet::summarize(runs);
        return FleetCellResult{.config_index = p.config,
                               .scenario_index = p.row,
                               .policy_index = p.policy,
                               .nodes = campaign.nodes,
                               .chips = cfg.num_chips,
                               .cores = cfg.cores,
                               .smt_ways = cfg.smt_ways,
                               .scenario = campaign.scenarios[p.row].name,
                               .fleet_policy = campaign.fleet_policies[p.policy],
                               .node_policy = campaign.node_policy,
                               .runs = std::move(runs),
                               .summary = std::move(summary)};
    };
    const auto describe = [](std::ostream& os, const FleetCellResult& cell) {
        os << cell.scenario << " / " << cell.fleet_policy
           << " p99_slowdown=" << cell.summary.all.p99_slowdown
           << " goodput=" << cell.summary.goodput;
    };
    engine_.run(result, start,
                {.configs = campaign.node_configs.size(),
                 .rows = campaign.scenarios.size(),
                 .policies = campaign.fleet_policies.size(),
                 .reps = campaign.reps,
                 .axis = 's'},
                run_rep, fold, describe, aggregators);
    return result;
}

// ---------------------------------------------------------- aggregators --

FleetCsvAggregator::FleetCsvAggregator(std::ostream& os) : os_(os) {}

void FleetCsvAggregator::on_cell(const FleetCellResult& cell) {
    if (!header_written_) {
        os_ << "config,nodes,chips,cores,smt_ways,scenario_index,policy_index,scenario,"
               "fleet_policy,node_policy,planned,completed,"
               "p50_slowdown,p99_slowdown,p999_slowdown,mean_slowdown,"
               "p99_slowdown_lc,p999_slowdown_lc,violation_rate_lc,violation_rate_batch,"
               "goodput,throughput,preemptions_per_kquanta,mean_queue\n";
        header_written_ = true;
    }
    const fleet::FleetSummary& s = cell.summary;
    os_ << cell.config_index << ',' << cell.nodes << ',' << cell.chips << ','
        << cell.cores << ',' << cell.smt_ways << ',' << cell.scenario_index << ','
        << cell.policy_index << ',' << cell.scenario << ',' << cell.fleet_policy << ','
        << cell.node_policy << ',' << s.all.planned << ',' << s.all.completed << ','
        << s.all.p50_slowdown << ',' << s.all.p99_slowdown << ',' << s.all.p999_slowdown
        << ',' << s.all.mean_slowdown << ',' << s.latency_critical.p99_slowdown << ','
        << s.latency_critical.p999_slowdown << ',' << s.latency_critical.violation_rate
        << ',' << s.batch.violation_rate << ',' << s.goodput << ',' << s.throughput
        << ',' << s.preemptions_per_kquanta << ',' << s.all.mean_queue_quanta << '\n';
}

void FleetCsvAggregator::finish() { os_.flush(); }

}  // namespace synpa::exp
