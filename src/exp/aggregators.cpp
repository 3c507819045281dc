#include "exp/aggregators.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>

#include "metrics/metrics.hpp"

namespace synpa::exp {
namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default: out += c;
        }
    }
    return out;
}

std::string joined_samples(const std::vector<double>& xs, char sep) {
    std::ostringstream os;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) os << sep;
        os << xs[i];
    }
    return os.str();
}

}  // namespace

GroupMeanAggregator::GroupMeanAggregator(MetricFn metric) : metric_(std::move(metric)) {}

void GroupMeanAggregator::on_cell(const CellResult& cell) {
    const std::string group = cell.workload.substr(0, 2);
    if (std::find(group_order_.begin(), group_order_.end(), group) == group_order_.end())
        group_order_.push_back(group);
    groups_[{cell.policy, group}].add(metric_(cell));
}

PairedSpeedupAggregator::PairedSpeedupAggregator(std::string baseline_label)
    : baseline_label_(std::move(baseline_label)) {}

void PairedSpeedupAggregator::on_cell(const CellResult& cell) {
    const std::pair<std::size_t, std::size_t> key{cell.config_index, cell.workload_index};
    if (cell.policy == baseline_label_) {
        baselines_[key] = cell.result.mean_metrics;
        return;
    }
    const auto it = baselines_.find(key);
    if (it == baselines_.end()) return;  // baseline column absent or later in grid
    rows_.push_back(
        {cell.policy, paired_comparison(cell.workload, it->second, cell.result.mean_metrics)});
}

std::vector<workloads::PolicyComparison> PairedSpeedupAggregator::comparisons(
    const std::string& treatment) const {
    std::vector<workloads::PolicyComparison> out;
    for (const auto& row : rows_)
        if (row.treatment == treatment) out.push_back(row.comparison);
    return out;
}

CsvAggregator::CsvAggregator(std::ostream& os) : os_(os) {}

void CsvAggregator::on_cell(const CellResult& cell) {
    if (!header_written_) {
        os_ << "config,chips,cores,smt_ways,workload,policy,adaptive,turnaround_quanta,"
               "fairness,ipc_geomean,antt,reps_kept,turnaround_samples\n";
        header_written_ = true;
    }
    const auto& m = cell.result.mean_metrics;
    os_ << cell.config_index << ',' << cell.chips << ',' << cell.cores << ','
        << cell.smt_ways << ',' << cell.workload << ',' << cell.policy << ','
        << (cell.adaptive ? 1 : 0) << ',' << m.turnaround_quanta << ','
        << m.fairness << ',' << m.ipc_geomean << ',' << m.antt << ','
        << cell.result.turnaround_samples.size() << ','
        << joined_samples(cell.result.turnaround_samples, ';') << '\n';
}

void CsvAggregator::finish() { os_.flush(); }

JsonAggregator::JsonAggregator(std::ostream& os) : os_(os) {}

void JsonAggregator::on_cell(const CellResult& cell) {
    os_ << (first_ ? "[\n" : ",\n");
    first_ = false;
    const auto& m = cell.result.mean_metrics;
    os_ << "  {\"config\": " << cell.config_index << ", \"chips\": " << cell.chips
        << ", \"cores\": " << cell.cores
        << ", \"smt_ways\": " << cell.smt_ways << ", \"workload\": \""
        << json_escape(cell.workload) << "\", \"policy\": \"" << json_escape(cell.policy)
        << "\", \"turnaround_quanta\": " << m.turnaround_quanta
        << ", \"fairness\": " << m.fairness << ", \"ipc_geomean\": " << m.ipc_geomean
        << ", \"antt\": " << m.antt << ", \"turnaround_samples\": ["
        << joined_samples(cell.result.turnaround_samples, ',') << "]}";
}

void JsonAggregator::finish() {
    os_ << (first_ ? "[]\n" : "\n]\n");
    os_.flush();
}

}  // namespace synpa::exp
