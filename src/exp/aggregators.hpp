// Streaming aggregators for campaign results: per-group means, paired
// speedups, and CSV/JSON export.  All of them rely on the runner's grid-
// order delivery guarantee, so their outputs are deterministic regardless
// of worker count.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "exp/campaign.hpp"
#include "workloads/methodology.hpp"

namespace synpa::exp {

/// Extracts one scalar per finished cell (e.g. mean turnaround).
using MetricFn = std::function<double(const CellResult&)>;

/// Mean/stddev of a metric per (policy label, workload group), where a
/// workload's group is its name's two-letter prefix (the paper's be/fe/fb).
class GroupMeanAggregator final : public Aggregator {
public:
    explicit GroupMeanAggregator(MetricFn metric);

    void on_cell(const CellResult& cell) override;

    /// (policy label, group) -> running stats, in deterministic map order.
    const std::map<std::pair<std::string, std::string>, common::RunningStats>& groups()
        const noexcept {
        return groups_;
    }
    /// Groups seen, in first-seen (grid) order.
    const std::vector<std::string>& group_order() const noexcept { return group_order_; }

private:
    MetricFn metric_;
    std::map<std::pair<std::string, std::string>, common::RunningStats> groups_;
    std::vector<std::string> group_order_;
};

/// Pairs every workload's baseline cell with each treatment cell as they
/// stream by and computes the paper's paired speedups.
class PairedSpeedupAggregator final : public Aggregator {
public:
    struct Row {
        std::string treatment;  ///< treatment policy label
        workloads::PolicyComparison comparison;
    };

    explicit PairedSpeedupAggregator(std::string baseline_label);

    void on_cell(const CellResult& cell) override;

    /// One row per (workload, treatment policy), in grid order.
    const std::vector<Row>& rows() const noexcept { return rows_; }

    /// Comparisons for one treatment label, in grid (workload) order.
    std::vector<workloads::PolicyComparison> comparisons(const std::string& treatment) const;

private:
    std::string baseline_label_;
    /// (config, workload) -> baseline metrics; grid order guarantees the
    /// baseline cell of a workload precedes its treatments.
    std::map<std::pair<std::size_t, std::size_t>, metrics::WorkloadMetrics> baselines_;
    std::vector<Row> rows_;
};

/// Writes one CSV row per cell: grid indices, labels, the aggregate
/// metrics, and the retained turnaround samples (';'-joined).
class CsvAggregator final : public Aggregator {
public:
    explicit CsvAggregator(std::ostream& os);
    void on_cell(const CellResult& cell) override;
    void finish() override;

private:
    std::ostream& os_;
    bool header_written_ = false;
};

/// Writes the whole campaign as one JSON array of cell objects.
class JsonAggregator final : public Aggregator {
public:
    explicit JsonAggregator(std::ostream& os);
    void on_cell(const CellResult& cell) override;
    void finish() override;

private:
    std::ostream& os_;
    bool first_ = true;
};

}  // namespace synpa::exp
