// The one grid engine behind every evaluation grid.
//
// The paper's evaluation (§V-B) is a grid of (config x row x policy x
// repetition) runs aggregated per cell, where a row is a workload (the
// closed CampaignRunner) or a scenario (ScenarioGridRunner and
// FleetGridRunner).  GridEngine owns the whole schedule: the persistent
// pool, the per-cell completion count, the grid-order reorder buffer and
// progress line, the per-repetition flight recorder, the outer-worker count
// each cell caps its own threads under, and the run totals.  A runner
// supplies only how one repetition runs and how a cell's runs fold into its
// result.
//
// Determinism: every repetition derives its seeds purely from the grid
// point, and finished cells are released to sinks in grid order, so results
// are bit-identical for threads=1 and threads=N.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "exp/artifact_cache.hpp"
#include "model/trainer.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "uarch/sim_config.hpp"
#include "workloads/workload.hpp"

namespace synpa::exp {

/// Shared inputs resolved (through the ArtifactCache) for one grid config
/// before any of its cells run.  Entries the grid did not request stay null.
struct ArtifactSet {
    std::shared_ptr<const model::TrainingResult> training;
    std::shared_ptr<const std::vector<workloads::AppCharacterization>> characterizations;

    /// The trained model, or null.  Aliasing pointer: the model lives inside
    /// the shared training artifact, which stays alive while any cell holds it.
    std::shared_ptr<const model::InterferenceModel> model() const {
        if (!training) return nullptr;
        return {training, &training->model};
    }
};

/// Streaming consumer of finished cells.  on_cell is called exactly once
/// per cell, in grid order (config-major, then row, then policy),
/// regardless of how execution interleaves across threads.
template <class Cell>
class CellSink {
public:
    CellSink() = default;
    CellSink(const CellSink&) = delete;  // runners hold sinks by pointer
    CellSink& operator=(const CellSink&) = delete;
    virtual ~CellSink() = default;
    virtual void on_cell(const Cell& cell) = 0;
    /// Called once after the last cell.
    virtual void finish() {}
};

/// What every grid run returns.
template <class Cell>
struct GridResult {
    std::vector<Cell> cells;  ///< grid order
    /// The shared artifacts the runner resolved, one per config — so
    /// consumers (e.g. bench_table5) reuse exactly what the cells saw
    /// instead of re-deriving cache keys.
    std::vector<ArtifactSet> artifacts;
    std::size_t reps_executed = 0;
    double wall_seconds = 0.0;
};

struct GridOptions {
    std::size_t threads = 0;      ///< workers; 0 = hardware concurrency
    std::ostream* log = nullptr;  ///< optional per-cell progress lines

    /// Throws std::invalid_argument naming `GridOptions::threads` above
    /// common::kMaxThreads; returns *this.
    /// GridEngine calls it before it builds its pool.
    const GridOptions& validate() const;
};

/// One cell of the grid: its index on each axis.
struct GridPoint {
    std::size_t config = 0, row = 0, policy = 0;
};

/// The grid's axes.  Per-rep trace files are tagged
/// c<config><axis><row>p<policy>r<rep>.
struct GridShape {
    std::size_t configs = 0, rows = 0, policies = 0;
    int reps = 1;     ///< clamped to >= 1
    char axis = 's';  ///< 'w' (workload) or 's' (scenario)
};

class GridEngine {
public:
    using Clock = std::chrono::steady_clock;

    /// `cache` defaults to ArtifactCache::global(); pass a local cache to
    /// isolate artifact reuse (tests do).
    explicit GridEngine(GridOptions opts, ArtifactCache* cache = nullptr);

    ArtifactCache& cache() const noexcept { return *cache_; }

    /// Nested parallelism composes by capping: the grid already fans out
    /// over this pool, so a cell keeps only the inner threads the host has
    /// spare (results are identical at any thread count).
    int nested_threads(int requested) const noexcept {
        return common::nested_sim_threads(requested, pool_.size());
    }

    /// Each config's trained model when `needs_training` (null otherwise);
    /// empty `apps` means workloads::training_apps().
    std::vector<ArtifactSet> training(std::span<const uarch::SimConfig> configs,
                                      bool needs_training,
                                      const model::TrainerOptions& trainer,
                                      const std::vector<std::string>& apps) const;

    /// Repetition `rep` of an open scenario: its memoized arrival trace and
    /// policy seed.  Rep 0 keeps the spec verbatim, so its trace is shared
    /// with direct scenario_trace callers; later reps re-sample arrivals
    /// with a derived seed.
    std::pair<std::shared_ptr<const scenario::ScenarioTrace>, std::uint64_t> scenario_rep(
        scenario::ScenarioSpec spec, const uarch::SimConfig& cfg, int rep) const;

    /// Runs every (cell x rep) of `shape` over the pool and fills `out`'s
    /// cells (grid order), reps_executed and wall_seconds (from `start`).
    /// `run_rep(point, rep, tracer)` runs one repetition — `tracer` is the
    /// rep's own flight recorder, null unless SYNPA_TRACE and
    /// SYNPA_TRACE_FILE are set; `fold(point, runs)` turns a cell's runs
    /// into its result; `describe(os, cell)` writes the cell's progress-line
    /// text.  Sinks see each cell once, in grid order.  The first exception
    /// thrown by any repetition is rethrown here after the grid drains.
    template <class Cell, class RunRep, class Fold, class Describe>
    void run(GridResult<Cell>& out, Clock::time_point start, const GridShape& shape,
             RunRep run_rep, Fold fold, Describe describe,
             const std::vector<CellSink<Cell>*>& sinks) {
        using Run = std::invoke_result_t<RunRep&, const GridPoint&, int, obs::Tracer*>;
        const int reps = std::max(1, shape.reps);
        const auto rep_count = static_cast<std::size_t>(reps);
        struct CellState {
            std::vector<Run> runs;
            std::atomic<int> finished_reps{0};
            Cell result;
            bool folded = false;
        };
        const std::size_t per_config = shape.rows * shape.policies;
        std::vector<CellState> cells(shape.configs * per_config);
        for (CellState& cell : cells) cell.runs.resize(rep_count);

        // Reorder buffer: a cell is folded by whichever worker finishes its last
        // repetition, then every folded cell at the head of the grid is released.
        std::mutex emit_mutex;
        std::size_t next_emit = 0;
        out.cells.reserve(cells.size());
        const obs::TraceConfig trace_cfg = obs::TraceConfig::from_env();
        // Index k is repetition k % reps of cell k / reps: cell-major, so
        // early cells finish first.  Rethrows the first repetition failure,
        // if any, once every repetition has run.
        pool_.parallel_for(cells.size() * rep_count, [&](std::size_t k) {
            const std::size_t i = k / rep_count;
            const int rep = static_cast<int>(k % rep_count);
            const GridPoint point{.config = i / per_config,
                                  .row = i % per_config / shape.policies,
                                  .policy = i % shape.policies};
            CellState& cell = cells[i];
            const std::unique_ptr<obs::Tracer> tracer = rep_tracer(trace_cfg, shape, point, rep);
            cell.runs[static_cast<std::size_t>(rep)] = run_rep(point, rep, tracer.get());
            if (tracer) tracer->finish();
            if (cell.finished_reps.fetch_add(1, std::memory_order_acq_rel) + 1 != reps) return;
            cell.result = fold(point, std::move(cell.runs));
            const std::lock_guard lock(emit_mutex);
            cell.folded = true;
            for (; next_emit < cells.size() && cells[next_emit].folded; ++next_emit) {
                Cell& done = cells[next_emit].result;
                for (CellSink<Cell>* sink : sinks) sink->on_cell(done);
                if (log_ != nullptr) {
                    *log_ << "[" << (next_emit + 1) << "/" << cells.size() << "] ";
                    describe(*log_, done);
                    *log_ << "\n";
                }
                out.cells.push_back(std::move(done));
            }
        });

        for (CellSink<Cell>* sink : sinks) sink->finish();
        out.reps_executed = cells.size() * rep_count;
        out.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
    }

private:
    static std::unique_ptr<obs::Tracer> rep_tracer(const obs::TraceConfig& base,
                                                   const GridShape& shape,
                                                   const GridPoint& point, int rep);

    std::ostream* log_;
    ArtifactCache* cache_;
    common::ThreadPool pool_;  ///< persistent across run() calls
};

}  // namespace synpa::exp
