// Phase-adaptive SYNPA: the closed loop the paper's runtime premise points
// at.  A frozen SynpaPolicy trusts coefficients trained once, offline; this
// wrapper keeps the same Step 1-3 engine but
//
//   * watches every task's PMU deltas with a CUSUM PhaseDetector and, on a
//     phase change, drops the task's smoothed isolated estimate (and its
//     solo reference) so the next quantum re-seeds from fresh inversions;
//   * harvests *measured* training samples at runtime: a task that ran a
//     quantum with an empty core is its own isolated profile for the
//     current phase (fractions + IPC), and a later co-run quantum whose
//     members all hold fresh solo references yields exactly the offline
//     Trainer's alignment — isolated fractions for both sides and SMT
//     category cycles per isolated cycle of the same work;
//   * folds those samples into an IncrementalTrainer (rank-one updates on
//     the offline design matrix, ridge-anchored to the starting model) and
//     periodically swaps the refit model into the live policy.
//
// Everything observed is PMU-visible — no oracle state is touched — so the
// policy remains deployable in the paper's user-level-manager setting.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/flat_map.hpp"
#include "core/synpa_policy.hpp"
#include "online/incremental_trainer.hpp"
#include "online/phase_detector.hpp"
#include "sched/policy.hpp"

namespace synpa::online {

struct OnlineOptions {
    PhaseDetector::Options detector{};
    /// Ridge anchor to the starting model; keeps early refits conservative
    /// while samples are few.
    double prior_strength = 6.0;
    /// Quanta between refit attempts.
    std::uint64_t refit_period = 6;
    /// New samples required before a refit is attempted.
    std::size_t min_samples = 6;
    /// Solo references older than this many quanta are stale (the phase
    /// detector usually invalidates them first).
    std::uint64_t reference_max_age = 24;
    /// Per-refit exponential forgetting of accumulated evidence (1 = keep
    /// everything forever).
    double forgetting = 1.0;
    /// Held-out validation: every other harvested sample is withheld from
    /// training, and a refit candidate replaces the incumbent model only
    /// when it predicts the withheld samples at least as well — the
    /// do-no-harm gate that keeps a noisy trickle of online samples from
    /// degrading a decent offline model.
    std::size_t validation_window = 32;  ///< rolling held-out sample count
    std::size_t min_validation = 4;      ///< withheld samples needed to judge
    /// Required held-out improvement: candidate MSE must be below
    /// `adopt_factor` x incumbent MSE.  Every model swap perturbs the pair
    /// rankings (and costs real migrations while the matching resettles),
    /// so marginal prediction gains are not worth adopting.
    double adopt_factor = 1.0;
    /// Online samples with implausible measured slowdowns (outside
    /// [0.5, max_sample_slowdown]) are rejected as misaligned.
    double max_sample_slowdown = 8.0;

    /// Applies SYNPA_ONLINE_* environment overrides (see docs/REFERENCE.md).
    static OnlineOptions from_env();
};

class AdaptiveSynpaPolicy final : public sched::AllocationPolicy,
                                  public sched::OnlinePolicy {
public:
    AdaptiveSynpaPolicy(model::InterferenceModel model, core::SynpaPolicy::Options base,
                        OnlineOptions online);
    explicit AdaptiveSynpaPolicy(model::InterferenceModel model)
        : AdaptiveSynpaPolicy(std::move(model), {}, OnlineOptions::from_env()) {}

    std::string name() const override;
    sched::CoreAllocation reallocate(
        std::span<const sched::TaskObservation> observations) override;
    void on_task_replaced(int old_task_id, int new_task_id) override;
    void on_task_finished(int task_id) override;
    void set_tracer(obs::Tracer* tracer) override;

    // sched::OnlinePolicy
    std::uint64_t phase_changes() const override { return phase_changes_; }
    std::uint64_t model_refits() const override { return refits_; }
    std::uint64_t samples_absorbed() const override { return samples_; }

    const core::SynpaPolicy& inner() const noexcept { return inner_; }

private:
    /// Most recent quantum a task spent alone on a core: its isolated
    /// profile for the current phase.
    struct SoloReference {
        model::CategoryVector fractions{};
        double ipc = 0.0;
        std::uint64_t quantum = 0;  ///< when it was measured
    };

    /// A task's placement context last quantum: the same core and the same
    /// co-runner set mean this quantum's counters are comparable to the
    /// previous ones (no migration warmup, no regrouping-induced shift) —
    /// the gate for both the CUSUM update and the sample harvest.
    struct Placement {
        int core = -1;
        std::vector<int> corunners;
        bool operator==(const Placement&) const = default;
    };

    void harvest_samples(std::span<const sched::TaskObservation> observations,
                         const std::vector<bool>& stable);
    void maybe_refit();

    core::SynpaPolicy inner_;
    OnlineOptions opts_;
    obs::Tracer* tracer_ = nullptr;  ///< flight recorder (not owned)
    PhaseDetector detector_;
    IncrementalTrainer trainer_;
    common::FlatIdMap<SoloReference> references_;
    common::FlatIdMap<Placement> last_placement_;
    std::deque<model::TrainingSample> validation_;  ///< held-out samples

    std::uint64_t quantum_ = 0;
    std::uint64_t last_refit_ = 0;
    std::size_t pending_samples_ = 0;
    std::uint64_t phase_changes_ = 0;
    std::uint64_t refits_ = 0;
    std::uint64_t samples_ = 0;
};

}  // namespace synpa::online
