// Tests for the online-adaptation subsystem (src/online/): the CUSUM phase
// detector's false-positive and detection-latency behaviour, the
// incremental trainer's bit-exact equivalence with a full offline retrain
// on shared observations, its agreement with the offline QR fit, and the
// adaptive policy's end-to-end accounting in the open-system driver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "model/trainer.hpp"
#include "online/adaptive_policy.hpp"
#include "online/incremental_trainer.hpp"
#include "online/phase_detector.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "uarch/platform.hpp"

namespace {

using namespace synpa;

// ---------- phase detector ----------

model::CategoryVector noisy_fractions(common::Rng& rng, double fe, double be) {
    // Small bounded jitter around a fixed mix, renormalized to the simplex.
    const double jitter = 0.01;
    double f = fe + (rng.uniform() - 0.5) * jitter;
    double b = be + (rng.uniform() - 0.5) * jitter;
    double d = 1.0 - f - b;
    const double sum = f + b + d;
    return {d / sum, f / sum, b / sum};
}

TEST(PhaseDetector, NoFalsePositivesOnStationaryTrace) {
    online::PhaseDetector detector;
    common::Rng rng(1, 0xfade);
    for (int q = 0; q < 500; ++q) {
        const double ipc = 1.5 + (rng.uniform() - 0.5) * 0.05;
        EXPECT_FALSE(detector.observe(7, ipc, noisy_fractions(rng, 0.2, 0.3)))
            << "false alarm at quantum " << q;
    }
    EXPECT_EQ(detector.alarms(), 0u);
}

TEST(PhaseDetector, DetectsStepChangeWithinLatencyBound) {
    online::PhaseDetector::Options opts;  // defaults: warmup 5, k 0.75, h 6
    online::PhaseDetector detector(opts);
    common::Rng rng(2, 0xfade);
    for (int q = 0; q < 60; ++q)
        ASSERT_FALSE(detector.observe(1, 2.0 + (rng.uniform() - 0.5) * 0.05,
                                      noisy_fractions(rng, 0.15, 0.25)));

    // A frontend-heavy phase begins: IPC halves, fractions shift hard.
    int detected_after = -1;
    for (int q = 0; q < 20; ++q) {
        if (detector.observe(1, 1.0 + (rng.uniform() - 0.5) * 0.05,
                             noisy_fractions(rng, 0.45, 0.15))) {
            detected_after = q;
            break;
        }
    }
    ASSERT_GE(detected_after, 0) << "step change never detected";
    // The shift is many sigmas, so the CUSUM must fire within a few quanta
    // of crossing the boundary (h/drift margin, not a fixed-window scan).
    EXPECT_LE(detected_after, 8);
    EXPECT_EQ(detector.alarms(), 1u);
}

TEST(PhaseDetector, AlarmRestartsBaselineForTheNewPhase) {
    online::PhaseDetector detector;
    common::Rng rng(3, 0xfade);
    for (int q = 0; q < 30; ++q)
        ASSERT_FALSE(detector.observe(1, 2.0, noisy_fractions(rng, 0.15, 0.25)));
    int alarms = 0;
    for (int q = 0; q < 40; ++q)
        if (detector.observe(1, 0.8, noisy_fractions(rng, 0.5, 0.2))) ++alarms;
    // Exactly one alarm: after it the baseline re-warms onto the new phase
    // and the (stationary) new behaviour raises no further alarms.
    EXPECT_EQ(alarms, 1);
}

TEST(PhaseDetector, ResetAndForgetClearState) {
    online::PhaseDetector detector;
    common::Rng rng(4, 0xfade);
    for (int q = 0; q < 10; ++q)
        detector.observe(1, 2.0, noisy_fractions(rng, 0.2, 0.3));
    EXPECT_TRUE(detector.warmed_up(1));
    detector.reset(1);
    EXPECT_FALSE(detector.warmed_up(1));
    detector.forget(1);
    EXPECT_FALSE(detector.warmed_up(1));
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTiny = std::numeric_limits<double>::min();

TEST(PhaseDetector, OptionsRejectBadValuesByFieldName) {
    using Options = online::PhaseDetector::Options;
    struct Row {
        const char* field;
        void (*set)(Options&);
    };
    const Row bad[] = {
        {"warmup_quanta", [](Options& o) { o.warmup_quanta = 1; }},
        {"warmup_quanta", [](Options& o) { o.warmup_quanta = 0; }},
        {"warmup_quanta", [](Options& o) { o.warmup_quanta = -3; }},
        {"drift", [](Options& o) { o.drift = -1.0; }},
        {"drift", [](Options& o) { o.drift = kNaN; }},
        {"drift", [](Options& o) { o.drift = kInf; }},
        {"threshold", [](Options& o) { o.threshold = 0.0; }},
        {"threshold", [](Options& o) { o.threshold = -1.0; }},
        {"threshold", [](Options& o) { o.threshold = kNaN; }},
        {"threshold", [](Options& o) { o.threshold = kInf; }},
        {"min_sigma[0]", [](Options& o) { o.min_sigma[0] = 0.0; }},
        {"min_sigma[1]", [](Options& o) { o.min_sigma[1] = -0.02; }},
        {"min_sigma[2]", [](Options& o) { o.min_sigma[2] = kNaN; }},
        {"min_sigma[3]", [](Options& o) { o.min_sigma[3] = kInf; }},
    };
    for (const Row& row : bad) {
        Options opts;
        row.set(opts);
        const std::string field = std::string("PhaseDetector::Options::") + row.field;
        try {
            online::PhaseDetector detector(opts);
            ADD_FAILURE() << field << ": bad value accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }

    // The smallest legal values run: on a constant signal any alarm could
    // only come from a degenerate sigma or z, not from noise.
    const Row good[] = {
        {"warmup_quanta", [](Options& o) { o.warmup_quanta = 2; }},
        {"drift", [](Options& o) { o.drift = 0.0; }},
        {"threshold", [](Options& o) { o.threshold = kTiny; }},
        {"min_sigma", [](Options& o) { o.min_sigma.fill(kTiny); }},
    };
    for (const Row& row : good) {
        Options opts;
        row.set(opts);
        online::PhaseDetector detector(opts);
        for (int q = 0; q < 50; ++q)
            EXPECT_FALSE(detector.observe(1, 1.5, {0.5, 0.2, 0.3})) << row.field << " q " << q;
        EXPECT_TRUE(detector.warmed_up(1)) << row.field;
        EXPECT_EQ(detector.alarms(), 0u) << row.field;
    }
}

TEST(PhaseDetector, EnvWarmupBelowTwoThrowsNamingTheKnob) {
    const char* const knob = "SYNPA_ONLINE_WARMUP";
    const char* const inherited = std::getenv(knob);
    const std::string saved = inherited != nullptr ? inherited : "";
    ::setenv(knob, "1", 1);
    try {
        (void)online::PhaseDetector::Options::from_env();
        ADD_FAILURE() << "SYNPA_ONLINE_WARMUP=1 accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
    }
    ::setenv(knob, "2", 1);
    EXPECT_EQ(online::PhaseDetector::Options::from_env().warmup_quanta, 2);
    if (inherited != nullptr)
        ::setenv(knob, saved.c_str(), 1);
    else
        ::unsetenv(knob);
}

// ---------- incremental trainer ----------

/// Real aligned samples from the offline pipeline (two apps, one pair run).
std::vector<model::TrainingSample> pipeline_samples() {
    uarch::SimConfig cfg;
    cfg.cycles_per_quantum = 4'000;
    model::TrainerOptions opts;
    opts.isolated_quanta = 60;
    opts.pair_quanta = 40;
    const model::Trainer trainer(cfg, opts);
    const apps::AppProfile& a = apps::find_app("mcf");
    const apps::AppProfile& b = apps::find_app("leela_r");
    const model::IsolatedProfile prof_a =
        model::profile_isolated(a, cfg, opts.isolated_quanta, 101);
    const model::IsolatedProfile prof_b =
        model::profile_isolated(b, cfg, opts.isolated_quanta, 202);
    auto samples = trainer.collect_pair_samples(a, b, prof_a, prof_b, 101, 202);
    auto more = trainer.collect_pair_samples(b, b, prof_b, prof_b, 202, 202);
    samples.insert(samples.end(), more.begin(), more.end());
    return samples;
}

TEST(IncrementalTrainer, IncrementalEqualsOfflineRetrainBitExactly) {
    const std::vector<model::TrainingSample> samples = pipeline_samples();
    ASSERT_GE(samples.size(), 16u);

    const model::InterferenceModel prior = model::InterferenceModel::paper_table4();
    for (const double prior_strength : {0.0, 4.0}) {
        const online::IncrementalTrainer::Options opts{.prior_strength = prior_strength};
        online::IncrementalTrainer incremental(prior, opts);
        for (const model::TrainingSample& s : samples) incremental.add_sample(s);
        const model::InterferenceModel seq = incremental.fit();
        const model::InterferenceModel batch =
            online::IncrementalTrainer::fit_offline(samples, prior, opts);
        for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
            const auto& ks = seq.coefficients(static_cast<model::Category>(c));
            const auto& kb = batch.coefficients(static_cast<model::Category>(c));
            // Bit-exact: the rank-one updates and the materialized design
            // matrix accumulate the same products in the same order.
            EXPECT_EQ(ks.alpha, kb.alpha);
            EXPECT_EQ(ks.beta, kb.beta);
            EXPECT_EQ(ks.gamma, kb.gamma);
            EXPECT_EQ(ks.rho, kb.rho);
        }
    }
}

TEST(IncrementalTrainer, AgreesWithOfflineQrFit) {
    const std::vector<model::TrainingSample> samples = pipeline_samples();

    // The offline Trainer fit (Householder QR) on the full sample set.
    model::TrainerOptions fit_opts;
    fit_opts.sample_fraction = 1.0;  // no subsampling: identical data
    const model::TrainingResult qr = model::Trainer::fit(samples, fit_opts);

    online::IncrementalTrainer incremental;  // zero prior, pure least squares
    for (const model::TrainingSample& s : samples) incremental.add_sample(s);
    const model::InterferenceModel normal = incremental.fit();

    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        const auto& kq = qr.model.coefficients(static_cast<model::Category>(c));
        const auto& kn = normal.coefficients(static_cast<model::Category>(c));
        // Normal equations vs QR: same minimizer, different arithmetic.
        EXPECT_NEAR(kq.alpha, kn.alpha, 1e-6);
        EXPECT_NEAR(kq.beta, kn.beta, 1e-6);
        EXPECT_NEAR(kq.gamma, kn.gamma, 1e-6);
        EXPECT_NEAR(kq.rho, kn.rho, 1e-6);
    }
}

TEST(IncrementalTrainer, PriorAnchorDominatesWithoutSamples) {
    const model::InterferenceModel prior = model::InterferenceModel::paper_table4();
    online::IncrementalTrainer trainer(prior, {.prior_strength = 2.0});
    const model::InterferenceModel fit = trainer.fit();
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        const auto& kp = prior.coefficients(static_cast<model::Category>(c));
        const auto& kf = fit.coefficients(static_cast<model::Category>(c));
        // With zero samples the anchored normal equations return the prior.
        EXPECT_NEAR(kp.alpha, kf.alpha, 1e-12);
        EXPECT_NEAR(kp.beta, kf.beta, 1e-12);
        EXPECT_NEAR(kp.gamma, kf.gamma, 1e-12);
        EXPECT_NEAR(kp.rho, kf.rho, 1e-12);
    }
    EXPECT_THROW(online::IncrementalTrainer().fit(), std::runtime_error);
}

TEST(IncrementalTrainer, DecayAgesOutOldEvidence) {
    const std::vector<model::TrainingSample> samples = pipeline_samples();
    const std::size_t half = samples.size() / 2;

    online::IncrementalTrainer decayed;
    for (std::size_t i = 0; i < half; ++i) decayed.add_sample(samples[i]);
    decayed.decay(1e-9);  // old regime all but erased
    for (std::size_t i = half; i < samples.size(); ++i) decayed.add_sample(samples[i]);

    online::IncrementalTrainer fresh;
    for (std::size_t i = half; i < samples.size(); ++i) fresh.add_sample(samples[i]);

    const model::InterferenceModel a = decayed.fit();
    const model::InterferenceModel b = fresh.fit();
    for (std::size_t c = 0; c < model::kCategoryCount; ++c) {
        const auto& ka = a.coefficients(static_cast<model::Category>(c));
        const auto& kb = b.coefficients(static_cast<model::Category>(c));
        // Relative tolerance: the regression is near-collinear, so the
        // decayed residue of the old regime perturbs large coefficients
        // proportionally.
        const auto near = [](double x, double y) {
            EXPECT_NEAR(x, y, 1e-4 * (1.0 + std::abs(x)));
        };
        near(ka.alpha, kb.alpha);
        near(ka.beta, kb.beta);
        near(ka.gamma, kb.gamma);
        near(ka.rho, kb.rho);
    }
    EXPECT_LT(decayed.effective_weight(),
              static_cast<double>(decayed.sample_count()));
}

TEST(IncrementalTrainer, OptionsRejectBadValuesByFieldName) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const model::InterferenceModel prior = model::InterferenceModel::paper_table4();
    const std::vector<model::TrainingSample> none;
    for (const double bad : {-1.0, kNaN, kInf}) {
        const online::IncrementalTrainer::Options opts{.prior_strength = bad};
        for (const bool offline : {false, true}) {
            try {
                if (offline)
                    (void)online::IncrementalTrainer::fit_offline(none, prior, opts);
                else
                    online::IncrementalTrainer trainer(prior, opts);
                ADD_FAILURE() << "prior_strength " << bad << " accepted";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(
                              "IncrementalTrainer::Options::prior_strength"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
    // The boundary: 0 is a pure least-squares fit, singular without samples.
    online::IncrementalTrainer trainer(prior, {.prior_strength = 0.0});
    EXPECT_THROW(trainer.fit(), std::runtime_error);
}

// ---------- adaptive policy, end to end ----------

/// A short open run under the adaptive policy with `online`.
scenario::ScenarioResult run_adaptive(const online::OnlineOptions& online) {
    uarch::SimConfig cfg;
    cfg.cores = 2;
    cfg.cycles_per_quantum = 2'000;
    scenario::ScenarioSpec spec;
    spec.name = "adaptive-options";
    spec.process = scenario::ArrivalProcess::kPoisson;
    spec.app_mix = {"leela_r", "gobmk", "mcf"};
    spec.initial_tasks = 4;
    spec.arrival_rate = 0.5;
    spec.service_quanta = 6;
    spec.horizon_quanta = 16;
    spec.seed = 3;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);
    uarch::Platform platform(cfg);
    online::AdaptiveSynpaPolicy policy(model::InterferenceModel::paper_table4(), {}, online);
    scenario::ScenarioRunner runner(platform, policy, trace, {.max_quanta = 1'000});
    return runner.run();
}

TEST(AdaptiveSynpaPolicy, OptionsRejectBadValuesByFieldName) {
    // One row per numeric field: every bad value throws from the policy's
    // constructor naming the field, and the boundary-good value runs.
    using online::OnlineOptions;
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Row {
        const char* field;
        std::vector<void (*)(OnlineOptions&)> bad;
        void (*good)(OnlineOptions&);
    };
    const std::vector<Row> rows = {
        {"OnlineOptions::prior_strength",
         {[](OnlineOptions& o) { o.prior_strength = -1.0; },
          [](OnlineOptions& o) { o.prior_strength = kNaN; },
          [](OnlineOptions& o) { o.prior_strength = kInf; }},
         [](OnlineOptions& o) { o.prior_strength = 0.0; }},
        {"OnlineOptions::refit_period",
         {[](OnlineOptions& o) { o.refit_period = 0; },
          [](OnlineOptions& o) { o.refit_period = static_cast<std::uint64_t>(-1); }},
         [](OnlineOptions& o) { o.refit_period = 1; }},
        {"OnlineOptions::min_samples",
         {[](OnlineOptions& o) { o.min_samples = 0; },
          [](OnlineOptions& o) { o.min_samples = static_cast<std::size_t>(-2); }},
         [](OnlineOptions& o) { o.min_samples = 1; }},
        {"OnlineOptions::reference_max_age",
         {[](OnlineOptions& o) { o.reference_max_age = 0; }},
         [](OnlineOptions& o) { o.reference_max_age = 1; }},
        {"OnlineOptions::forgetting",
         {[](OnlineOptions& o) { o.forgetting = -0.1; },
          [](OnlineOptions& o) { o.forgetting = 1.5; },
          [](OnlineOptions& o) { o.forgetting = kNaN; }},
         [](OnlineOptions& o) { o.forgetting = 0.0; }},
        {"OnlineOptions::validation_window",
         {[](OnlineOptions& o) { o.validation_window = 0; }},
         [](OnlineOptions& o) {
             o.validation_window = 1;
             o.min_validation = 1;
         }},
        {"OnlineOptions::min_validation",
         {[](OnlineOptions& o) { o.min_validation = 0; },
          [](OnlineOptions& o) { o.min_validation = o.validation_window + 1; }},
         [](OnlineOptions& o) { o.min_validation = o.validation_window; }},
        {"OnlineOptions::adopt_factor",
         {[](OnlineOptions& o) { o.adopt_factor = -0.5; },
          [](OnlineOptions& o) { o.adopt_factor = kNaN; }},
         [](OnlineOptions& o) { o.adopt_factor = 0.0; }},
        {"OnlineOptions::adopt_factor",  // infinite: the gate is off
         {},
         [](OnlineOptions& o) { o.adopt_factor = kInf; }},
        {"OnlineOptions::max_sample_slowdown",
         {[](OnlineOptions& o) { o.max_sample_slowdown = 0.49; },
          [](OnlineOptions& o) { o.max_sample_slowdown = kNaN; }},
         [](OnlineOptions& o) { o.max_sample_slowdown = 0.5; }},
        {"OnlineOptions::max_sample_slowdown",  // infinite: no upper filter
         {},
         [](OnlineOptions& o) { o.max_sample_slowdown = kInf; }},
        {"PhaseDetector::Options::warmup_quanta",  // the nested detector's
         {[](OnlineOptions& o) { o.detector.warmup_quanta = 1; }},
         [](OnlineOptions& o) { o.detector.warmup_quanta = 2; }},
    };
    for (const Row& row : rows) {
        for (const auto set_bad : row.bad) {
            OnlineOptions opts;
            set_bad(opts);
            try {
                online::AdaptiveSynpaPolicy policy(model::InterferenceModel::paper_table4(), {},
                                                   opts);
                ADD_FAILURE() << row.field << ": bad value accepted";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(row.field), std::string::npos) << e.what();
            }
        }
        OnlineOptions good;
        row.good(good);
        EXPECT_TRUE(run_adaptive(good).completed) << row.field;
    }
}

TEST(AdaptiveSynpaPolicy, EnvCountsBelowOneThrowNamingTheKnob) {
    for (const char* knob :
         {"SYNPA_ONLINE_REFIT_QUANTA", "SYNPA_ONLINE_MIN_SAMPLES", "SYNPA_ONLINE_REF_MAX_AGE"}) {
        const char* const inherited = std::getenv(knob);
        const std::string saved = inherited != nullptr ? inherited : "";
        for (const char* bad : {"0", "-1"}) {
            ::setenv(knob, bad, 1);
            try {
                (void)online::OnlineOptions::from_env();
                ADD_FAILURE() << knob << "=" << bad << " accepted";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
            }
        }
        ::setenv(knob, "1", 1);
        EXPECT_NO_THROW((void)online::OnlineOptions::from_env()) << knob;
        if (inherited != nullptr)
            ::setenv(knob, saved.c_str(), 1);
        else
            ::unsetenv(knob);
    }
}

TEST(AdaptiveSynpaPolicy, ReportsAdaptationThroughScenarioResult) {
    uarch::SimConfig cfg;
    cfg.cores = 4;
    cfg.cycles_per_quantum = 4'000;

    scenario::ScenarioSpec spec;
    spec.name = "adaptive-smoke";
    spec.process = scenario::ArrivalProcess::kPoisson;
    // Multi-phase apps so the CUSUM has real phase boundaries to find.
    spec.app_mix = {"leela_r", "gobmk", "xalancbmk_r", "mcf"};
    spec.initial_tasks = 6;
    spec.arrival_rate = 0.5;
    spec.service_quanta = 12;
    spec.horizon_quanta = 60;
    spec.seed = 9;
    const scenario::ScenarioTrace trace = scenario::build_trace(spec, cfg);

    uarch::Platform platform(cfg);
    online::AdaptiveSynpaPolicy policy(model::InterferenceModel::paper_table4());
    EXPECT_EQ(policy.name(), "synpa-adaptive");
    scenario::ScenarioRunner runner(platform, policy, trace, {.max_quanta = 3'000});
    const scenario::ScenarioResult result = runner.run();

    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.adaptive);
    EXPECT_EQ(result.phase_changes, policy.phase_changes());
    EXPECT_EQ(result.model_refits, policy.model_refits());
    // The frozen twin of the same run reports no adaptation.
    uarch::Platform frozen_platform(cfg);
    core::SynpaPolicy frozen(model::InterferenceModel::paper_table4());
    scenario::ScenarioRunner frozen_runner(frozen_platform, frozen, trace,
                                           {.max_quanta = 3'000});
    EXPECT_FALSE(frozen_runner.run().adaptive);
}

}  // namespace
