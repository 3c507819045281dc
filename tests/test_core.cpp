// Tests for the SYNPA core: the runtime estimator (inversion + EMA +
// transfer across relaunches) and the policy's pair selection.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "core/estimator.hpp"
#include "core/synpa_policy.hpp"
#include "model/interference_model.hpp"
#include "sched/policy.hpp"

namespace {

using namespace synpa;
using namespace synpa::core;

model::CategoryBreakdown breakdown_from_fractions(const model::CategoryVector& f,
                                                  std::uint64_t cycles = 10'000) {
    model::CategoryBreakdown b;
    b.cycles = cycles;
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        b.categories[c] = f[c] * static_cast<double>(cycles);
    return b;
}

sched::TaskObservation make_obs(int task, int core, int partner,
                                const model::CategoryVector& fractions) {
    sched::TaskObservation o;
    o.task_id = task;
    o.core = core;
    if (partner >= 0) o.corunner_task_ids.push_back(partner);
    o.smt_ways = 2;
    o.total_cores = 2;  // the tests' observations describe a 2-core chip
    o.breakdown = breakdown_from_fractions(fractions);
    return o;
}

TEST(Estimator, UnknownTaskHasUniformPrior) {
    const SynpaEstimator est(model::InterferenceModel::paper_table4());
    const auto e = est.estimate(42);
    EXPECT_NEAR(e[0], 1.0 / 3.0, 1e-12);
    EXPECT_FALSE(est.has_estimate(42));
}

TEST(Estimator, SoloObservationIsTakenDirectly) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    const model::CategoryVector f = {0.5, 0.2, 0.3};
    const std::vector<sched::TaskObservation> obs = {make_obs(1, 0, -1, f)};
    est.observe(obs);
    ASSERT_TRUE(est.has_estimate(1));
    const auto e = est.estimate(1);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(e[c], f[c], 1e-9);
}

TEST(Estimator, PairObservationInvertsForBothTasks) {
    const model::InterferenceModel m = model::InterferenceModel::paper_table4();
    SynpaEstimator::Options opts;
    opts.ema_alpha = 1.0;  // no smoothing: compare against exact inversion
    SynpaEstimator est(m, opts);

    // Forward-model known isolated vectors, feed the fractions as a pair.
    const model::CategoryVector st_a = {0.5, 0.3, 0.2};
    const model::CategoryVector st_b = {0.2, 0.1, 0.7};
    const auto smt_a = m.predict(st_a, st_b);
    const auto smt_b = m.predict(st_b, st_a);
    const double sa = smt_a[0] + smt_a[1] + smt_a[2];
    const double sb = smt_b[0] + smt_b[1] + smt_b[2];
    const std::vector<sched::TaskObservation> obs = {
        make_obs(1, 0, 2, {smt_a[0] / sa, smt_a[1] / sa, smt_a[2] / sa}),
        make_obs(2, 0, 1, {smt_b[0] / sb, smt_b[1] / sb, smt_b[2] / sb})};
    est.observe(obs);
    const auto ea = est.estimate(1);
    const auto eb = est.estimate(2);
    // The paper model is strongly co-runner-dominated (backend gamma > beta),
    // so the inverse is not unique; require a *consistent* solution — the
    // forward model applied to the estimates must reproduce the observed
    // SMT fractions.
    const auto back_a = m.predict(ea, eb);
    const auto back_b = m.predict(eb, ea);
    const double ba = back_a[0] + back_a[1] + back_a[2];
    const double bb = back_b[0] + back_b[1] + back_b[2];
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(back_a[c] / ba, smt_a[c] / sa, 0.05);
        EXPECT_NEAR(back_b[c] / bb, smt_b[c] / sb, 0.05);
    }
}

TEST(Estimator, EmaBlendsTowardNewObservations) {
    SynpaEstimator::Options opts;
    opts.ema_alpha = 0.5;
    SynpaEstimator est(model::InterferenceModel::paper_table4(), opts);
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, {1.0, 0.0, 0.0})});
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, {0.0, 1.0, 0.0})});
    const auto e = est.estimate(1);
    EXPECT_NEAR(e[0], 0.5, 1e-9);
    EXPECT_NEAR(e[1], 0.5, 1e-9);
}

TEST(Estimator, TransferMovesEstimateAcrossRelaunch) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, {0.6, 0.2, 0.2})});
    est.transfer(1, 9);
    EXPECT_FALSE(est.has_estimate(1));
    ASSERT_TRUE(est.has_estimate(9));
    EXPECT_NEAR(est.estimate(9)[0], 0.6, 1e-9);
    est.transfer(123, 456);  // unknown source: harmless no-op
    EXPECT_FALSE(est.has_estimate(456));
}

TEST(Estimator, PairWeightSymmetricSum) {
    SynpaEstimator est(model::InterferenceModel::paper_table4());
    est.observe(std::vector<sched::TaskObservation>{make_obs(1, 0, -1, {0.6, 0.2, 0.2}),
                                                    make_obs(2, 1, -1, {0.1, 0.1, 0.8})});
    const std::vector<int> uv = {1, 2};
    const std::vector<int> vu = {2, 1};
    EXPECT_DOUBLE_EQ(est.group_weight(uv), est.group_weight(vu));
    EXPECT_GT(est.group_weight(uv), 2.0);  // two slowdowns, each >= ~1
}

TEST(Estimator, GroupWiderThanAnSmtCoreThrows) {
    // Step-2 groups never hold more tasks than an SMT core has ways, so the
    // estimator gathers members on the stack and refuses a wider group.
    const SynpaEstimator est(model::InterferenceModel::paper_table4());
    std::vector<int> ids(uarch::kMaxSmtWays);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    std::vector<double> out(ids.size());
    EXPECT_NO_THROW(est.group_weight(ids));
    EXPECT_NO_THROW(est.member_slowdowns(ids, out));
    ids.push_back(uarch::kMaxSmtWays);
    out.push_back(0.0);
    EXPECT_THROW(est.group_weight(ids), std::length_error);
    EXPECT_THROW(est.member_slowdowns(ids, out), std::length_error);
}

TEST(Estimator, SetModelInvertsAgainstTheNewModelAndCountsInversions) {
    // The estimator's one inverter follows set_model: an estimator switched
    // to a model matches, bit for bit and in its inversion counts, one
    // built on that model.
    model::InterferenceModel perturbed = model::InterferenceModel::paper_table4();
    for (std::size_t c = 0; c < model::kCategoryCount; ++c)
        perturbed.coefficients(static_cast<model::Category>(c)).gamma += 0.1;
    SynpaEstimator switched(model::InterferenceModel::paper_table4());
    switched.set_model(perturbed);
    SynpaEstimator built(perturbed);
    // Tasks 1 and 2 show the fractions the model predicts for them (their
    // inversion converges), tasks 3 and 4 arbitrary ones (it falls back).
    const auto fractions = [](const model::CategoryVector& v) {
        const double sum = v[0] + v[1] + v[2];
        return model::CategoryVector{v[0] / sum, v[1] / sum, v[2] / sum};
    };
    const model::CategoryVector st_a = {0.5, 0.3, 0.2}, st_b = {0.2, 0.1, 0.7};
    const std::vector<sched::TaskObservation> quantum = {
        make_obs(1, 0, 2, fractions(perturbed.predict(st_a, st_b))),
        make_obs(2, 0, 1, fractions(perturbed.predict(st_b, st_a))),
        make_obs(3, 1, 4, {0.9, 0.05, 0.05}), make_obs(4, 1, 3, {0.05, 0.05, 0.9})};
    for (int q = 0; q < 3; ++q) {
        switched.observe(quantum);
        built.observe(quantum);
    }
    for (const int id : {1, 2, 3, 4})
        for (std::size_t c = 0; c < model::kCategoryCount; ++c)
            EXPECT_EQ(switched.estimate(id)[c], built.estimate(id)[c]) << id;

    const SynpaEstimator::InversionStats& a = switched.inversion_stats();
    const SynpaEstimator::InversionStats& b = built.inversion_stats();
    EXPECT_EQ(a.inversions, 6u);  // one per pair per quantum
    EXPECT_EQ(a.fallbacks, 3u);   // pair (3, 4) in each quantum
    EXPECT_GT(a.iterations, 0u);
    EXPECT_EQ(a.inversions, b.inversions);
    EXPECT_EQ(a.fallbacks, b.fallbacks);
    EXPECT_EQ(a.iterations, b.iterations);
}

TEST(SynpaPolicyTest, NamesReflectSelector) {
    const model::InterferenceModel m = model::InterferenceModel::paper_table4();
    EXPECT_EQ(SynpaPolicy(m).name(), "synpa");
    SynpaPolicy::Options gr;
    gr.selector = PairSelector::kGreedy;
    EXPECT_EQ(SynpaPolicy(m, gr).name(), "synpa-greedy");
}

TEST(SynpaPolicyTest, SelectorsAgreeOnClearCutMatrix) {
    const model::InterferenceModel m = model::InterferenceModel::paper_table4();
    matching::WeightMatrix w(4);
    w.set(0, 1, 1.0);
    w.set(2, 3, 1.0);
    w.set(0, 2, 9.0);
    w.set(0, 3, 9.0);
    w.set(1, 2, 9.0);
    w.set(1, 3, 9.0);
    for (PairSelector sel : {PairSelector::kBlossom, PairSelector::kGreedy}) {
        SynpaPolicy::Options opts;
        opts.selector = sel;
        const SynpaPolicy policy(m, opts);
        const auto pairs = policy.matcher().min_weight_perfect(w).pairs;
        ASSERT_EQ(pairs.size(), 2u);
        EXPECT_NEAR(matching::matching_weight(w, pairs), 2.0, 1e-9);
    }
}

TEST(SynpaPolicyTest, ReallocationIsAValidPermutation) {
    const model::InterferenceModel m = model::InterferenceModel::paper_table4();
    SynpaPolicy policy(m);
    // Mixed workload observations: two frontend-ish, two backend-ish tasks.
    std::vector<sched::TaskObservation> obs = {
        make_obs(1, 0, 2, {0.3, 0.5, 0.2}), make_obs(2, 0, 1, {0.15, 0.05, 0.8}),
        make_obs(3, 1, 4, {0.3, 0.5, 0.2}), make_obs(4, 1, 3, {0.15, 0.05, 0.8})};
    const sched::CoreAllocation a = policy.reallocate(obs);
    ASSERT_EQ(a.size(), 2u);
    std::set<int> seen;
    for (const sched::CoreGroup& g : a) {
        EXPECT_EQ(g.occupancy(), 2);
        for (int id : g.members()) seen.insert(id);
    }
    EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4}));
}

TEST(SynpaPolicyTest, OnTaskReplacedKeepsEstimatorContinuity) {
    const model::InterferenceModel m = model::InterferenceModel::paper_table4();
    SynpaPolicy policy(m);
    policy.on_task_replaced(1, 2);  // must not throw even for unseen ids
    SUCCEED();
}

}  // namespace
