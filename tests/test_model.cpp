// Tests for the model module: the three-step characterization arithmetic,
// Equation 1 mechanics, model inversion (round-trip property), the trainer
// pipeline and the extended (ablation) characterization.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "uarch/platform.hpp"
#include "model/categories.hpp"
#include "model/extended_model.hpp"
#include "model/interference_model.hpp"
#include "model/inversion.hpp"
#include "model/trainer.hpp"
#include "signatures.hpp"
#include "workloads/groups.hpp"

namespace {

using namespace synpa;
using namespace synpa::model;

pmu::CounterBank make_bank(std::uint64_t cycles, std::uint64_t insts, std::uint64_t fe,
                           std::uint64_t be) {
    pmu::CounterBank b;
    b.increment(pmu::Event::kCpuCycles, cycles);
    b.increment(pmu::Event::kInstSpec, insts);
    b.increment(pmu::Event::kStallFrontend, fe);
    b.increment(pmu::Event::kStallBackend, be);
    return b;
}

TEST(Characterize, StepArithmetic) {
    // 1000 cycles, 800 insts, 200 FE stalls, 300 BE stalls, width 4:
    //   Dc = 500, F-Dc = 200, Reveals = 300 -> BE total = 600.
    const auto b = characterize(make_bank(1000, 800, 200, 300), 4);
    EXPECT_DOUBLE_EQ(b.dispatch_cycles, 500.0);
    EXPECT_DOUBLE_EQ(b.full_dispatch_cycles, 200.0);
    EXPECT_DOUBLE_EQ(b.revealed_stalls, 300.0);
    EXPECT_DOUBLE_EQ(b.categories[0], 200.0);
    EXPECT_DOUBLE_EQ(b.categories[1], 200.0);
    EXPECT_DOUBLE_EQ(b.categories[2], 600.0);
}

TEST(Characterize, FractionsSumToOne) {
    const auto b = characterize(make_bank(1000, 800, 200, 300), 4);
    const auto f = b.fractions();
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-12);
}

TEST(Characterize, FullDispatchClampedToDispatchCycles) {
    // More instructions than dispatch cycles could carry: F-Dc clamps.
    const auto b = characterize(make_bank(100, 4000, 0, 0), 4);
    EXPECT_DOUBLE_EQ(b.full_dispatch_cycles, 100.0);
    EXPECT_DOUBLE_EQ(b.revealed_stalls, 0.0);
}

TEST(Characterize, StallsClampedToCycles) {
    // Overlapping counters must never produce negative dispatch cycles.
    const auto b = characterize(make_bank(100, 10, 80, 80), 4);
    EXPECT_GE(b.dispatch_cycles, 0.0);
    const auto f = b.fractions();
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-12);
}

TEST(Characterize, EmptyWindow) {
    const auto b = characterize(pmu::CounterBank{}, 4);
    EXPECT_EQ(b.cycles, 0u);
    EXPECT_DOUBLE_EQ(b.ipc(), 0.0);
}

TEST(Characterize, IpcComputed) {
    const auto b = characterize(make_bank(1000, 2500, 0, 0), 4);
    EXPECT_DOUBLE_EQ(b.ipc(), 2.5);
}

TEST(Model, PaperTableFourValues) {
    const InterferenceModel m = InterferenceModel::paper_table4();
    const auto& fd = m.coefficients(Category::kFullDispatch);
    EXPECT_DOUBLE_EQ(fd.alpha, 0.0072);
    EXPECT_DOUBLE_EQ(fd.beta, 0.9060);
    EXPECT_DOUBLE_EQ(fd.rho, 0.0314);
    const auto& be = m.coefficients(Category::kBackendStall);
    EXPECT_DOUBLE_EQ(be.gamma, 1.4391);
}

TEST(Model, PredictMatchesHandComputation) {
    CategoryCoefficients k{.alpha = 0.1, .beta = 1.2, .gamma = 0.3, .rho = 0.5};
    EXPECT_DOUBLE_EQ(k.predict(0.4, 0.6), 0.1 + 1.2 * 0.4 + 0.3 * 0.6 + 0.5 * 0.24);
}

TEST(Model, SlowdownIsCategorySum) {
    const InterferenceModel m = InterferenceModel::paper_table4();
    const CategoryVector a = {0.5, 0.2, 0.3};
    const CategoryVector b = {0.3, 0.3, 0.4};
    const auto pred = m.predict(a, b);
    EXPECT_NEAR(m.predict_slowdown(a, b), pred[0] + pred[1] + pred[2], 1e-12);
    // SMT execution costs at least as much as isolated in any sane model.
    EXPECT_GT(m.predict_slowdown(a, b), 1.0);
}

TEST(Model, ToStringMentionsEveryCategory) {
    const std::string s = InterferenceModel::paper_table4().to_string();
    for (const char* name : kCategoryNames) EXPECT_NE(s.find(name), std::string::npos);
}

// Round-trip property: forward-model a pair of isolated vectors, normalize
// to fractions, invert, and require the original vectors back.
class InversionRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(InversionRoundTrip, RecoversIsolatedFractions) {
    common::Rng rng(static_cast<std::uint64_t>(GetParam()), 0x1aa);
    // Random plausible model: beta-dominant, mild co-runner terms.
    std::array<CategoryCoefficients, kCategoryCount> coeffs{};
    for (auto& k : coeffs) {
        k.alpha = rng.uniform(0.0, 0.2);
        k.beta = rng.uniform(0.9, 1.4);
        k.gamma = rng.uniform(0.0, 0.4);
        k.rho = rng.uniform(0.0, 0.5);
    }
    const InterferenceModel m{coeffs};

    auto random_simplex = [&rng] {
        CategoryVector v{rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0),
                         rng.uniform(0.05, 1.0)};
        const double s = v[0] + v[1] + v[2];
        for (double& x : v) x /= s;
        return v;
    };
    const CategoryVector st_i = random_simplex();
    const CategoryVector st_j = random_simplex();

    const CategoryVector smt_i = m.predict(st_i, st_j);
    const CategoryVector smt_j = m.predict(st_j, st_i);
    const double si = smt_i[0] + smt_i[1] + smt_i[2];
    const double sj = smt_j[0] + smt_j[1] + smt_j[2];
    const CategoryVector fi = {smt_i[0] / si, smt_i[1] / si, smt_i[2] / si};
    const CategoryVector fj = {smt_j[0] / sj, smt_j[1] / sj, smt_j[2] / sj};

    const ModelInverter inverter(m);
    const InversionResult r = inverter.invert(fi, fj);
    ASSERT_TRUE(r.converged);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        EXPECT_NEAR(r.st_i[c], st_i[c], 0.02) << "category " << c;
        EXPECT_NEAR(r.st_j[c], st_j[c], 0.02) << "category " << c;
    }
    EXPECT_NEAR(r.slowdown_i, si, 0.05);
    EXPECT_NEAR(r.slowdown_j, sj, 0.05);
}

INSTANTIATE_TEST_SUITE_P(RandomModels, InversionRoundTrip, ::testing::Range(0, 20));

TEST(Inversion, EstimatesStayOnSimplex) {
    const ModelInverter inverter(InterferenceModel::paper_table4());
    const InversionResult r = inverter.invert({0.1, 0.3, 0.6}, {0.2, 0.1, 0.7});
    const double si = r.st_i[0] + r.st_i[1] + r.st_i[2];
    const double sj = r.st_j[0] + r.st_j[1] + r.st_j[2];
    EXPECT_NEAR(si, 1.0, 1e-6);
    EXPECT_NEAR(sj, 1.0, 1e-6);
    for (double x : r.st_i) EXPECT_GE(x, 0.0);
    for (double x : r.st_j) EXPECT_GE(x, 0.0);
}

TEST(Inversion, DegenerateInputFallsBackGracefully) {
    const ModelInverter inverter(InterferenceModel::paper_table4());
    const InversionResult r = inverter.invert({0, 0, 0}, {0, 0, 0});
    const double si = r.st_i[0] + r.st_i[1] + r.st_i[2];
    EXPECT_NEAR(si, 1.0, 1e-6);  // projected, never NaN
    EXPECT_TRUE(std::isfinite(r.slowdown_i));
}

TEST(Inversion, OptionsRejectBadValuesByFieldName) {
    // The constructor validates; SynpaEstimator's own rows are in
    // Step3KnobValidation (tests/test_sched.cpp).
    using Options = ModelInverter::Options;
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kTiny = std::numeric_limits<double>::min();
    struct Row {
        const char* field;
        void (*set)(Options&);
    };
    const Row bad[] = {
        {"max_iterations", [](Options& o) { o.max_iterations = 0; }},
        {"max_iterations", [](Options& o) { o.max_iterations = -3; }},
        {"tolerance", [](Options& o) { o.tolerance = 0.0; }},
        {"tolerance", [](Options& o) { o.tolerance = -1e-7; }},
        {"tolerance", [](Options& o) { o.tolerance = kNaN; }},
        {"tolerance", [](Options& o) { o.tolerance = kInf; }},
        {"damping", [](Options& o) { o.damping = 0.0; }},
        {"damping", [](Options& o) { o.damping = -0.5; }},
        {"damping", [](Options& o) { o.damping = kNaN; }},
        {"damping", [](Options& o) { o.damping = 1.5; }},
    };
    for (const Row& row : bad) {
        Options opts;
        row.set(opts);
        const std::string field = std::string("ModelInverter::Options::") + row.field;
        try {
            const ModelInverter inverter(InterferenceModel::paper_table4(), opts);
            ADD_FAILURE() << field << ": bad value accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }

    // The boundary values run and give a finite estimate on the simplex.
    const Row good[] = {
        {"max_iterations", [](Options& o) { o.max_iterations = 1; }},
        {"tolerance", [](Options& o) { o.tolerance = kTiny; }},
        {"damping", [](Options& o) { o.damping = 1.0; }},
        {"damping", [](Options& o) { o.damping = kTiny; }},
    };
    for (const Row& row : good) {
        Options opts;
        row.set(opts);
        const ModelInverter inverter(InterferenceModel::paper_table4(), opts);
        const InversionResult r = inverter.invert({0.1, 0.3, 0.6}, {0.2, 0.1, 0.7});
        EXPECT_NEAR(r.st_i[0] + r.st_i[1] + r.st_i[2], 1.0, 1e-9) << row.field;
        EXPECT_TRUE(std::isfinite(r.slowdown_i) && std::isfinite(r.slowdown_j)) << row.field;
    }
}

TEST(Inversion, OutputsArePinned) {
    // Exact bits of invert() over fixed inputs: Table IV, a perturbed
    // Table IV and an all-zero model (its Jacobian is singular), each on
    // fractions the forward model produced (these converge) and on arbitrary
    // vectors (most of these do not).  Two digests: every row's estimate,
    // slowdowns and converged flag plus the converged rows' iteration
    // counts; and, apart, the fell-back rows' iteration counts, which record
    // only where the iteration gave up.
    InterferenceModel perturbed = InterferenceModel::paper_table4();
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        CategoryCoefficients& k = perturbed.coefficients(static_cast<Category>(c));
        k.gamma += 0.05 * static_cast<double>(c + 1);
        k.rho += 0.1;
    }
    const InterferenceModel zero{std::array<CategoryCoefficients, kCategoryCount>{
        CategoryCoefficients{0, 0, 0, 0}, CategoryCoefficients{0, 0, 0, 0},
        CategoryCoefficients{0, 0, 0, 0}}};
    const InterferenceModel models[] = {InterferenceModel::paper_table4(), perturbed, zero};

    std::string sig, fell_back_iterations;
    int converged = 0, fell_back = 0;
    for (std::size_t m = 0; m < std::size(models); ++m) {
        const ModelInverter inverter(models[m]);
        common::Rng rng(0x1417, m);
        for (int k = 0; k < 120; ++k) {
            CategoryVector fi{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                              rng.uniform(0.0, 1.0)};
            CategoryVector fj{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                              rng.uniform(0.0, 1.0)};
            if (k % 2 == 0) {
                // Forward-model the draws as isolated fractions.
                const double si = fi[0] + fi[1] + fi[2], sj = fj[0] + fj[1] + fj[2];
                for (std::size_t c = 0; c < kCategoryCount; ++c) {
                    fi[c] /= si;
                    fj[c] /= sj;
                }
                const CategoryVector pi = models[m].predict(fi, fj);
                const CategoryVector pj = models[m].predict(fj, fi);
                fi = pi;
                fj = pj;
            }
            const InversionResult r = inverter.invert(fi, fj);
            for (const double x : r.st_i) sig += std::to_string(testsig::bits(x)) + ",";
            for (const double x : r.st_j) sig += std::to_string(testsig::bits(x)) + ",";
            sig += std::to_string(testsig::bits(r.slowdown_i)) + "," +
                   std::to_string(testsig::bits(r.slowdown_j)) + "," +
                   std::to_string(r.converged) + ",";
            if (r.converged)
                sig += std::to_string(r.iterations);
            else
                fell_back_iterations += std::to_string(r.iterations) + ";";
            sig += ";";
            (r.converged ? converged : fell_back) += 1;
        }
    }
    EXPECT_GT(converged, 0);
    EXPECT_GT(fell_back, 0);
    EXPECT_EQ(testsig::digest(sig), 0x85b692e669f748fcull);
    EXPECT_EQ(testsig::digest(fell_back_iterations), 0xb28f39a898481de2ull)
        << fell_back_iterations;
}

/// The inversion as it ran before the stall exit: the same damped Newton
/// iteration, stopping only on convergence, a singular Jacobian or
/// max_iterations.  Kept verbatim as the oracle for
/// Inversion.StallExitKeepsEveryEstimate.
namespace reference_inversion {

void project_to_simplex(CategoryVector& v) {
    double sum = 0.0;
    for (double& x : v) {
        x = std::clamp(x, 0.0, 1.5);
        sum += x;
    }
    if (sum <= 1e-9) {
        v = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
        return;
    }
    for (double& x : v) x /= sum;
}

struct Terms {
    CategoryVector pi{}, pj{};
};

using Coefficients = std::array<CategoryCoefficients, kCategoryCount>;

void set_terms(Terms& t, const Coefficients& k, const std::array<double, 6>& x, std::size_t c) {
    t.pi[c] = k[c].predict(x[c], x[3 + c]);
    t.pj[c] = k[c].predict(x[3 + c], x[c]);
}

std::array<double, 6> residual(const Terms& t, const std::array<double, 6>& x,
                               const CategoryVector& fi, const CategoryVector& fj) {
    const double total_i = t.pi[0] + t.pi[1] + t.pi[2];
    const double total_j = t.pj[0] + t.pj[1] + t.pj[2];
    return {t.pi[0] - fi[0] * total_i, t.pi[1] - fi[1] * total_i, x[0] + x[1] + x[2] - 1.0,
            t.pj[0] - fj[0] * total_j, t.pj[1] - fj[1] * total_j, x[3] + x[4] + x[5] - 1.0};
}

InversionResult invert(const InterferenceModel& model, const ModelInverter::Options& opts,
                       const CategoryVector& smt_i, const CategoryVector& smt_j) {
    CategoryVector fi = smt_i;
    CategoryVector fj = smt_j;
    project_to_simplex(fi);
    project_to_simplex(fj);
    Coefficients k{};
    for (std::size_t c = 0; c < kCategoryCount; ++c)
        k[c] = model.coefficients(static_cast<Category>(c));

    std::array<double, 6> x = {fi[0], fi[1], fi[2], fj[0], fj[1], fj[2]};
    InversionResult r;
    bool solved = false;
    for (int it = 0; it < opts.max_iterations; ++it) {
        Terms base;
        for (std::size_t c = 0; c < kCategoryCount; ++c) set_terms(base, k, x, c);
        const std::array<double, 6> f = residual(base, x, fi, fj);
        r.iterations = it;
        double norm_f = 0.0;
        for (const double v : f) norm_f = std::max(norm_f, std::abs(v));
        if (norm_f < opts.tolerance) {
            solved = true;
            break;
        }
        std::array<double, 36> jac;
        const double h = 1e-7;
        for (std::size_t col = 0; col < 6; ++col) {
            std::array<double, 6> xh = x;
            xh[col] += h;
            Terms th = base;
            set_terms(th, k, xh, col % 3);
            const std::array<double, 6> fh = residual(th, xh, fi, fj);
            for (std::size_t row = 0; row < 6; ++row) jac[row * 6 + col] = (fh[row] - f[row]) / h;
        }
        std::array<double, 6> rhs;
        for (std::size_t i = 0; i < 6; ++i) rhs[i] = -f[i];
        std::array<double, 6> step;
        if (!linalg::solve_gaussian_fixed<6>(jac, rhs, step)) break;
        double norm = 0.0;
        for (const double v : step) norm = std::max(norm, std::abs(v));
        const double scale = norm > 0.5 ? 0.5 / norm : 1.0;
        for (std::size_t i = 0; i < 6; ++i)
            x[i] = std::clamp(x[i] + opts.damping * scale * step[i], 0.0, 1.5);
    }
    if (solved) {
        r.st_i = {x[0], x[1], x[2]};
        r.st_j = {x[3], x[4], x[5]};
        project_to_simplex(r.st_i);
        project_to_simplex(r.st_j);
        r.converged = true;
    } else {
        r.st_i = fi;
        r.st_j = fj;
    }
    r.slowdown_i = std::clamp(model.predict_slowdown(r.st_i, r.st_j), 1.0, 4.0);
    r.slowdown_j = std::clamp(model.predict_slowdown(r.st_j, r.st_i), 1.0, 4.0);
    return r;
}

}  // namespace reference_inversion

TEST(Inversion, StallExitKeepsEveryEstimate) {
    // The stall exit may only cut the work of an inversion that falls back
    // anyway: over Table IV and randomly perturbed models, on raw
    // fractions, forward-modelled fractions and forward-modelled fractions
    // with +-2% and +-10% multiplicative noise, and at the boundary options
    // (smallest normal tolerance, damping 1, one iteration), every result
    // matches the fixed-iteration reference bit for bit, in no more
    // iterations.
    using Options = ModelInverter::Options;
    Options tiny_tolerance, full_damping, one_iteration;
    tiny_tolerance.tolerance = std::numeric_limits<double>::min();
    full_damping.damping = 1.0;
    one_iteration.max_iterations = 1;
    const Options option_sets[] = {Options(), tiny_tolerance, full_damping, one_iteration};

    common::Rng rng(0x57a11, 0xe817);
    // A random isolated-fraction vector; one in four has a zero category,
    // the box corner where unconverged iterates settle.
    const auto isolated = [&rng] {
        CategoryVector v{rng.uniform(), rng.uniform(), rng.uniform()};
        if (rng.chance(0.25)) v[rng.below(kCategoryCount)] = 0.0;
        const double sum = v[0] + v[1] + v[2];
        for (double& x : v) x = sum > 0.0 ? x / sum : 1.0 / 3.0;
        return v;
    };

    constexpr int kModels = 250;
    constexpr int kCasesPerModel = 440;
    int cases = 0, fell_back = 0, cut_short = 0;
    for (int m = 0; m < kModels; ++m) {
        InterferenceModel model = InterferenceModel::paper_table4();
        if (m > 0) {
            for (std::size_t c = 0; c < kCategoryCount; ++c) {
                CategoryCoefficients& k = model.coefficients(static_cast<Category>(c));
                k.alpha *= rng.uniform(0.5, 1.5);
                k.beta *= rng.uniform(0.8, 1.2);
                k.gamma *= rng.uniform(0.5, 1.5);
                k.rho *= rng.uniform(0.5, 1.5);
            }
        }
        const Options& opts = option_sets[m % std::size(option_sets)];
        const ModelInverter inverter(model, opts);
        for (int n = 0; n < kCasesPerModel; ++n) {
            CategoryVector fi{}, fj{};
            const int kind = n % 4;  // raw, forward-modelled, +-2%, +-10% noise
            if (kind == 0) {
                for (double& x : fi) x = rng.uniform();
                for (double& x : fj) x = rng.uniform();
            } else {
                const CategoryVector st_i = isolated(), st_j = isolated();
                fi = model.predict(st_i, st_j);
                fj = model.predict(st_j, st_i);
                const double noise = kind == 1 ? 0.0 : kind == 2 ? 0.02 : 0.10;
                for (double& x : fi) x *= 1.0 + rng.uniform(-noise, noise);
                for (double& x : fj) x *= 1.0 + rng.uniform(-noise, noise);
            }
            const InversionResult want = reference_inversion::invert(model, opts, fi, fj);
            const InversionResult got = inverter.invert(fi, fj);
            const std::string where = "model " + std::to_string(m) + " case " + std::to_string(n);
            ASSERT_EQ(got.converged, want.converged) << where;
            for (std::size_t c = 0; c < kCategoryCount; ++c) {
                ASSERT_EQ(testsig::bits(got.st_i[c]), testsig::bits(want.st_i[c])) << where;
                ASSERT_EQ(testsig::bits(got.st_j[c]), testsig::bits(want.st_j[c])) << where;
            }
            ASSERT_EQ(testsig::bits(got.slowdown_i), testsig::bits(want.slowdown_i)) << where;
            ASSERT_EQ(testsig::bits(got.slowdown_j), testsig::bits(want.slowdown_j)) << where;
            ASSERT_LE(got.iterations, want.iterations) << where;
            ++cases;
            fell_back += want.converged ? 0 : 1;
            cut_short += got.iterations < want.iterations ? 1 : 0;
        }
    }
    EXPECT_GE(cases, 100'000);
    EXPECT_GE(fell_back * 5, cases) << fell_back << " of " << cases << " fell back";
    EXPECT_GT(cut_short, 0);
}

// ---------- trainer ----------

uarch::SimConfig train_config() {
    uarch::SimConfig cfg;
    cfg.cycles_per_quantum = 5'000;
    return cfg;
}

TEST(Trainer, IsolatedProfileInterpolation) {
    const IsolatedProfile prof =
        profile_isolated(apps::find_app("nab_r"), train_config(), 10, 3);
    EXPECT_EQ(prof.quanta().size(), 10u);
    EXPECT_GT(prof.total_instructions(), 0u);
    EXPECT_GT(prof.ipc(), 0.0);

    const std::uint64_t n = prof.total_instructions();
    EXPECT_TRUE(prof.covers(0, n));
    EXPECT_FALSE(prof.covers(0, n + 1));
    EXPECT_FALSE(prof.covers(5, 5));

    // Cycles are additive over adjacent ranges.
    const double whole = prof.cycles_for(0, n);
    const double split = prof.cycles_for(0, n / 2) + prof.cycles_for(n / 2, n);
    EXPECT_NEAR(whole, split, 1e-6);
    EXPECT_NEAR(whole, static_cast<double>(prof.total_cycles()), 1.0);

    // Categories are additive too, and fractions normalize.
    const auto cats = prof.categories_for(0, n);
    EXPECT_NEAR(cats[0] + cats[1] + cats[2], whole, 1.0);
    const auto f = prof.overall_fractions();
    EXPECT_NEAR(f[0] + f[1] + f[2], 1.0, 1e-9);
}

TEST(Trainer, PairSamplesAreWellFormed) {
    const uarch::SimConfig cfg = train_config();
    TrainerOptions opts;
    opts.isolated_quanta = 30;
    opts.pair_quanta = 10;
    const Trainer trainer(cfg, opts);
    const auto& a = apps::find_app("mcf");
    const auto& b = apps::find_app("nab_r");
    const auto pa = profile_isolated(a, cfg, 30, 100);
    const auto pb = profile_isolated(b, cfg, 30, 200);
    const auto samples = trainer.collect_pair_samples(a, b, pa, pb, 100, 200);
    ASSERT_GT(samples.size(), 4u);
    for (const TrainingSample& s : samples) {
        const double st_sum = s.st_self[0] + s.st_self[1] + s.st_self[2];
        EXPECT_NEAR(st_sum, 1.0, 0.05);  // isolated fractions
        const double slowdown = s.smt_per_st[0] + s.smt_per_st[1] + s.smt_per_st[2];
        EXPECT_GT(slowdown, 0.9);   // SMT cannot be much faster than isolated
        EXPECT_LT(slowdown, 4.0);   // and contention is bounded
    }
}

TEST(Trainer, FitRejectsTooFewSamples) {
    EXPECT_THROW(Trainer::fit({}, TrainerOptions{}), std::runtime_error);
}

TEST(Trainer, SmallTrainingRunProducesSaneModel) {
    TrainerOptions opts;
    opts.isolated_quanta = 24;
    opts.pair_quanta = 10;
    opts.threads = 1;
    const std::vector<std::string> apps = {"mcf", "nab_r", "gobmk", "bwaves"};
    const TrainingResult r = Trainer(train_config(), opts).train(apps);
    EXPECT_EQ(r.pair_runs, 10u);  // C(4,2) + 4 self-pairs
    EXPECT_GT(r.sample_count, 20u);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        // Own-behaviour must dominate each category.
        EXPECT_GT(r.model.coefficients(static_cast<Category>(c)).beta, 0.5);
        EXPECT_LT(r.mse[c], 0.2);
    }
}

/// The straightforward pipeline: full-length isolated profiles of
/// `isolated_quanta` quanta, collect_pair_samples over every pair in
/// train()'s order and seeds, then fit().  `aligned` and `usable` count the
/// samples the profiles covered and the samples the pair runs offered.
TrainingResult reference_train(const uarch::SimConfig& cfg, const TrainerOptions& opts,
                               const std::vector<std::string>& names, std::size_t& aligned,
                               std::size_t& usable) {
    const Trainer trainer(cfg, opts);
    const auto seed = [&opts](std::size_t i) { return common::derive_key(opts.seed, 0x150, i); };
    std::vector<IsolatedProfile> profiles;
    for (std::size_t i = 0; i < names.size(); ++i)
        profiles.push_back(
            profile_isolated(apps::find_app(names[i]), cfg, opts.isolated_quanta, seed(i)));
    std::vector<TrainingSample> samples;
    usable = 0;
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i; j < names.size(); ++j) {
            const auto s = trainer.collect_pair_samples(
                apps::find_app(names[i]), apps::find_app(names[j]), profiles[i], profiles[j],
                seed(i), seed(j));
            samples.insert(samples.end(), s.begin(), s.end());
            usable += 2 * (opts.pair_quanta - opts.warmup_quanta);
        }
    aligned = samples.size();
    return Trainer::fit(std::move(samples), opts);
}

std::string result_signature(const TrainingResult& r) {
    std::string sig = std::to_string(r.sample_count);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        const CategoryCoefficients& k = r.model.coefficients(static_cast<Category>(c));
        for (const double x : {k.alpha, k.beta, k.gamma, k.rho, r.mse[c], r.r_squared[c]}) {
            sig += ',';
            sig += std::to_string(testsig::bits(x));
        }
    }
    return sig;
}

TEST(Trainer, TrainEqualsFitOverFullProfiles) {
    // train() must give the bits of the plain pipeline, both when the
    // isolated profiles cover every pair quantum and when a short
    // isolated_quanta leaves some pair quanta out of the fit.
    const std::vector<std::string> apps = {"mcf", "nab_r", "gobmk", "bwaves"};
    struct Case {
        std::uint64_t isolated_quanta;
        bool all_covered;
        std::uint64_t digest;
    };
    for (const Case& c : {Case{40, true, 0x17c972afcc9fd2aaull},
                          Case{5, false, 0xf7ece5d8f678f4f8ull}}) {
        TrainerOptions opts;
        opts.isolated_quanta = c.isolated_quanta;
        opts.pair_quanta = 10;
        opts.threads = 1;
        const std::string at = "isolated_quanta " + std::to_string(c.isolated_quanta);
        std::size_t aligned = 0, usable = 0;
        const TrainingResult want =
            reference_train(train_config(), opts, apps, aligned, usable);
        EXPECT_EQ(aligned == usable, c.all_covered) << at << ": " << aligned << " of " << usable;
        const TrainingResult got = Trainer(train_config(), opts).train(apps);
        EXPECT_EQ(result_signature(got), result_signature(want)) << at;
        EXPECT_EQ(testsig::digest(result_signature(got)), c.digest) << at;
    }
}

/// train() must throw std::invalid_argument naming `field` before it
/// simulates anything.
void expect_train_rejects(const TrainerOptions& opts, const char* field) {
    const std::vector<std::string> apps = {"mcf", "nab_r"};
    try {
        Trainer(train_config(), opts).train(apps);
        ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
}

TEST(Trainer, RejectsZeroIsolatedQuanta) {
    TrainerOptions opts;
    opts.isolated_quanta = 0;
    expect_train_rejects(opts, "isolated_quanta");
}

TEST(Trainer, RejectsPairQuantaNotAboveWarmup) {
    TrainerOptions opts;
    opts.warmup_quanta = 4;
    for (const std::uint64_t pair_quanta : {0, 3, 4}) {
        opts.pair_quanta = pair_quanta;
        expect_train_rejects(opts, "pair_quanta");
    }
}

TEST(Trainer, RejectsSampleFractionOutsideUnitInterval) {
    TrainerOptions opts;
    for (const double f : {0.0, -0.25, 1.5, std::nan("")}) {
        opts.sample_fraction = f;
        expect_train_rejects(opts, "sample_fraction");
    }
}

TEST(Trainer, ResultIsIdenticalForOneAndManyThreads) {
    TrainerOptions opts;
    opts.isolated_quanta = 24;
    opts.pair_quanta = 10;
    const std::vector<std::string> apps = {"mcf", "nab_r", "gobmk", "bwaves"};
    opts.threads = 1;
    const TrainingResult serial = Trainer(train_config(), opts).train(apps);
    opts.threads = 4;
    const TrainingResult parallel = Trainer(train_config(), opts).train(apps);
    EXPECT_EQ(serial.sample_count, parallel.sample_count);
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        const auto cat = static_cast<Category>(c);
        EXPECT_EQ(serial.model.coefficients(cat).beta, parallel.model.coefficients(cat).beta);
        EXPECT_EQ(serial.model.coefficients(cat).alpha, parallel.model.coefficients(cat).alpha);
        EXPECT_EQ(serial.mse[c], parallel.mse[c]);
    }
}

// ---------- extended (ablation) characterization ----------

TEST(Extended, CategoriesSumToCycles) {
    uarch::SimConfig cfg = train_config();
    uarch::Platform platform(cfg);
    apps::AppInstance t(1, apps::find_app("leela_r"), 4);
    platform.bind(t, {.core = 0, .slot = 0});
    for (int q = 0; q < 4; ++q) platform.run_quantum();
    const ExtendedVector v = characterize_extended(t.counters(), cfg);
    double sum = 0.0;
    for (double x : v) sum += x;
    EXPECT_NEAR(sum, static_cast<double>(t.counters().value(pmu::Event::kCpuCycles)), 1e-6);
}

TEST(Extended, RefinesTheCoarseCategories) {
    uarch::SimConfig cfg = train_config();
    uarch::Platform platform(cfg);
    apps::AppInstance t(1, apps::find_app("mcf"), 4);
    platform.bind(t, {.core = 0, .slot = 0});
    for (int q = 0; q < 4; ++q) platform.run_quantum();
    const ExtendedVector v = characterize_extended(t.counters(), cfg);
    const auto coarse = characterize(t.counters(), cfg.dispatch_width);
    EXPECT_NEAR(v[0], coarse.categories[0], 1e-6);                    // full dispatch
    EXPECT_NEAR(v[1] + v[2], coarse.categories[1], 1e-6);             // FE split
    EXPECT_NEAR(v[3] + v[4] + v[5] + v[6] + v[7], coarse.categories[2], 1e-6);  // BE split
}

TEST(Extended, ProfileRunsEndToEnd) {
    const BasicIsolatedProfile<kExtendedCategoryCount> p =
        profile_isolated(apps::find_app("bwaves"), train_config(), 6, 9, characterize_extended);
    EXPECT_EQ(p.quanta().size(), 6u);
    EXPECT_GT(p.total_instructions(), 0u);
}

/// Six applications, 21 pair runs of 12 quanta, 40-quantum isolated cap.
ExtendedTrainingResult small_extended_run(std::size_t threads) {
    TrainerOptions opts;
    opts.isolated_quanta = 40;
    opts.pair_quanta = 12;
    opts.seed = 42;
    opts.threads = threads;
    const std::vector<std::string> apps = {"mcf", "nab_r", "gobmk", "bwaves", "leela_r", "hmmer"};
    return ExtendedTrainer(train_config(), opts).train(apps);
}

/// The sample count, then the hex bits of every MSE and coefficient.
std::string extended_signature(const ExtendedTrainingResult& r) {
    std::ostringstream sig;
    sig << std::hex << r.sample_count;
    for (std::size_t c = 0; c < kExtendedCategoryCount; ++c) {
        const CategoryCoefficients& k = r.model.coefficients(c);
        for (const double x : {r.mse[c], k.alpha, k.beta, k.gamma, k.rho})
            sig << ',' << testsig::bits(x);
    }
    return sig.str();
}

TEST(ExtendedTrainer, TrainDigestPinned) {
    const ExtendedTrainingResult r = small_extended_run(1);
    EXPECT_EQ(r.sample_count, 420u);
    EXPECT_EQ(testsig::digest(extended_signature(r)), 0xa186f33077a44769ull)
        << extended_signature(r);
}

TEST(ExtendedTrainer, RejectsPairQuantaNotAboveWarmup) {
    TrainerOptions opts;
    opts.pair_quanta = 2;
    opts.warmup_quanta = 2;
    const std::vector<std::string> apps = {"mcf", "nab_r"};
    try {
        ExtendedTrainer(train_config(), opts).train(apps);
        ADD_FAILURE() << "pair_quanta == warmup_quanta was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("pair_quanta"), std::string::npos) << e.what();
    }
}

TEST(ExtendedTrainer, ResultIsIdenticalForOneAndManyThreads) {
    const std::string serial = extended_signature(small_extended_run(1));
    for (int run = 0; run < 4; ++run)
        EXPECT_EQ(extended_signature(small_extended_run(4)), serial) << "run " << run;
}

// predict_group_slowdown is the in-order sum from 0.0 of the per-member
// terms predict_member_slowdowns writes, and each term is Equation 1
// against the superposed pressure of the other members, bit for bit on any
// coefficients and any group of 1..kMaxSmtWays members.
TEST(GroupPredictor, GroupIsTheInOrderSumOfMemberTerms) {
    common::Rng rng(20240521, 0xf1a7);
    for (int trial = 0; trial < 200; ++trial) {
        std::array<CategoryCoefficients, kCategoryCount> coeffs{};
        for (CategoryCoefficients& c : coeffs)
            c = {.alpha = rng.uniform(-0.5, 0.5), .beta = rng.uniform(0.0, 2.0),
                 .gamma = rng.uniform(-1.0, 1.0), .rho = rng.uniform(-2.0, 2.0)};
        const InterferenceModel model(coeffs);
        const std::size_t k = 1 + rng.below(uarch::kMaxSmtWays);
        std::vector<CategoryVector> members(k);
        for (CategoryVector& m : members)
            for (double& x : m) x = rng.uniform();
        const std::string where = "trial " + std::to_string(trial);

        std::vector<double> terms(k);
        predict_member_slowdowns(model, members, terms);
        double sum = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
            CategoryVector pressure{};
            for (std::size_t j = 0; j < k; ++j)
                if (j != i)
                    for (std::size_t c = 0; c < kCategoryCount; ++c) pressure[c] += members[j][c];
            EXPECT_EQ(testsig::bits(terms[i]),
                      testsig::bits(model.predict_slowdown(members[i], pressure)))
                << where << " i " << i;
            sum += terms[i];
        }
        EXPECT_EQ(testsig::bits(predict_group_slowdown(model, members)), testsig::bits(sum))
            << where;

        // Step 3 prices a task alone as a 1-member group and a pair as a
        // 2-member group, so the group predictor must reduce exactly:
        // {a} to the "runs alone" term, {a, b} to the both-directions pair
        // weight, in either member order.
        CategoryVector a{}, b{};
        for (double& x : a) x = rng.uniform();
        for (double& x : b) x = rng.uniform();
        const std::array<CategoryVector, 1> alone = {a};
        const std::array<CategoryVector, 2> ab = {a, b};
        const std::array<CategoryVector, 2> ba = {b, a};
        const double solo = model.predict_slowdown(a, CategoryVector{});
        const double pair = model.predict_slowdown(a, b) + model.predict_slowdown(b, a);
        EXPECT_EQ(testsig::bits(predict_group_slowdown(model, alone)), testsig::bits(solo))
            << where;
        EXPECT_EQ(testsig::bits(predict_group_slowdown(model, ab)), testsig::bits(pair)) << where;
        EXPECT_EQ(testsig::bits(predict_group_slowdown(model, ba)), testsig::bits(pair)) << where;
    }
}

}  // namespace
