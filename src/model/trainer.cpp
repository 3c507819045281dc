#include "model/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/least_squares.hpp"
#include "model/extended_model.hpp"
#include "uarch/platform.hpp"

namespace synpa::model {
namespace {

/// The paper's three categories: characterize()'s Step 3 at cfg's width.
std::array<double, kCategoryCount> characterize_three(const pmu::CounterBank& delta,
                                                      const uarch::SimConfig& cfg) {
    return characterize(delta, cfg.dispatch_width).categories;
}

/// What alignment needs of one post-warmup quantum of a pair run: the
/// instruction range each task retired and its SMT category cycles.
template <std::size_t N>
struct PairQuantum {
    std::uint64_t a_begin = 0, a_end = 0;
    std::uint64_t b_begin = 0, b_end = 0;
    std::array<double, N> a_smt{};
    std::array<double, N> b_smt{};
};

/// Co-runs `a` and `b` on one SMT core for `opts.pair_quanta` quanta and
/// records every quantum after the warmup.
template <std::size_t N>
std::vector<PairQuantum<N>> run_pair(const uarch::SimConfig& cfg, const TrainerOptions& opts,
                                     Characterization<N> characterization,
                                     const apps::AppProfile& a, const apps::AppProfile& b,
                                     std::uint64_t seed_a, std::uint64_t seed_b) {
    uarch::SimConfig pair_cfg = cfg;
    pair_cfg.cores = 1;
    // Pair training co-runs two threads on one core by construction, so the
    // training chip needs at least two SMT contexts even when the evaluation
    // chip is configured SMT-1 (a co-run interference model is width-
    // independent; the TX2 methodology trains in SMT-2 BIOS mode).
    pair_cfg.smt_ways = std::max(pair_cfg.smt_ways, 2);
    pair_cfg.num_chips = 1;
    pair_cfg.sim_threads = 1;
    uarch::Platform platform(pair_cfg);
    // The instances use the same seeds as the profiling runs so their event
    // streams match the isolated reference (same work, different timing).
    apps::AppInstance ta(/*id=*/1, a, seed_a);
    apps::AppInstance tb(/*id=*/2, b, seed_b);
    platform.bind(ta, {.core = 0, .slot = 0});
    platform.bind(tb, {.core = 0, .slot = 1});

    std::vector<PairQuantum<N>> out;
    out.reserve(opts.pair_quanta);
    pmu::CounterBank prev_a, prev_b;
    std::uint64_t insts_a = 0, insts_b = 0;
    for (std::uint64_t q = 0; q < opts.pair_quanta; ++q) {
        platform.run_quantum();
        const pmu::CounterBank now_a = ta.counters();
        const pmu::CounterBank now_b = tb.counters();
        const std::array<double, N> smt_a = characterization(now_a.delta_since(prev_a), cfg);
        const std::array<double, N> smt_b = characterization(now_b.delta_since(prev_b), cfg);
        prev_a = now_a;
        prev_b = now_b;
        const std::uint64_t a0 = insts_a, b0 = insts_b;
        insts_a = ta.insts_retired();
        insts_b = tb.insts_retired();
        if (q < opts.warmup_quanta) continue;
        out.push_back({.a_begin = a0,
                       .a_end = insts_a,
                       .b_begin = b0,
                       .b_end = insts_b,
                       .a_smt = smt_a,
                       .b_smt = smt_b});
    }
    return out;
}

/// Maps each recorded pair quantum the profiles cover onto isolated work
/// and appends its two samples (each task as target once) to `out`.
template <std::size_t N>
void align(const std::vector<PairQuantum<N>>& run, const BasicIsolatedProfile<N>& prof_a,
           const BasicIsolatedProfile<N>& prof_b, std::vector<BasicTrainingSample<N>>& out) {
    for (const PairQuantum<N>& q : run) {
        if (!prof_a.covers(q.a_begin, q.a_end) || !prof_b.covers(q.b_begin, q.b_end)) continue;

        const double st_cycles_a = prof_a.cycles_for(q.a_begin, q.a_end);
        const double st_cycles_b = prof_b.cycles_for(q.b_begin, q.b_end);
        if (st_cycles_a <= 0.0 || st_cycles_b <= 0.0) continue;

        auto st_frac = [](std::array<double, N> cats, double cycles) {
            for (double& x : cats) x /= cycles;
            return cats;
        };
        const std::array<double, N> st_a =
            st_frac(prof_a.categories_for(q.a_begin, q.a_end), st_cycles_a);
        const std::array<double, N> st_b =
            st_frac(prof_b.categories_for(q.b_begin, q.b_end), st_cycles_b);

        // SMT categories per isolated cycle of the same work: the values
        // sum to the quantum slowdown of that task.
        std::array<double, N> smt_a{}, smt_b{};
        for (std::size_t c = 0; c < N; ++c) {
            smt_a[c] = q.a_smt[c] / st_cycles_a;
            smt_b[c] = q.b_smt[c] / st_cycles_b;
        }
        out.push_back({.st_self = st_a, .st_corunner = st_b, .smt_per_st = smt_a});
        out.push_back({.st_self = st_b, .st_corunner = st_a, .smt_per_st = smt_b});
    }
}

/// Rejects options train() cannot honour, naming the field.
void validate(const TrainerOptions& opts) {
    if (opts.isolated_quanta == 0)
        throw std::invalid_argument("TrainerOptions::isolated_quanta must be at least 1");
    if (opts.pair_quanta <= opts.warmup_quanta)
        throw std::invalid_argument(
            "TrainerOptions::pair_quanta must exceed TrainerOptions::warmup_quanta");
    if (!(opts.sample_fraction > 0.0 && opts.sample_fraction <= 1.0))
        throw std::invalid_argument("TrainerOptions::sample_fraction must be in (0, 1]");
    common::require_thread_cap("TrainerOptions::threads", opts.threads);
}

}  // namespace

template <std::size_t N>
BasicIsolatedProfile<N>::BasicIsolatedProfile(std::string app_name, std::vector<Quantum> quanta)
    : app_name_(std::move(app_name)), quanta_(std::move(quanta)) {
    if (quanta_.empty()) throw std::invalid_argument("IsolatedProfile: no quanta");
}

template <std::size_t N>
std::uint64_t BasicIsolatedProfile<N>::total_instructions() const noexcept {
    return quanta_.back().insts_end;
}

template <std::size_t N>
std::uint64_t BasicIsolatedProfile<N>::total_cycles() const noexcept {
    return quanta_.back().cycles_end;
}

template <std::size_t N>
double BasicIsolatedProfile<N>::ipc() const noexcept {
    const auto cycles = total_cycles();
    return cycles == 0 ? 0.0
                       : static_cast<double>(total_instructions()) /
                             static_cast<double>(cycles);
}

template <std::size_t N>
std::array<double, N> BasicIsolatedProfile<N>::overall_fractions() const noexcept {
    std::array<double, N> sum{};
    for (const Quantum& q : quanta_)
        for (std::size_t c = 0; c < N; ++c) sum[c] += q.categories[c];
    const double cycles = static_cast<double>(total_cycles());
    if (cycles > 0)
        for (double& x : sum) x /= cycles;
    return sum;
}

template <std::size_t N>
bool BasicIsolatedProfile<N>::covers(std::uint64_t begin, std::uint64_t end) const noexcept {
    return begin < end && end <= total_instructions();
}

template <std::size_t N>
double BasicIsolatedProfile<N>::cumulative_cycles_at(std::uint64_t insts) const {
    // Piecewise-linear interpolation over quantum boundaries.
    std::uint64_t prev_insts = 0;
    double prev_cycles = 0.0;
    for (const Quantum& q : quanta_) {
        if (insts <= q.insts_end) {
            const double span = static_cast<double>(q.insts_end - prev_insts);
            const double frac =
                span <= 0.0 ? 1.0 : static_cast<double>(insts - prev_insts) / span;
            return prev_cycles + frac * (static_cast<double>(q.cycles_end) - prev_cycles);
        }
        prev_insts = q.insts_end;
        prev_cycles = static_cast<double>(q.cycles_end);
    }
    return static_cast<double>(total_cycles());
}

template <std::size_t N>
std::array<double, N> BasicIsolatedProfile<N>::cumulative_categories_at(
    std::uint64_t insts) const {
    std::array<double, N> acc{};
    std::uint64_t prev_insts = 0;
    for (const Quantum& q : quanta_) {
        if (insts <= q.insts_end) {
            const double span = static_cast<double>(q.insts_end - prev_insts);
            const double frac =
                span <= 0.0 ? 1.0 : static_cast<double>(insts - prev_insts) / span;
            for (std::size_t c = 0; c < N; ++c) acc[c] += frac * q.categories[c];
            return acc;
        }
        for (std::size_t c = 0; c < N; ++c) acc[c] += q.categories[c];
        prev_insts = q.insts_end;
    }
    return acc;
}

template <std::size_t N>
double BasicIsolatedProfile<N>::cycles_for(std::uint64_t begin, std::uint64_t end) const {
    if (!covers(begin, end)) throw std::out_of_range("IsolatedProfile::cycles_for: range");
    return cumulative_cycles_at(end) - cumulative_cycles_at(begin);
}

template <std::size_t N>
std::array<double, N> BasicIsolatedProfile<N>::categories_for(std::uint64_t begin,
                                                              std::uint64_t end) const {
    if (!covers(begin, end))
        throw std::out_of_range("IsolatedProfile::categories_for: range");
    auto hi = cumulative_categories_at(end);
    const auto lo = cumulative_categories_at(begin);
    for (std::size_t c = 0; c < N; ++c) hi[c] -= lo[c];
    return hi;
}

template <std::size_t N>
BasicIsolatedProfile<N> profile_isolated(const apps::AppProfile& app, const uarch::SimConfig& cfg,
                                         std::uint64_t quanta, std::uint64_t seed,
                                         Characterization<N> characterization,
                                         std::uint64_t until_insts) {
    uarch::SimConfig solo = cfg;
    solo.cores = 1;  // an isolated run needs one core; keeps profiling fast
    solo.num_chips = 1;
    solo.sim_threads = 1;
    uarch::Platform platform(solo);
    apps::AppInstance task(/*id=*/1, app, seed);
    platform.bind(task, {.core = 0, .slot = 0});

    std::vector<typename BasicIsolatedProfile<N>::Quantum> samples;
    samples.reserve(quanta);
    pmu::CounterBank prev;
    for (std::uint64_t q = 0; q < quanta; ++q) {
        platform.run_quantum();
        const pmu::CounterBank& now = task.counters();
        samples.push_back({.insts_end = task.insts_retired(),
                           .cycles_end = now.value(pmu::Event::kCpuCycles),
                           .categories = characterization(now.delta_since(prev), solo)});
        prev = now;
        if (task.insts_retired() >= until_insts) break;
    }
    return BasicIsolatedProfile<N>(app.name, std::move(samples));
}

IsolatedProfile profile_isolated(const apps::AppProfile& app, const uarch::SimConfig& cfg,
                                 std::uint64_t quanta, std::uint64_t seed,
                                 std::uint64_t until_insts) {
    return profile_isolated(app, cfg, quanta, seed, characterize_three, until_insts);
}

template <std::size_t N>
TrainingSet<N> collect_training_set(const uarch::SimConfig& cfg, const TrainerOptions& opts,
                                    std::span<const std::string> app_names,
                                    Characterization<N> characterization) {
    validate(opts);
    std::vector<const apps::AppProfile*> train_apps;
    train_apps.reserve(app_names.size());
    for (const std::string& name : app_names) train_apps.push_back(&apps::find_app(name));
    const auto seed = [&opts](std::size_t i) { return common::derive_key(opts.seed, 0x150, i); };

    // Step 1: all pairs in SMT (parallel across pairs).
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t i = 0; i < train_apps.size(); ++i)
        for (std::size_t j = i; j < train_apps.size(); ++j) {
            if (i == j && !opts.include_self_pairs) continue;
            pairs.emplace_back(i, j);
        }
    std::vector<std::vector<PairQuantum<N>>> runs(pairs.size());
    common::parallel_for(
        pairs.size(),
        [&](std::size_t p) {
            const auto [i, j] = pairs[p];
            runs[p] = run_pair(cfg, opts, characterization, *train_apps[i], *train_apps[j],
                               seed(i), seed(j));
        },
        opts.threads);

    // Step 2: isolated profiles (parallel across applications), each cut
    // after the first quantum that reaches the furthest instruction any of
    // the application's pair quanta retired.  A cut profile is a prefix of
    // the full one and covers every pair quantum the full one covers, so
    // alignment sees the same bits; isolated_quanta only caps the length.
    std::vector<std::uint64_t> reach(train_apps.size(), 0);
    for (std::size_t p = 0; p < pairs.size(); ++p) {  // validate(): no run is empty
        const auto [i, j] = pairs[p];
        reach[i] = std::max(reach[i], runs[p].back().a_end);
        reach[j] = std::max(reach[j], runs[p].back().b_end);
    }
    std::vector<BasicIsolatedProfile<N>> profiles(train_apps.size());
    common::parallel_for(
        train_apps.size(),
        [&](std::size_t i) {
            profiles[i] = profile_isolated(*train_apps[i], cfg, opts.isolated_quanta, seed(i),
                                           characterization, reach[i]);
        },
        opts.threads);

    // Step 3: alignment in pair order, not completion order: the fits are
    // sums over samples and Trainer::fit() draws its subset by index.
    TrainingSet<N> set;
    set.pair_runs = pairs.size();
    for (std::size_t p = 0; p < pairs.size(); ++p)
        align(runs[p], profiles[pairs[p].first], profiles[pairs[p].second], set.samples);
    return set;
}

template class BasicIsolatedProfile<kCategoryCount>;
template class BasicIsolatedProfile<kExtendedCategoryCount>;
template IsolatedProfile profile_isolated(const apps::AppProfile&, const uarch::SimConfig&,
                                          std::uint64_t, std::uint64_t,
                                          Characterization<kCategoryCount>, std::uint64_t);
template BasicIsolatedProfile<kExtendedCategoryCount> profile_isolated(
    const apps::AppProfile&, const uarch::SimConfig&, std::uint64_t, std::uint64_t,
    Characterization<kExtendedCategoryCount>, std::uint64_t);
template TrainingSet<kCategoryCount> collect_training_set(const uarch::SimConfig&,
                                                          const TrainerOptions&,
                                                          std::span<const std::string>,
                                                          Characterization<kCategoryCount>);
template TrainingSet<kExtendedCategoryCount> collect_training_set(
    const uarch::SimConfig&, const TrainerOptions&, std::span<const std::string>,
    Characterization<kExtendedCategoryCount>);

std::vector<TrainingSample> Trainer::collect_pair_samples(const apps::AppProfile& a,
                                                          const apps::AppProfile& b,
                                                          const IsolatedProfile& prof_a,
                                                          const IsolatedProfile& prof_b,
                                                          std::uint64_t seed_a,
                                                          std::uint64_t seed_b) const {
    std::vector<TrainingSample> out;
    align(run_pair(cfg_, opts_, characterize_three, a, b, seed_a, seed_b), prof_a, prof_b, out);
    return out;
}

TrainingResult Trainer::fit(std::vector<TrainingSample> samples, const TrainerOptions& opts) {
    if (samples.size() < 8) throw std::runtime_error("Trainer::fit: too few samples");

    // Random subset, as in the paper ("a random subset of the execution
    // quanta was selected to build the model").
    if (opts.sample_fraction < 1.0) {
        common::Rng rng(opts.seed, 0xf17);
        std::vector<TrainingSample> kept;
        kept.reserve(samples.size());
        for (const TrainingSample& s : samples)
            if (rng.chance(opts.sample_fraction)) kept.push_back(s);
        if (kept.size() >= 8) samples = std::move(kept);
    }

    TrainingResult result;
    result.sample_count = samples.size();
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        linalg::Matrix design(samples.size(), kDesignColumns);
        std::vector<double> target(samples.size());
        for (std::size_t r = 0; r < samples.size(); ++r) {
            const TrainingSample& s = samples[r];
            const auto row = design_row(s, c);
            for (std::size_t k = 0; k < kDesignColumns; ++k) design(r, k) = row[k];
            target[r] = s.smt_per_st[c];
        }
        linalg::LeastSquaresResult fit;
        try {
            fit = linalg::least_squares(design, target);
        } catch (const std::runtime_error&) {
            // Near-collinear design (e.g. a category that is almost constant
            // across the suite): fall back to a lightly regularized fit.
            fit = linalg::ridge_least_squares(design, target, 1e-6);
        }
        CategoryCoefficients k{.alpha = fit.coefficients[0],
                               .beta = fit.coefficients[1],
                               .gamma = fit.coefficients[2],
                               .rho = fit.coefficients[3]};
        result.model.coefficients(static_cast<Category>(c)) = k;
        result.mse[c] = fit.mse;
        result.r_squared[c] = fit.r_squared;
    }
    return result;
}

TrainingResult Trainer::train(std::span<const std::string> app_names) const {
    TrainingSet<kCategoryCount> set =
        collect_training_set(cfg_, opts_, app_names, characterize_three);
    TrainingResult result = fit(std::move(set.samples), opts_);
    result.pair_runs = set.pair_runs;
    return result;
}

}  // namespace synpa::model
