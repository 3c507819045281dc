// Unit tests for src/common: deterministic RNG streams, statistics,
// table rendering, env config, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace synpa::common;

TEST(Rng, DeterministicForSameKey) {
    Rng a(42, 1), b(42, 1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentKeysDiverge) {
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += a() == b();
    EXPECT_LE(same, 1);
}

TEST(Rng, UniformInUnitInterval) {
    Rng r(7, 0);
    for (int i = 0; i < 10'000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds) {
    Rng r(7, 1);
    for (int i = 0; i < 1'000; ++i) {
        const double u = r.uniform(3.0, 5.0);
        EXPECT_GE(u, 3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, BelowStaysBelow) {
    Rng r(7, 2);
    for (int i = 0; i < 10'000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BetweenInclusive) {
    Rng r(7, 3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1'000; ++i) {
        const auto v = r.between(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, GeometricMeanApproximatelyInverseP) {
    Rng r(7, 4);
    const double p = 0.02;
    double sum = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(r.geometric(p));
    const double mean = sum / n;
    EXPECT_NEAR(mean, 1.0 / p, 0.1 / p);  // within 10%
}

TEST(Rng, GeometricIsAtLeastOne) {
    Rng r(7, 5);
    for (int i = 0; i < 1'000; ++i) EXPECT_GE(r.geometric(0.9), 1u);
}

TEST(Rng, GeometricPrecomputedLogMatches) {
    // The inverse-CDF draw as geometric(p) computed it before the
    // denominator could be precomputed.
    const auto reference = [](Rng& r, double p) -> std::uint64_t {
        if (p >= 1.0) return 1;
        if (p < 1e-12) p = 1e-12;
        const double n = std::log1p(-r.uniform()) / std::log1p(-p);
        return static_cast<std::uint64_t>(n < 1.0 ? 1.0 : n) + 1;
    };
    for (const double p : {1e-13, 1e-12, 1e-9, 0.01, 0.5, 1.0 - 0x1.0p-53, 1.0, 1.5}) {
        const double log_q = Rng::geometric_log(p);
        for (std::uint64_t key = 0; key < 200; ++key) {
            Rng plain(7, key);
            Rng precomputed(7, key);
            Rng ref(7, key);
            const std::uint64_t want = reference(ref, p);
            EXPECT_EQ(plain.geometric(p), want) << "p " << p << " key " << key;
            EXPECT_EQ(precomputed.geometric(p, log_q), want) << "p " << p << " key " << key;
            // Same stream position afterwards (p >= 1 draws nothing).
            const std::uint64_t next = ref();
            EXPECT_EQ(plain(), next) << "p " << p << " key " << key;
            EXPECT_EQ(precomputed(), next) << "p " << p << " key " << key;
        }
    }
}

TEST(Rng, ExponentialMean) {
    Rng r(7, 6);
    double sum = 0.0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 5.0);
}

TEST(Rng, ChanceProbability) {
    Rng r(7, 7);
    int hits = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngHash, StringHashStableAndDistinct) {
    EXPECT_EQ(hash_string("mcf"), hash_string("mcf"));
    EXPECT_NE(hash_string("mcf"), hash_string("mcf_r"));
    EXPECT_NE(hash_string(""), hash_string("a"));
}

TEST(RngHash, DeriveKeySaltsMatter) {
    EXPECT_NE(derive_key(1, 2, 3, 4), derive_key(1, 2, 3, 5));
    EXPECT_NE(derive_key(1, 2, 3, 4), derive_key(1, 2, 4, 3));
    EXPECT_NE(derive_key(1, 2), derive_key(2, 1));
}

TEST(RunningStats, MatchesClosedForm) {
    RunningStats s;
    for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.variance(), 1.25);
    EXPECT_NEAR(s.sample_variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, MergeEqualsCombined) {
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
    RunningStats a, empty;
    a.add(5.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    RunningStats b;
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Stats, GeomeanOfEqualValues) {
    const std::vector<double> xs = {2.0, 2.0, 2.0};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanKnownValue) {
    const std::vector<double> xs = {1.0, 4.0};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanEmptyIsZero) { EXPECT_EQ(geomean({}), 0.0); }

TEST(Stats, MseBasics) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {2.0, 4.0};
    EXPECT_DOUBLE_EQ(mse(a, b), (1.0 + 4.0) / 2.0);
    EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
}

TEST(Stats, CoefficientOfVariation) {
    const std::vector<double> xs = {10.0, 10.0, 10.0};
    EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
    const std::vector<double> ys = {1.0, 3.0};
    EXPECT_NEAR(coefficient_of_variation(ys), 0.5, 1e-12);
}

TEST(Stats, PercentileInterpolatesOrderStatistics) {
    const std::vector<double> xs = {40.0, 10.0, 20.0, 30.0};  // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);  // between 20 and 30
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 2.0), 40.0);  // p clamped to [0, 1]
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    const std::vector<double> sorted = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.95), percentile(xs, 0.95));
    EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.5}, 0.99), 7.5);
    EXPECT_DOUBLE_EQ(percentile(xs, -0.5), 10.0);  // p clamped from below too
    const std::vector<double> single = {3.0};
    EXPECT_DOUBLE_EQ(percentile(single, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(single, 1.0), 3.0);
}

TEST(Stats, OutlierDiscardReachesCvLimit) {
    std::vector<double> xs = {100, 101, 99, 100, 500};  // one wild sample
    const auto kept = discard_outliers_until_cv(xs, 0.05);
    EXPECT_EQ(kept.size(), 4u);
    for (double x : kept) EXPECT_LT(x, 200.0);
}

TEST(Stats, OutlierDiscardKeepsMinimum) {
    std::vector<double> xs = {1, 100, 10'000};
    const auto kept = discard_outliers_until_cv(xs, 0.001, 2);
    EXPECT_GE(kept.size(), 2u);
}

TEST(Table, RendersAlignedGrid) {
    Table t({"a", "bb"});
    t.row().add("x").add(1.5, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("| x"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(Table, CsvRoundTrip) {
    Table t({"h1", "h2"});
    t.row().add("v").add(static_cast<long long>(3));
    EXPECT_EQ(t.to_csv(), "h1,h2\nv,3\n");
}

TEST(Table, PercentFormatting) {
    Table t({"p"});
    t.row().add_pct(0.365, 1);
    EXPECT_NE(t.to_csv().find("36.5%"), std::string::npos);
}

TEST(Table, AsciiBarClamps) {
    EXPECT_EQ(ascii_bar(-1.0, 10), "..........");
    EXPECT_EQ(ascii_bar(2.0, 10), "##########");
    EXPECT_EQ(ascii_bar(0.5, 10), "#####.....");
}

TEST(Table, StackedBarWidthsSum) {
    const std::string bar = stacked_bar(0.25, 0.25, 0.5, 20);
    EXPECT_EQ(bar.size(), 20u);
    EXPECT_EQ(std::count(bar.begin(), bar.end(), '#'), 5);
    EXPECT_EQ(std::count(bar.begin(), bar.end(), 'F'), 5);
    EXPECT_EQ(std::count(bar.begin(), bar.end(), 'B'), 10);
}

TEST(Config, EnvIntFallback) {
    ::unsetenv("SYNPA_TEST_UNSET");
    EXPECT_EQ(env_int("SYNPA_TEST_UNSET", 5), 5);
    ::setenv("SYNPA_TEST_EMPTY", "", 1);
    EXPECT_EQ(env_int("SYNPA_TEST_EMPTY", 5), 5);
    ::setenv("SYNPA_TEST_INT", "17", 1);
    EXPECT_EQ(env_int("SYNPA_TEST_INT", 5), 17);
    ::setenv("SYNPA_TEST_NEG", "-3", 1);
    EXPECT_EQ(env_int("SYNPA_TEST_NEG", 5), -3);
    ::setenv("SYNPA_TEST_SPACE", " 8 ", 1);  // trailing whitespace is fine
    EXPECT_EQ(env_int("SYNPA_TEST_SPACE", 5), 8);
}

TEST(Config, EnvIntMalformedThrowsNamingTheKnob) {
    // A typo'd knob must fail loudly, not silently run the default config.
    ::setenv("SYNPA_TEST_BAD", "xyz", 1);
    EXPECT_THROW(env_int("SYNPA_TEST_BAD", 5), std::runtime_error);
    try {
        env_int("SYNPA_TEST_BAD", 5);
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("SYNPA_TEST_BAD"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("xyz"), std::string::npos);
    }
    ::setenv("SYNPA_TEST_TRAILING", "8cores", 1);  // trailing garbage
    EXPECT_THROW(env_int("SYNPA_TEST_TRAILING", 5), std::runtime_error);
    ::setenv("SYNPA_TEST_OVERFLOW", "99999999999999999999999", 1);
    EXPECT_THROW(env_int("SYNPA_TEST_OVERFLOW", 5), std::runtime_error);
    ::unsetenv("SYNPA_TEST_BAD");
    ::unsetenv("SYNPA_TEST_TRAILING");
    ::unsetenv("SYNPA_TEST_OVERFLOW");
}

TEST(Config, EnvDoubleAndString) {
    ::setenv("SYNPA_TEST_DBL", "2.5", 1);
    EXPECT_DOUBLE_EQ(env_double("SYNPA_TEST_DBL", 1.0), 2.5);
    ::setenv("SYNPA_TEST_DBL_EXP", "1e-3", 1);
    EXPECT_DOUBLE_EQ(env_double("SYNPA_TEST_DBL_EXP", 1.0), 1e-3);
    ::setenv("SYNPA_TEST_DBL_BAD", "fast", 1);
    EXPECT_THROW(env_double("SYNPA_TEST_DBL_BAD", 1.0), std::runtime_error);
    ::setenv("SYNPA_TEST_DBL_TRAIL", "0.5x", 1);
    EXPECT_THROW(env_double("SYNPA_TEST_DBL_TRAIL", 1.0), std::runtime_error);
    ::unsetenv("SYNPA_TEST_DBL_BAD");
    ::unsetenv("SYNPA_TEST_DBL_TRAIL");
    ::setenv("SYNPA_TEST_STR", "hello", 1);
    EXPECT_EQ(env_string("SYNPA_TEST_STR", "d"), "hello");
    EXPECT_EQ(env_string("SYNPA_TEST_STR_UNSET", "d"), "d");
}

TEST(ThreadPool, RunsAllTasks) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ManyShortBatchesEachWaitForEveryTask) {
    // The caller is woken only when a batch's last task finishes, so each
    // of these short batches must still return with every index run and
    // its write visible.
    ThreadPool pool(2);
    std::vector<int> done(8, 0);
    std::vector<int> want(8, 0);
    for (int batch = 0; batch < 2'000; ++batch) {
        const std::size_t tasks = 1 + static_cast<std::size_t>(batch) % done.size();
        pool.parallel_for(tasks, [&done](std::size_t i) { ++done[i]; });
        for (std::size_t i = 0; i < tasks; ++i) ++want[i];
        ASSERT_EQ(done, want) << "batch " << batch;
    }
}

TEST(ThreadPool, ParallelForCoversRange) {
    std::vector<int> hits(64, 0);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; }, 3);
    for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
    parallel_for(0, [](std::size_t) { FAIL(); });
    SUCCEED();
}

TEST(ThreadPool, RethrowsFirstTaskExceptionAndStaysUsable) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(1, [](std::size_t) { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    // The pool stays usable and the exception is not rethrown twice.
    std::atomic<int> counter{0};
    pool.parallel_for(1, [&](std::size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(
                     16,
                     [&](std::size_t i) {
                         ran.fetch_add(1);
                         if (i == 3) throw std::invalid_argument("bad index");
                     },
                     2),
                 std::invalid_argument);
    EXPECT_EQ(ran.load(), 16);  // the batch still drains
}

TEST(ThreadPool, InlineLoopRunsInIndexOrderAndRethrowsTheFirstFailure) {
    std::vector<std::size_t> order;
    try {
        parallel_for(nullptr, 6, [&order](std::size_t i) {
            order.push_back(i);
            if (i == 2 || i == 4) throw std::runtime_error("index " + std::to_string(i));
        });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "index 2");
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, OneShotStartsNoMoreWorkersThanItems) {
    // When at most one thread would run, the loop runs on the caller alone;
    // otherwise at most n threads take part (the caller and n - 1 workers),
    // whatever the requested count.
    const std::thread::id caller = std::this_thread::get_id();
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
        std::thread::id ran_on;
        parallel_for(1, [&](std::size_t) { ran_on = std::this_thread::get_id(); }, threads);
        EXPECT_EQ(ran_on, caller) << "threads=" << threads;
    }
    std::vector<std::thread::id> ran_on(4);
    parallel_for(ran_on.size(), [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); }, 1);
    EXPECT_EQ(ran_on, std::vector<std::thread::id>(4, caller));
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallel_for(2, [&](std::size_t) {
        const std::lock_guard lock(mutex);
        ids.insert(std::this_thread::get_id());
    }, 8);
    EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, CallerIsOneOfThePoolThreads) {
    // In a two-thread pool each index waits for the other to start, so the
    // two run at once, on the one worker and on the caller.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ran_on(2);
    ThreadPool pool(2);
    std::atomic<int> started{0};
    pool.parallel_for(2, [&](std::size_t i) {
        started.fetch_add(1);
        while (started.load() < 2) std::this_thread::yield();
        ran_on[i] = std::this_thread::get_id();
    });
    EXPECT_NE(ran_on[0], ran_on[1]);
    EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller);
}

TEST(ThreadPool, ThreadCapNamesTheField) {
    EXPECT_NO_THROW(require_thread_cap("Opts::threads", kMaxThreads));
    for (const std::size_t bad : {kMaxThreads + 1, static_cast<std::size_t>(-1)}) {
        try {
            require_thread_cap("Opts::threads", bad);
            ADD_FAILURE() << "accepted " << bad;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("Opts::threads"), std::string::npos);
        }
    }
    // Rejected before any worker starts.
    EXPECT_THROW(ThreadPool(static_cast<std::size_t>(-1)), std::invalid_argument);
}

TEST(FlatIdMap, InsertFindErase) {
    FlatIdMap<int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(3), nullptr);
    EXPECT_FALSE(map.erase(3));

    map.insert_or_assign(3, 30);
    map.insert_or_assign(1, 10);
    ASSERT_NE(map.find(3), nullptr);
    EXPECT_EQ(*map.find(3), 30);
    EXPECT_EQ(map.size(), 2u);

    map.insert_or_assign(3, 33);  // overwrite does not grow
    EXPECT_EQ(*map.find(3), 33);
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(3));
    EXPECT_EQ(map.find(3), nullptr);
    EXPECT_FALSE(map.contains(3));
    EXPECT_EQ(map.size(), 1u);
    EXPECT_TRUE(map.contains(1));
}

TEST(FlatIdMap, NegativeAndUnseenIdsAreAbsent) {
    FlatIdMap<int> map;
    map.insert_or_assign(0, 7);
    EXPECT_EQ(map.find(-1), nullptr);
    EXPECT_FALSE(map.contains(-1));
    EXPECT_EQ(map.find(1'000'000), nullptr);
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 7);
}

TEST(FlatIdMap, ForEachAscendingIdOrder) {
    FlatIdMap<int> map;
    map.insert_or_assign(9, 90);
    map.insert_or_assign(2, 20);
    map.insert_or_assign(5, 50);
    map.erase(5);
    std::vector<int> ids;
    map.for_each([&](int id, int value) {
        ids.push_back(id);
        EXPECT_EQ(value, id * 10);
    });
    EXPECT_EQ(ids, (std::vector<int>{2, 9}));
}

TEST(SmallIdMap, FindsEveryEntryWhateverTheInsertionOrder) {
    const SmallIdMap<int> map({{11'600, 5}, {3, 30}, {-4, 40}, {0, 1}, {7, 70}});
    EXPECT_EQ(map.size(), 5u);
    EXPECT_FALSE(map.has_duplicate());
    for (const auto& [id, value] : {std::pair{11'600, 5}, std::pair{3, 30}, std::pair{-4, 40},
                                    std::pair{0, 1}, std::pair{7, 70}}) {
        ASSERT_NE(map.find(id), nullptr) << id;
        EXPECT_EQ(*map.find(id), value) << id;
    }
}

TEST(SmallIdMap, AbsentIdsAreNull) {
    const SmallIdMap<int> map({{5, 50}, {2, 20}, {9, 90}});
    EXPECT_EQ(map.find(-1), nullptr);  // below every key, and negative
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_EQ(map.find(4), nullptr);   // between keys
    EXPECT_EQ(map.find(10), nullptr);  // above every key
    EXPECT_EQ(map.find(1'000'000), nullptr);
}

TEST(SmallIdMap, ReportsARepeatedId) {
    // NodeLoop::bind rejects a task placed twice through has_duplicate().
    const SmallIdMap<int> twice({{4, 0}, {8, 1}, {4, 2}});
    EXPECT_TRUE(twice.has_duplicate());
    EXPECT_EQ(twice.size(), 3u);
    ASSERT_NE(twice.find(4), nullptr);
    EXPECT_TRUE(*twice.find(4) == 0 || *twice.find(4) == 2);
    EXPECT_FALSE(SmallIdMap<int>({{4, 0}, {8, 1}, {5, 2}}).has_duplicate());
    EXPECT_FALSE(SmallIdMap<int>({{4, 0}}).has_duplicate());
}

TEST(SmallIdMap, EmptyMapFindsNothing) {
    const SmallIdMap<int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_FALSE(map.has_duplicate());
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(-1), nullptr);
}

TEST(SmallIdMap, FromBuildsOneEntryPerItem) {
    const auto entry = [](int id) { return std::pair{id, id * 10}; };
    const auto map = SmallIdMap<int>::from(std::vector<int>{42, 7, 19}, entry);
    EXPECT_EQ(map.size(), 3u);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 70);
    EXPECT_EQ(*map.find(42), 420);
    EXPECT_EQ(map.find(8), nullptr);
    EXPECT_EQ(SmallIdMap<int>::from(std::vector<int>{}, entry).size(), 0u);
}

}  // namespace
