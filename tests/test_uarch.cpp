// Tests for the simulator substrate: cache-sharing math, the DRAM queue,
// configuration, the SMT core's run() shortcuts (against repeated tick()),
// chip-level invariants on one-chip platforms (counter identities,
// determinism, SMT slowdown, fetch-port contention), and the platform's
// placement table and migration warmup.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/instance.hpp"
#include "apps/spec_suite.hpp"
#include "common/rng.hpp"
#include "model/categories.hpp"
#include "signatures.hpp"
#include "uarch/cache.hpp"
#include "uarch/chip.hpp"
#include "uarch/memory.hpp"
#include "uarch/platform.hpp"
#include "uarch/sim_config.hpp"

namespace {

using namespace synpa;
using namespace synpa::uarch;

// ---------- cache model ----------

TEST(Cache, ProportionalSharesSumToCapacity) {
    const std::vector<double> fp = {1.0, 3.0};
    const auto shares = proportional_shares(8.0, fp);
    EXPECT_DOUBLE_EQ(shares[0], 2.0);
    EXPECT_DOUBLE_EQ(shares[1], 6.0);
}

TEST(Cache, ZeroFootprintsGetFullCapacity) {
    const std::vector<double> fp = {0.0, 0.0};
    const auto shares = proportional_shares(8.0, fp);
    EXPECT_DOUBLE_EQ(shares[0], 8.0);
    EXPECT_DOUBLE_EQ(shares[1], 8.0);
}

TEST(Cache, NegativeFootprintThrows) {
    const std::vector<double> fp = {-1.0};
    EXPECT_THROW(proportional_shares(8.0, fp), std::invalid_argument);
}

TEST(Cache, CoverageBounds) {
    EXPECT_DOUBLE_EQ(coverage(32.0, 16.0), 1.0);  // fits fully
    EXPECT_DOUBLE_EQ(coverage(16.0, 32.0), 0.5);
    EXPECT_DOUBLE_EQ(coverage(16.0, 0.0), 1.0);  // no footprint
    EXPECT_GT(coverage(0.0, 32.0), 0.0);         // floored, not zero
}

TEST(Cache, MissMultiplierMonotoneInCoverage) {
    const double m_full = miss_multiplier(1.0, 0.85, 3.0);
    const double m_half = miss_multiplier(0.5, 0.85, 3.0);
    const double m_tiny = miss_multiplier(0.05, 0.85, 3.0);
    EXPECT_DOUBLE_EQ(m_full, 1.0);
    EXPECT_GT(m_half, m_full);
    EXPECT_GT(m_tiny, m_half);
    EXPECT_LE(m_tiny, 3.0);  // capped
}

TEST(Cache, SharedMultiplierIndexChecked) {
    const std::vector<double> fp = {1.0, 1.0};
    EXPECT_THROW(shared_cache_miss_multiplier(8.0, fp, 5, 0.85, 3.0), std::out_of_range);
    EXPECT_GE(shared_cache_miss_multiplier(8.0, fp, 0, 0.85, 3.0), 1.0);
}

// ---------- memory system ----------

TEST(Memory, IdleKeepsFactorAtOne) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    mem.end_quantum(0, 10'000);
    EXPECT_DOUBLE_EQ(mem.queue_factor(), 1.0);
}

TEST(Memory, SaturationRaisesAndCapsFactor) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    for (int i = 0; i < 20; ++i)
        mem.end_quantum(static_cast<std::uint64_t>(10'000 * cfg.mem_bw_accesses_per_cycle * 5),
                        10'000);
    EXPECT_GE(mem.queue_factor(), 1.4);
    EXPECT_LE(mem.queue_factor(), cfg.mem_queue_factor_cap);
}

TEST(Memory, ResetRestoresBaseline) {
    SimConfig cfg;
    MemorySystem mem(cfg);
    mem.end_quantum(100'000, 10'000);
    mem.reset();
    EXPECT_DOUBLE_EQ(mem.queue_factor(), 1.0);
}

// ---------- configuration ----------

TEST(Config, TableTwoDefaults) {
    const SimConfig cfg;
    EXPECT_EQ(cfg.dispatch_width, 4);
    EXPECT_EQ(cfg.rob_size, 128);
    EXPECT_EQ(cfg.iq_size, 60);
    EXPECT_EQ(cfg.load_buffer, 64);
    EXPECT_EQ(cfg.store_buffer, 36);
    EXPECT_DOUBLE_EQ(cfg.l1i_kb, 32.0);
    EXPECT_DOUBLE_EQ(cfg.l2_kb, 256.0);
    EXPECT_DOUBLE_EQ(cfg.llc_mb, 28.0);
    EXPECT_EQ(cfg.smt_ways, 2);
}

TEST(Config, RobSharePartitionsByActiveThreads) {
    // The window partitions by *running* threads, not the configured width:
    // a lone thread always gets the full ROB, even in SMT-4 BIOS mode.
    SimConfig cfg;
    EXPECT_EQ(cfg.rob_share(1), 128);
    EXPECT_EQ(cfg.rob_share(2), 64);
    cfg.smt_ways = 4;
    EXPECT_EQ(cfg.rob_share(1), 128);
    EXPECT_EQ(cfg.rob_share(2), 64);
    EXPECT_EQ(cfg.rob_share(3), 42);
    EXPECT_EQ(cfg.rob_share(4), 32);
}

TEST(Config, EnvOverride) {
    ::setenv("SYNPA_QUANTUM_CYCLES", "12345", 1);
    const SimConfig cfg = SimConfig::from_env();
    EXPECT_EQ(cfg.cycles_per_quantum, 12345u);
    ::unsetenv("SYNPA_QUANTUM_CYCLES");
}

TEST(Config, SmtWaysEnvOverrideIsReadVerbatim) {
    // from_env never repairs a value: an out-of-range width is rejected,
    // not clamped to a valid one.
    ::setenv("SYNPA_SMT_WAYS", "4", 1);
    EXPECT_EQ(SimConfig::from_env().smt_ways, 4);
    ::setenv("SYNPA_SMT_WAYS", "9", 1);
    EXPECT_THROW(SimConfig::from_env(), std::invalid_argument);
    ::unsetenv("SYNPA_SMT_WAYS");
}

/// Reading `knob=value` from the environment must fail with a message
/// naming the knob, before any platform is built from it.
void expect_env_rejected(const char* knob, const char* value) {
    ::setenv(knob, value, 1);
    try {
        SimConfig::from_env();
        ADD_FAILURE() << knob << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
    }
    ::unsetenv(knob);
}

TEST(ConfigValidation, RejectsZeroCores) { expect_env_rejected("SYNPA_CORES", "0"); }

TEST(ConfigValidation, RejectsNegativeCores) { expect_env_rejected("SYNPA_CORES", "-2"); }

TEST(ConfigValidation, RejectsZeroQuantumCycles) {
    expect_env_rejected("SYNPA_QUANTUM_CYCLES", "0");
}

TEST(ConfigValidation, RejectsSmtWaysThree) { expect_env_rejected("SYNPA_SMT_WAYS", "3"); }

TEST(ConfigValidation, RejectsSmtWaysNine) { expect_env_rejected("SYNPA_SMT_WAYS", "9"); }

TEST(ConfigValidation, RejectsEveryOtherOutOfRangeKnob) {
    const std::vector<std::pair<const char*, const char*>> bad = {
        {"SYNPA_NUM_CHIPS", "0"},           {"SYNPA_SIM_THREADS", "0"},
        {"SYNPA_QUANTUM_CYCLES", "-1"},     {"SYNPA_SMT_WAYS", "0"},
        {"SYNPA_XCHIP_WARMUP_QUANTA", "-1"}, {"SYNPA_XCHIP_MISS_MULT", "0.5"},
        {"SYNPA_MEM_LATENCY", "-50"},       {"SYNPA_LLC_LATENCY", "-1"},
        {"SYNPA_L2_LATENCY", "-1"},         {"SYNPA_MEM_BW", "0"},
        {"SYNPA_CACHE_PRESSURE_EXP", "-1"}, {"SYNPA_WARMUP_INSTS", "-1"},
        {"SYNPA_MSHR_CAP", "-1"},           {"SYNPA_SIM_THREADS", "257"},
        // Past the int range: would wrap to 2 and 1 if narrowed before the check.
        {"SYNPA_SIM_THREADS", "4294967298"}, {"SYNPA_CORES", "4294967297"},
    };
    for (const auto& [knob, value] : bad) expect_env_rejected(knob, value);
}

TEST(ConfigValidation, ChipValidatesToo) {
    // A chip built on its own checks its config as the platform does.
    SimConfig cfg;
    cfg.cores = 0;
    EXPECT_THROW(Chip chip(cfg), std::invalid_argument);
    EXPECT_NO_THROW(SimConfig().validate());
}

TEST(ConfigValidation, PlatformValidatesProgrammaticConfig) {
    // A config built in code never passes through from_env().  With no
    // chip to build, only the platform's own check can reject it.
    const auto expect_rejected = [](const SimConfig& cfg, const char* knob) {
        try {
            Platform platform(cfg);
            ADD_FAILURE() << knob << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
        }
    };
    SimConfig cfg;
    cfg.num_chips = 0;
    expect_rejected(cfg, "SYNPA_NUM_CHIPS");
    cfg.num_chips = -3;
    expect_rejected(cfg, "SYNPA_NUM_CHIPS");
    cfg = SimConfig();
    cfg.cycles_per_quantum = 0;
    expect_rejected(cfg, "SYNPA_QUANTUM_CYCLES");
}

TEST(Config, FingerprintSensitivity) {
    SimConfig a, b;
    EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
    b.mem_latency += 1;
    EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
    b = a;
    b.cycles_per_quantum += 1;
    EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
}

// ---------- chip (driven through one-chip platforms) ----------

/// One chip of `cores` cores: the platform shape the trainer runs.
SimConfig small_config(int cores = 1) {
    SimConfig cfg;
    cfg.cores = cores;
    cfg.cycles_per_quantum = 5'000;
    return cfg;
}

TEST(PlatformTest, BindUnbindLifecycle) {
    Platform chip(small_config());
    apps::AppInstance t(1, apps::find_app("mcf"), 1);
    chip.bind(t, {.core = 0, .slot = 0});
    EXPECT_TRUE(chip.is_bound(1));
    EXPECT_EQ(chip.placement(1), (CpuSlot{.core = 0, .slot = 0}));
    EXPECT_EQ(chip.bound_tasks().size(), 1u);
    EXPECT_EQ(chip.core(0).slot(0).task(), &t);
    chip.unbind(1);
    EXPECT_FALSE(chip.is_bound(1));
    EXPECT_THROW(chip.placement(1), std::logic_error);
    EXPECT_FALSE(chip.core(0).slot(0).bound());
    EXPECT_EQ(chip.bound_tasks().size(), 0u);
    chip.bind(t, {.core = 0, .slot = 1});  // known but unbound: binds again
    EXPECT_EQ(chip.placement(1), (CpuSlot{.core = 0, .slot = 1}));
    chip.unbind(1);
    chip.forget_task(1);
    EXPECT_FALSE(chip.is_bound(1));
    EXPECT_THROW(chip.unbind(1), std::logic_error);
}

TEST(Chip, SmtWidthBoundsSlots) {
    // SMT-2 chips reject slot 2; SMT-4 chips accept four threads per core
    // and report them all as co-runners of each other.
    Platform narrow(small_config());
    apps::AppInstance n1(1, apps::find_app("mcf"), 1);
    EXPECT_THROW(narrow.bind(n1, {.core = 0, .slot = 2}), std::out_of_range);

    SimConfig cfg = small_config();
    cfg.smt_ways = 4;
    Platform wide(cfg);
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
    const std::vector<std::string> names = {"mcf", "lbm_r", "leela_r", "nab_r"};
    for (int s = 0; s < 4; ++s) {
        tasks.push_back(
            std::make_unique<apps::AppInstance>(s + 1, apps::find_app(names[(std::size_t)s]),
                                                static_cast<std::uint64_t>(s + 1)));
        wide.bind(*tasks.back(), {.core = 0, .slot = s});
    }
    EXPECT_EQ(wide.core(0).active_threads(), 4);
    EXPECT_TRUE(wide.core(0).smt_active());
    wide.run_quantum();  // all four threads must make progress
    for (const auto& t : tasks) EXPECT_GT(t->insts_retired(), 0u);
}

TEST(PlatformTest, BindErrors) {
    Platform chip(small_config());
    apps::AppInstance a(1, apps::find_app("mcf"), 1);
    apps::AppInstance b(2, apps::find_app("lbm_r"), 2);
    EXPECT_THROW(chip.bind(a, {.core = 5, .slot = 0}), std::out_of_range);
    EXPECT_THROW(chip.bind(a, {.core = -1, .slot = 0}), std::out_of_range);
    EXPECT_THROW(chip.bind(a, {.core = 0, .slot = -1}), std::out_of_range);
    chip.bind(a, {.core = 0, .slot = 0});
    EXPECT_THROW(chip.bind(a, {.core = 0, .slot = 1}), std::logic_error);  // double bind
    EXPECT_THROW(chip.bind(b, {.core = 0, .slot = 0}), std::logic_error);  // occupied
    EXPECT_THROW(chip.unbind(99), std::logic_error);
    EXPECT_EQ(chip.placement(1), (CpuSlot{.core = 0, .slot = 0}));  // errors left no trace
    EXPECT_FALSE(chip.is_bound(2));
    validate_platform(chip);
}

TEST(Chip, CycleAccountingIdentity) {
    // CPU_CYCLES must exactly equal full-dispatch + frontend + backend after
    // the three-step characterization, for any application.
    for (const char* app : {"mcf", "leela_r", "nab_r", "perlbench"}) {
        Platform chip(small_config());
        apps::AppInstance t(1, apps::find_app(app), 7);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 5; ++q) chip.run_quantum();
        const auto b = model::characterize(t.counters(), 4);
        const double sum = b.categories[0] + b.categories[1] + b.categories[2];
        EXPECT_NEAR(sum, static_cast<double>(b.cycles), 1e-6) << app;
        EXPECT_EQ(b.cycles, chip.config().cycles_per_quantum * 5);
    }
}

TEST(Chip, DeterministicAcrossRuns) {
    auto run = [] {
        Platform chip(small_config());
        apps::AppInstance t(1, apps::find_app("leela_r"), 99);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 4; ++q) chip.run_quantum();
        return t.counters();
    };
    const auto a = run();
    const auto b = run();
    for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
        const auto e = static_cast<pmu::Event>(i);
        EXPECT_EQ(a.value(e), b.value(e)) << pmu::event_name(e);
    }
}

TEST(Chip, SmtSlowsBothThreadsDown) {
    // Any co-runner must cost some throughput vs isolated execution.
    auto isolated_ipc = [](const char* app) {
        Platform chip(small_config());
        apps::AppInstance t(1, apps::find_app(app), 5);
        chip.bind(t, {.core = 0, .slot = 0});
        for (int q = 0; q < 6; ++q) chip.run_quantum();
        return model::characterize(t.counters(), 4).ipc();
    };
    Platform chip(small_config());
    apps::AppInstance a(1, apps::find_app("mcf"), 5);
    apps::AppInstance b(2, apps::find_app("milc"), 6);
    chip.bind(a, {.core = 0, .slot = 0});
    chip.bind(b, {.core = 0, .slot = 1});
    for (int q = 0; q < 6; ++q) chip.run_quantum();
    EXPECT_LT(model::characterize(a.counters(), 4).ipc(), isolated_ipc("mcf"));
    EXPECT_LT(model::characterize(b.counters(), 4).ipc(), isolated_ipc("milc"));
}

TEST(PlatformTest, MigrationTriggersWarmup) {
    Platform chip(small_config(2));
    apps::AppInstance t(1, apps::find_app("mcf"), 5);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.unbind(1);
    chip.bind(t, {.core = 1, .slot = 0});  // different core -> cold caches
    EXPECT_GT(t.warmup_multiplier(), 1.0);
}

TEST(PlatformTest, SameCoreRebindIsFree) {
    Platform chip(small_config(2));
    apps::AppInstance t(1, apps::find_app("mcf"), 5);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.unbind(1);
    chip.bind(t, {.core = 0, .slot = 1});  // same core, other SMT slot
    EXPECT_DOUBLE_EQ(t.warmup_multiplier(), 1.0);
}

TEST(Chip, FrontendPairContention) {
    // Two frontend-hungry applications sharing the fetch port must stall
    // more on the frontend than one of them does next to a mostly-stalled
    // memory-bound thread.
    auto frontend_fraction = [](const char* partner) {
        SimConfig cfg = small_config();
        Platform chip(cfg);
        apps::AppInstance a(1, apps::find_app("gobmk"), 3);
        apps::AppInstance b(2, apps::find_app(partner), 4);
        chip.bind(a, {.core = 0, .slot = 0});
        chip.bind(b, {.core = 0, .slot = 1});
        for (int q = 0; q < 8; ++q) chip.run_quantum();
        return model::characterize(a.counters(), 4).fractions()[1];
    };
    EXPECT_GT(frontend_fraction("gobmk"), frontend_fraction("mcf"));
}

TEST(Chip, QuantaAndCyclesAdvance) {
    Platform chip(small_config());
    apps::AppInstance t(1, apps::find_app("nab_r"), 1);
    chip.bind(t, {.core = 0, .slot = 0});
    chip.run_quantum();
    chip.run_quantum();
    EXPECT_EQ(chip.quanta_elapsed(), 2u);
    EXPECT_EQ(chip.now(), 2 * chip.config().cycles_per_quantum);
}

// ---------- SmtCore::run vs repeated tick ----------

/// One core plus the tasks bound to it (each copy owns its instances).
struct CoreUnderTest {
    explicit CoreUnderTest(const SimConfig& cfg) : core(cfg) {}
    SmtCore core;
    std::vector<std::unique_ptr<apps::AppInstance>> tasks;
};

/// Compares every public slot field, every counter, the retired count and
/// the next draw of both event RNG streams (consuming one draw on each side).
void expect_same_core(CoreUnderTest& a, CoreUnderTest& b, const std::string& where) {
    for (int s = 0; s < kMaxSmtWays; ++s) {
        ThreadContext& x = a.core.slot(s);
        ThreadContext& y = b.core.slot(s);
        const std::string at = where + " slot " + std::to_string(s);
        ASSERT_EQ(x.bound(), y.bound()) << at;
        EXPECT_EQ(x.fetch_buffer, y.fetch_buffer) << at;
        EXPECT_EQ(x.fe_stall, y.fe_stall) << at;
        EXPECT_EQ(x.be_stall, y.be_stall) << at;
        EXPECT_EQ(x.dram_stall, y.dram_stall) << at;
        EXPECT_EQ(x.insts_until_fe, y.insts_until_fe) << at;
        EXPECT_EQ(x.insts_until_be, y.insts_until_be) << at;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x.dispatch_credit),
                  std::bit_cast<std::uint64_t>(y.dispatch_credit))
            << at;
        if (!x.bound()) continue;
        for (std::size_t i = 0; i < pmu::kEventCount; ++i) {
            const auto e = static_cast<pmu::Event>(i);
            EXPECT_EQ(x.task()->counters().value(e), y.task()->counters().value(e))
                << at << " " << pmu::event_name(e);
        }
        EXPECT_EQ(x.task()->insts_retired(), y.task()->insts_retired()) << at;
        EXPECT_EQ(x.task()->fe_rng()(), y.task()->fe_rng()()) << at;
        EXPECT_EQ(x.task()->be_rng()(), y.task()->be_rng()()) << at;
    }
}

/// Appends what expect_same_core compares, plus cycle_counts(), to `sig`
/// (consuming one draw of each bound task's event RNG streams).
void append_end_state(CoreUnderTest& side, std::string& sig) {
    const auto put = [&sig](char sep, std::uint64_t v) {
        sig += sep;
        sig += std::to_string(v);
    };
    put(';', side.core.cycle_counts().ticked);
    put('/', side.core.cycle_counts().skipped);
    for (int s = 0; s < kMaxSmtWays; ++s) {
        ThreadContext& t = side.core.slot(s);
        put('|', t.bound());
        for (const std::int64_t v : {std::int64_t{t.fetch_buffer}, std::int64_t{t.fe_stall},
                                     std::int64_t{t.be_stall}, std::int64_t{t.dram_stall},
                                     t.insts_until_fe, t.insts_until_be})
            put(':', static_cast<std::uint64_t>(v));
        put(':', testsig::bits(t.dispatch_credit));
        if (!t.bound()) continue;
        for (std::size_t i = 0; i < pmu::kEventCount; ++i)
            put(',', t.task()->counters().value(static_cast<pmu::Event>(i)));
        put(',', t.task()->insts_retired());
        put(',', t.task()->fe_rng()());
        put(',', t.task()->be_rng()());
    }
}

/// Cases 0-547 of the run()/tick() fuzz (see RunEqualsRepeatedTick), then
/// 548-559: SMT-4 cores with exactly 2, 3 and 4 bound slots, four of each.
constexpr std::uint64_t kFuzzCases = 560;

/// One fuzz case, drawn from its case number: a one-core configuration,
/// the tasks with the slot each binds to (a co-runner, if any, last), the
/// rates each runs at and the chunk lengths.
struct FuzzCase {
    struct Task {
        const apps::AppProfile* app;
        std::uint64_t seed, warmup;
        double warmup_mult;
        int slot;
        EffectiveRates rates;
    };
    SimConfig cfg;
    std::vector<Task> tasks;
    bool co_runner = false;  ///< the last task binds for chunks 1-2, 4-5, ...
    std::vector<std::uint64_t> chunks;
    std::string name;
};

FuzzCase make_fuzz_case(std::uint64_t c) {
    const std::vector<apps::AppProfile>& suite = apps::spec_suite();
    common::Rng rng(0x5a1f, c);
    FuzzCase fc;
    SimConfig& cfg = fc.cfg;
    cfg.cores = 1;
    const bool solo = c >= 500 && c < 548;
    const std::uint64_t pick = solo ? (c - 500) % 6 : 0;  // SMT-2 slots 0-1, SMT-4 0-3
    const int solo_slot = static_cast<int>(pick < 2 ? pick : pick - 2);
    cfg.smt_ways = solo ? (pick < 2 ? 2 : 4)
                   : c == 1 || c >= 548 ? 4
                                        : std::array{1, 2, 4}[rng.below(3)];
    cfg.cycles_per_quantum = 1;

    std::vector<int> bound;
    int late = -1;
    if (solo) {
        bound = {solo_slot};
        late = static_cast<int>((static_cast<std::uint64_t>(solo_slot) + 1 +
                                 rng.below(static_cast<std::uint64_t>(cfg.smt_ways) - 1)) %
                                static_cast<std::uint64_t>(cfg.smt_ways));
    } else if (c >= 548) {
        bound = {0, 1, 2, 3};
        const std::size_t keep = 2 + (c - 548) % 3;
        while (bound.size() > keep)
            bound.erase(bound.begin() + static_cast<std::ptrdiff_t>(rng.below(bound.size())));
    } else if (c == 1) {
        bound = {static_cast<int>(rng.below(4))};  // one thread on SMT-4
    } else if (c != 0) {  // case 0: an empty core
        for (int s = 0; s < cfg.smt_ways; ++s)
            if (rng.chance(0.75)) bound.push_back(s);
    }
    const int zero_demand = c % 7 == 3 && !bound.empty() ? bound[rng.below(bound.size())] : -1;

    // Rates come from a one-cycle chip quantum over a separate set of
    // identical instances.
    Platform probe(cfg);
    std::vector<std::unique_ptr<apps::AppInstance>> probe_tasks;
    std::vector<int> probed = bound;
    if (late >= 0) probed.push_back(late);
    for (const int s : probed) {
        FuzzCase::Task task{.app = &suite[rng.below(suite.size())],
                            .seed = rng(),
                            .warmup = rng.chance(0.3) ? rng.below(20'000) : 0,
                            .warmup_mult = rng.uniform(1.0, 3.0),
                            .slot = s,
                            .rates = {}};
        probe_tasks.push_back(std::make_unique<apps::AppInstance>(s + 1, *task.app, task.seed));
        if (task.warmup > 0) probe_tasks.back()->start_warmup(task.warmup, task.warmup_mult);
        probe.bind(*probe_tasks.back(), {.core = 0, .slot = s});
        fc.tasks.push_back(task);
    }
    probe.run_quantum();
    for (FuzzCase::Task& task : fc.tasks) {
        task.rates = probe.core(0).slot(task.slot).rates;
        if (task.slot == zero_demand) task.rates.dispatch_demand = 0.0;
    }
    fc.co_runner = late >= 0;

    const int chunks = (solo ? 7 : 1) + static_cast<int>(rng.below(8));
    for (int k = 0; k < chunks; ++k) {
        const bool between_co_runs = fc.co_runner && k % 3 == 0 && k > 0;
        fc.chunks.push_back(1 + rng.below(between_co_runs && rng.chance(0.5) ? 2 : 5'000));
    }
    fc.name = "case " + std::to_string(c) + " ways " + std::to_string(cfg.smt_ways);
    return fc;
}

/// Creates the case's tasks on `side` and binds all but the co-runner.
void start_fuzz_case(const FuzzCase& fc, CoreUnderTest& side) {
    for (std::size_t i = 0; i < fc.tasks.size(); ++i) {
        const FuzzCase::Task& task = fc.tasks[i];
        side.tasks.push_back(
            std::make_unique<apps::AppInstance>(task.slot + 1, *task.app, task.seed));
        if (task.warmup > 0) side.tasks.back()->start_warmup(task.warmup, task.warmup_mult);
        if (fc.co_runner && i + 1 == fc.tasks.size()) continue;
        side.core.slot(task.slot).bind(side.tasks.back().get());
        side.core.slot(task.slot).rates = task.rates;
    }
}

/// Binds or unbinds the co-runner as chunk `k` requires.
void before_fuzz_chunk(const FuzzCase& fc, std::size_t k, CoreUnderTest& side) {
    if (!fc.co_runner) return;
    const FuzzCase::Task& task = fc.tasks.back();
    ThreadContext& t = side.core.slot(task.slot);
    if (k % 3 == 1) {
        t.bind(side.tasks.back().get());
        t.rates = task.rates;
    } else if (k % 3 == 0 && k > 0) {
        t.unbind();
    }
}

TEST(SmtCore, RunEqualsRepeatedTick) {
    // Differential fuzz of run(): run(n) on one copy against n tick() calls
    // on another, over widths, occupancies, apps, warmup windows and chunk
    // lengths.  Cases 500-547 put one thread on each slot of an SMT-2 and
    // an SMT-4 core (eight times over), where run() takes the width-1 loop,
    // and bind a co-runner in another slot for two chunks of every three:
    // the fetch and dispatch rotators the width-1 loop catches up are
    // private, and only a co-run shows them.  Half of the solo chunks
    // between two co-runs last 1-2 cycles, so some run() calls never fetch.
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    std::uint64_t jumped = 0;
    for (std::uint64_t c = 0; c < kFuzzCases; ++c) {
        const FuzzCase fc = make_fuzz_case(c);
        CoreUnderTest chunked(fc.cfg);
        CoreUnderTest stepped(fc.cfg);
        start_fuzz_case(fc, chunked);
        start_fuzz_case(fc, stepped);
        for (std::size_t k = 0; k < fc.chunks.size(); ++k) {
            before_fuzz_chunk(fc, k, chunked);
            before_fuzz_chunk(fc, k, stepped);
            const std::uint64_t n = fc.chunks[k];
            std::uint64_t want = 0;
            for (std::uint64_t i = 0; i < n; ++i) want += stepped.core.tick();
            ASSERT_EQ(chunked.core.run(n), want) << fc.name << " chunk " << k;
            expect_same_core(chunked, stepped, fc.name + " chunk " + std::to_string(k));
            if (::testing::Test::HasFailure()) return;
        }
        // Hidden state (fetch and dispatch rotation, the ICache miss port)
        // shows up as divergence once both copies tick on.
        for (int i = 0; i < 1'000; ++i)
            ASSERT_EQ(chunked.core.tick(), stepped.core.tick()) << fc.name << " tail " << i;
        expect_same_core(chunked, stepped, fc.name + " tail");
        if (::testing::Test::HasFailure()) return;
        ticked += chunked.core.cycle_counts().ticked;
        skipped += chunked.core.cycle_counts().skipped;
        jumped += chunked.core.cycle_counts().jumped;
    }
    // The fuzz must actually exercise every path: stepped busy cycles, idle
    // stretches and steady stretches.
    EXPECT_GT(ticked, skipped / 4);
    EXPECT_GT(skipped, ticked / 4);
    EXPECT_LE(jumped, ticked);
    EXPECT_GT(jumped, ticked / 10);
}

/// Fetched and granted instructions of a lone lane over `cycles` busy
/// cycles with no event, stepped one cycle at a time the way the core's
/// busy cycle does: the reference the steady-stretch rows aim their event
/// distances with.
struct LoneLaneTotals {
    std::int64_t fetched = 0;
    std::int64_t granted = 0;
};
LoneLaneTotals lone_lane_totals(const SimConfig& cfg, int buffer, int fe_stall, double credit,
                                double demand, int cycles) {
    LoneLaneTotals t;
    for (int i = 0; i < cycles; ++i) {
        if (fe_stall > 0) --fe_stall;
        const int fetch =
            fe_stall > 0 ? 0 : std::min(cfg.fetch_width, cfg.fetch_buffer_entries - buffer);
        buffer += fetch;
        t.fetched += fetch;
        credit = std::min(credit + demand, 2.0 * cfg.dispatch_width);
        const int g = std::min({static_cast<int>(credit), buffer, cfg.dispatch_width});
        credit -= g;
        buffer -= g;
        t.granted += g;
    }
    return t;
}

TEST(SmtCore, SteadyStretchEqualsStepping) {
    // run() applies a lone busy lane's steady stretch (no backend stall,
    // demand in [2, 3] or (3, 4), credit below 1) in one step.  Each row
    // sets slot 0's public state directly, then compares run() with
    // stepping, on one core at widths 1, 2 and 4, and checks how many
    // cycles were applied as stretches.  A boundary row aims an event at
    // the cycle after n cycles and runs up to it: the n cycles, less any
    // first cycles outside the class, are jumped and the event cycle is
    // stepped.  kFetch and kDispatch put the event distance one fetch or
    // one instruction past the n cycles; kGrant puts it exactly at the
    // grants of n + 1 cycles; kLastGrant (d in [2, 3]) picks the credit so
    // that (n + 1) d + c lands exactly on the dispatch event distance,
    // where the double estimate of the stretch length may round either way.
    // With d in (3, 4), a sum c + d from 4 up is 4 + X units of 2^-51 and
    // rounds to even units of 2 when X is odd: X = 1 mod 4 rounds down,
    // X = 3 mod 4 up.
    enum class Edge { kNone, kFetch, kDispatch, kGrant, kLastGrant };
    enum class CoRunner { kNone, kBeStall1, kBeStall500, kEmptyUnderFrontendStall };
    constexpr double kTopCredit = 1.0 - 0x1p-51;
    constexpr double kJustAbove3 = 3.0 + 0x1p-51;
    const double kJustBelow4 = std::nextafter(4.0, 0.0);
    constexpr int kE = -1;         ///< buffer: full
    constexpr int kEMinusFw = -2;  ///< buffer: one fetch group short of full
    struct Row {
        const char* name;
        double demand;
        double credit;
        int buffer;
        Edge edge;
        int edge_cycles;  ///< n for a boundary row
        CoRunner co;
        std::uint64_t cycles;  ///< run() length when no boundary is aimed
        std::uint64_t jumped;  ///< at least this many; exactly this many on a boundary row
        int fe_stall = 0;
    };
    const Row rows[] = {
        {"d 2.0", 2.0, 0.0, 0, Edge::kNone, 0, CoRunner::kNone, 3'000, 1},
        {"d 2.2 buffer E-fw", 2.2, 0.0, kEMinusFw, Edge::kNone, 0, CoRunner::kNone, 3'000, 1},
        {"d 2.5 top credit buffer E", 2.5, kTopCredit, kE, Edge::kNone, 0, CoRunner::kNone,
         3'000, 1},
        {"d 3.0 top credit", 3.0, kTopCredit, 0, Edge::kNone, 0, CoRunner::kNone, 3'000, 1},
        {"d 3.1", 3.1, 0.0, 0, Edge::kNone, 0, CoRunner::kNone, 3'000, 1},
        {"d 3.5 buffer E-fw", 3.5, 0.0, kEMinusFw, Edge::kNone, 0, CoRunner::kNone, 3'000, 1},
        {"d 3 + 2^-51 top credit buffer E", kJustAbove3, kTopCredit, kE, Edge::kNone, 0,
         CoRunner::kNone, 3'000, 1},
        {"d below 4 top credit", kJustBelow4, kTopCredit, 0, Edge::kNone, 0, CoRunner::kNone,
         3'000, 1},
        // The first cycle's sum is 4 + X units.
        {"d 3.5 carry X 1 mod 4", 3.5, 0.5 + 0x1p-51, 0, Edge::kGrant, 3, CoRunner::kNone, 0, 3},
        {"d 3.5 carry X 3 mod 4", 3.5, 0.5 + 0x3p-51, 0, Edge::kGrant, 3, CoRunner::kNone, 0, 3},
        {"d below 4 carry X 2^51 - 3", kJustBelow4, 1.0 - 0x2p-51, kE, Edge::kGrant, 1,
         CoRunner::kNone, 0, 1},
        {"d 3.1 carry X 3 mod 4", 3.1, (4.0 - 3.1) + 0x3p-51, 0, Edge::kGrant, 50,
         CoRunner::kNone, 0, 50},
        // Outside the class for the first cycle, so one cycle short: a
        // credit of 1 (here the only fetch is the event's), a credit finer
        // than 2^-51 that the first sum rounds up, a buffer draining under
        // a frontend stall.  A frontend stall of 1 ends in the first cycle.
        {"fetch edge credit 1 buffer E", 3.0, 1.0, kE, Edge::kFetch, 1, CoRunner::kNone, 0, 0},
        {"dispatch edge credit finer than the unit", 2.5, 0.25 + 0x1.8p-52, 0, Edge::kDispatch,
         20, CoRunner::kNone, 0, 19},
        {"dispatch edge frontend stall 2", 2.5, 0.0, 10, Edge::kDispatch, 8, CoRunner::kNone, 0,
         7, 2},
        {"dispatch edge frontend stall 1", 2.5, 0.0, 10, Edge::kDispatch, 8, CoRunner::kNone, 0,
         8, 1},
        {"frontend stall 1, all jumped", 2.5, 0.0, 10, Edge::kNone, 0, CoRunner::kNone, 5, 5, 1},
        {"dispatch edge d 2.5", 2.5, 0.25, 0, Edge::kDispatch, 40, CoRunner::kNone, 0, 40},
        {"dispatch edge d 3.0 buffer E", 3.0, kTopCredit, kE, Edge::kDispatch, 97,
         CoRunner::kNone, 0, 97},
        // The double estimate of these stretches rounds one cycle long.
        {"last grant d 2.2", 2.2, 0.0, 0, Edge::kLastGrant, 62, CoRunner::kNone, 0, 62},
        {"last grant d 2.7", 2.7, 0.0, 0, Edge::kLastGrant, 2, CoRunner::kNone, 0, 2},
        {"last grant d 2.35", 2.35, 0.0, 0, Edge::kLastGrant, 30, CoRunner::kNone, 0, 30},
        {"last grant d 2.2 later", 2.2, 0.0, 0, Edge::kLastGrant, 1'201, CoRunner::kNone, 0,
         1'201},
        {"fetch edge d 2.2", 2.2, 0.0, 0, Edge::kFetch, 9, CoRunner::kNone, 0, 9},
        {"fetch edge d 2.0 buffer E-fw", 2.0, kTopCredit, kEMinusFw, Edge::kFetch, 2,
         CoRunner::kNone, 0, 2},
        {"last grant d 3.1", 3.1, 0.0, 0, Edge::kGrant, 45, CoRunner::kNone, 0, 45},
        {"last grant d 3.1 later", 3.1, 0.25, 0, Edge::kGrant, 1'203, CoRunner::kNone, 0,
         1'203},
        {"last grant d 3.5", 3.5, 0.0, 0, Edge::kGrant, 20, CoRunner::kNone, 0, 20},
        {"last grant d 3 + 2^-51", kJustAbove3, kTopCredit, 0, Edge::kGrant, 30, CoRunner::kNone,
         0, 30},
        {"last grant d below 4", kJustBelow4, 0.0, kE, Edge::kGrant, 17, CoRunner::kNone, 0, 17},
        {"dispatch edge d 3.1", 3.1, 0.5, 0, Edge::kDispatch, 33, CoRunner::kNone, 0, 33},
        {"fetch edge d 3.1", 3.1, 0.0, 0, Edge::kFetch, 9, CoRunner::kNone, 0, 9},
        {"fetch edge d 3.5 buffer E", 3.5, kTopCredit, kE, Edge::kFetch, 40, CoRunner::kNone, 0,
         40},
        {"fetch edge d below 4 buffer E-fw", kJustBelow4, 0.0, kEMinusFw, Edge::kFetch, 2,
         CoRunner::kNone, 0, 2},
        {"fetch edge d 3 + 2^-51", kJustAbove3, 0.0, 0, Edge::kFetch, 300, CoRunner::kNone, 0,
         300},
        {"dispatch edge d 3.1 frontend stall 1", 3.1, 0.0, 10, Edge::kDispatch, 8,
         CoRunner::kNone, 0, 8, 1},
        {"dispatch edge d 3.5 frontend stall 2", 3.5, 0.0, 10, Edge::kDispatch, 8,
         CoRunner::kNone, 0, 7, 2},
        {"co-runner be_stall 1", 2.5, 0.0, 0, Edge::kNone, 0, CoRunner::kBeStall1, 3'000, 1},
        {"co-runner be_stall 500", 2.2, 0.0, 0, Edge::kNone, 0, CoRunner::kBeStall500, 3'000,
         500},
        {"co-runner empty under fe stall", 3.0, 0.0, kE, Edge::kNone, 0,
         CoRunner::kEmptyUnderFrontendStall, 3'000, 299},
        {"co-runner be_stall 1 d 3.1", 3.1, 0.0, 0, Edge::kNone, 0, CoRunner::kBeStall1, 3'000,
         1},
        {"co-runner be_stall 500 d 3.5", 3.5, 0.0, 0, Edge::kNone, 0, CoRunner::kBeStall500,
         3'000, 500},
        {"co-runner empty under fe stall d below 4", kJustBelow4, 0.0, kE, Edge::kNone, 0,
         CoRunner::kEmptyUnderFrontendStall, 3'000, 299},
        {"longer than the cap", 2.5, 0.0, 0, Edge::kNone, 0, CoRunner::kNone, 20'000, 4 * 4'096},
        // The cap cuts every stretch of d = 3 + 2^-51: it carries once in
        // 2^51 cycles.
        {"longer than the cap d 3 + 2^-51", kJustAbove3, 0.0, 0, Edge::kNone, 0,
         CoRunner::kNone, 20'000, 4 * 4'096},
        {"longer than the cap d 3.1", 3.1, 0.0, 0, Edge::kNone, 0, CoRunner::kNone, 20'000,
         4 * 4'096},
    };
    constexpr std::int64_t kFar = 1'000'000'000;  ///< an event distance no row reaches
    for (const int ways : {1, 2, 4}) {
        SimConfig cfg;
        cfg.cores = 1;
        cfg.smt_ways = ways;
        for (const Row& row : rows) {
            if (row.co != CoRunner::kNone && ways == 1) continue;
            const std::string at = std::string(row.name) + " ways " + std::to_string(ways);
            const int e = cfg.fetch_buffer_entries;
            const int buffer = row.buffer == kE          ? e
                               : row.buffer == kEMinusFw ? e - cfg.fetch_width
                                                         : row.buffer;
            std::int64_t until_fe = row.cycles > 10'000 ? kFar : 1'500;
            std::int64_t until_be = row.cycles > 10'000 ? kFar : 1'200;
            std::uint64_t cycles = row.cycles;
            double credit = row.credit;
            if (row.edge == Edge::kLastGrant) {
                // In units of 2^-51: (n + 1) d + c == until_be, c in [0, 1).
                constexpr std::uint64_t kOne = std::uint64_t{1} << 51;
                const std::uint64_t nd = static_cast<std::uint64_t>(row.edge_cycles + 1) *
                                         static_cast<std::uint64_t>(row.demand * 0x1p51);
                const std::uint64_t c_units = (kOne - nd % kOne) % kOne;
                credit = static_cast<double>(c_units) * 0x1p-51;
                until_fe = kFar;
                until_be = static_cast<std::int64_t>((nd + c_units) / kOne);
                cycles = static_cast<std::uint64_t>(row.edge_cycles) + 1;
            } else if (row.edge != Edge::kNone) {
                const int n = row.edge_cycles;
                const LoneLaneTotals at_n =
                    lone_lane_totals(cfg, buffer, row.fe_stall, row.credit, row.demand, n);
                if (row.edge == Edge::kGrant) {
                    until_fe = kFar;
                    until_be = lone_lane_totals(cfg, buffer, row.fe_stall, row.credit, row.demand,
                                                n + 1)
                                   .granted;
                    ASSERT_GT(until_be, at_n.granted) << at << ": cycle n + 1 must grant";
                } else if (row.edge == Edge::kFetch) {
                    ASSERT_GT(lone_lane_totals(cfg, buffer, row.fe_stall, row.credit, row.demand,
                                               n + 1)
                                  .fetched,
                              at_n.fetched)
                        << at << ": cycle n + 1 must fetch";
                    until_fe = at_n.fetched;
                    until_be = kFar;
                } else {
                    until_fe = kFar;
                    until_be = at_n.granted + 1;
                }
                cycles = static_cast<std::uint64_t>(n) + 1;
            }
            CoreUnderTest chunked(cfg);
            CoreUnderTest stepped(cfg);
            for (CoreUnderTest* side : {&chunked, &stepped}) {
                for (int s = 0; s < 2; ++s)
                    side->tasks.push_back(
                        std::make_unique<apps::AppInstance>(s + 1, apps::find_app("mcf"), 11));
                ThreadContext& t = side->core.slot(0);
                t.bind(side->tasks[0].get());
                t.rates = EffectiveRates{.p_branch = 0.004, .p_icache = 0.002,
                                         .p_episode = 0.003, .dispatch_demand = row.demand};
                t.fetch_buffer = buffer;
                t.fe_stall = row.fe_stall;
                t.insts_until_fe = until_fe;
                t.insts_until_be = until_be;
                t.dispatch_credit = credit;
                if (row.co == CoRunner::kNone) continue;
                ThreadContext& o = side->core.slot(ways - 1);
                o.bind(side->tasks[1].get());
                o.rates = EffectiveRates{.p_branch = 0.01, .p_icache = 0.004,
                                         .p_episode = 0.02, .dispatch_demand = 1.7};
                if (row.co == CoRunner::kEmptyUnderFrontendStall) {
                    o.fe_stall = 300;
                } else {
                    o.fetch_buffer = cfg.fetch_buffer_entries;
                    o.be_stall = row.co == CoRunner::kBeStall1 ? 1 : 500;
                    o.dram_stall = true;
                }
            }
            std::uint64_t want = 0;
            for (std::uint64_t i = 0; i < cycles; ++i) want += stepped.core.tick();
            ASSERT_EQ(chunked.core.run(cycles), want) << at;
            expect_same_core(chunked, stepped, at);
            const CycleCounts n = chunked.core.cycle_counts();
            EXPECT_EQ(n.ticked + n.skipped, cycles) << at;
            EXPECT_LE(n.jumped, n.ticked) << at;
            if (row.edge != Edge::kNone)
                EXPECT_EQ(n.jumped, row.jumped) << at;
            else if (row.jumped == 0)
                EXPECT_EQ(n.jumped, 0u) << at;
            else
                EXPECT_GE(n.jumped, row.jumped) << at;
            // Hidden state (the rotators, the ICache port) shows up once
            // both copies step on.
            for (int i = 0; i < 1'000; ++i)
                ASSERT_EQ(chunked.core.tick(), stepped.core.tick()) << at << " tail " << i;
            expect_same_core(chunked, stepped, at + " tail");
            if (::testing::Test::HasFailure()) return;
        }
    }
}

TEST(SmtCore, NarrowCoreStepsSteadyLanes) {
    // The steady stretch assumes a core that grants up to 3 instructions a
    // cycle (4 for a demand in (3, 4)) and refills at least that many: a
    // fetch width, buffer or dispatch width below that keeps run() on the
    // busy cycle.
    struct Narrow {
        const char* name;
        int fetch_width, entries, dispatch_width;
        double demand;
    };
    for (const Narrow& n : {Narrow{"fetch width 2", 2, 24, 4, 2.5},
                            Narrow{"buffer 2", 4, 2, 4, 2.5},
                            Narrow{"dispatch width 2", 4, 24, 2, 2.5},
                            Narrow{"d 3.1 fetch width 3", 3, 24, 4, 3.1},
                            Narrow{"d 3.1 buffer 3", 4, 3, 4, 3.1},
                            Narrow{"d 3.1 dispatch width 3", 4, 24, 3, 3.1}}) {
        SimConfig cfg;
        cfg.cores = 1;
        cfg.smt_ways = 1;
        cfg.fetch_width = n.fetch_width;
        cfg.fetch_buffer_entries = n.entries;
        cfg.dispatch_width = n.dispatch_width;
        CoreUnderTest chunked(cfg);
        CoreUnderTest stepped(cfg);
        for (CoreUnderTest* side : {&chunked, &stepped}) {
            side->tasks.push_back(
                std::make_unique<apps::AppInstance>(1, apps::find_app("mcf"), 5));
            ThreadContext& t = side->core.slot(0);
            t.bind(side->tasks[0].get());
            t.rates = EffectiveRates{.p_branch = 0.004, .p_icache = 0.002, .p_episode = 0.003,
                                     .dispatch_demand = n.demand};
        }
        std::uint64_t want = 0;
        for (int i = 0; i < 3'000; ++i) want += stepped.core.tick();
        ASSERT_EQ(chunked.core.run(3'000), want) << n.name;
        expect_same_core(chunked, stepped, n.name);
        EXPECT_EQ(chunked.core.cycle_counts().jumped, 0u) << n.name;
    }
}

TEST(SmtCore, LoneHighDemandAppJumpsMostCycles) {
    // A work count, not a bit check: nab_r (demand 3.1) alone on a
    // one-chip platform applies most of its busy cycles as steady
    // stretches.  Every bit check still passes if the class stops firing.
    SimConfig cfg;
    cfg.cores = 1;
    cfg.cycles_per_quantum = 2'000;
    Platform platform(cfg);
    apps::AppInstance task(1, apps::find_app("nab_r"), 42);
    ASSERT_EQ(task.phase().dispatch_demand, 3.1);
    platform.bind(task, {.core = 0, .slot = 0});
    for (int q = 0; q < 200; ++q) platform.run_quantum();
    const CycleCounts n = platform.cycle_counts();
    EXPECT_GT(n.ticked, 200'000u);
    EXPECT_GT(n.jumped, n.ticked / 2);
}

TEST(SmtCore, EndStateDigestPinned) {
    // RunEqualsRepeatedTick compares run() with tick(), which share one
    // loop; this pins both against a digest captured from an earlier
    // build.  Every fuzz case runs its chunks through run() and then 1 000
    // tick() calls, and the digest folds in each call's memory accesses
    // and the end state after it: every slot's public fields (the credit
    // by its bits), each task's counters, insts_retired() and next draw
    // of both event RNG streams, and cycle_counts().
    std::string sig;
    for (std::uint64_t c = 0; c < kFuzzCases; ++c) {
        const FuzzCase fc = make_fuzz_case(c);
        CoreUnderTest side(fc.cfg);
        start_fuzz_case(fc, side);
        for (std::size_t k = 0; k < fc.chunks.size(); ++k) {
            before_fuzz_chunk(fc, k, side);
            sig += std::to_string(side.core.run(fc.chunks[k]));
            append_end_state(side, sig);
        }
        std::uint64_t mem = 0;
        for (int i = 0; i < 1'000; ++i) mem += side.core.tick();
        sig += std::to_string(mem);
        append_end_state(side, sig);
    }
    EXPECT_EQ(testsig::digest(sig), 0x754865e11ba1c8deull);
}

TEST(SmtCore, LoneSlotCatchesUpTheFetchPointer) {
    // A run() call on a lone slot moves the fetch pointer past the slot
    // only if the slot fetched.  Each case starts an SMT-2 core with slot 0
    // alone (the pointer at slot 0), steps it one cycle, then binds a
    // co-runner that is ready to fetch in the same cycle as slot 0: the
    // pointer decides which of them fetches first.
    struct Case {
        const char* name;
        int fe_stall;  ///< 2: slot 0 cannot fetch in the solo cycle
    };
    for (const Case& c : {Case{"no fetch", 2}, Case{"fetch", 0}}) {
        SimConfig cfg;
        cfg.cores = 1;
        cfg.smt_ways = 2;
        CoreUnderTest chunked(cfg);
        CoreUnderTest stepped(cfg);
        for (CoreUnderTest* side : {&chunked, &stepped}) {
            for (int s = 0; s < 2; ++s)
                side->tasks.push_back(
                    std::make_unique<apps::AppInstance>(s + 1, apps::find_app("nab_r"), 7));
            ThreadContext& t = side->core.slot(0);
            t.bind(side->tasks[0].get());
            t.fe_stall = c.fe_stall;
            t.insts_until_fe = 1'000;
            t.insts_until_be = 1'000;
        }
        ASSERT_EQ(chunked.core.run(1), stepped.core.tick()) << c.name;
        expect_same_core(chunked, stepped, std::string(c.name) + " solo");
        for (CoreUnderTest* side : {&chunked, &stepped})
            side->core.slot(1).bind(side->tasks[1].get());
        for (int i = 0; i < 4; ++i)
            ASSERT_EQ(chunked.core.tick(), stepped.core.tick()) << c.name << " co-run " << i;
        expect_same_core(chunked, stepped, std::string(c.name) + " co-run");
    }
}

TEST(SmtCore, EmptyCoreSkipsTheWholeRun) {
    SimConfig cfg;
    cfg.cores = 1;
    SmtCore core(cfg);
    EXPECT_EQ(core.run(std::uint64_t{1} << 40), 0u);
    EXPECT_EQ(core.cycle_counts().ticked, 0u);
    EXPECT_EQ(core.cycle_counts().skipped, std::uint64_t{1} << 40);
}

TEST(Chip, TickedPlusSkippedCoversEveryCoreCycle) {
    SimConfig cfg = small_config(3);
    cfg.smt_ways = 4;
    Platform chip(cfg);
    apps::AppInstance a(1, apps::find_app("mcf"), 3);
    apps::AppInstance b(2, apps::find_app("lbm_r"), 4);
    chip.bind(a, {.core = 0, .slot = 0});
    chip.bind(b, {.core = 0, .slot = 2});  // cores 1 and 2 stay empty
    for (int q = 0; q < 3; ++q) chip.run_quantum();
    const CycleCounts n = chip.cycle_counts();
    EXPECT_EQ(n.ticked + n.skipped, 3 * chip.now());
    EXPECT_GT(n.ticked, 0u);
    EXPECT_GE(n.skipped, 2 * chip.now());  // the empty cores
}

TEST(PlatformTest, CountersCompleteAfterEveryQuantum) {
    // The core keeps cycle, dispatch and stall tallies itself and hands
    // them to each task, with one retire, when its run() ends: after every
    // quantum each bound task's counters must already be complete.
    const std::vector<apps::AppProfile>& suite = apps::spec_suite();
    for (const int ways : {1, 2, 4}) {
        SimConfig cfg = small_config(4);
        cfg.smt_ways = ways;
        Platform chip(cfg);
        std::vector<std::unique_ptr<apps::AppInstance>> tasks;
        std::vector<std::uint64_t> bound_cycles;
        const auto add = [&](CpuSlot where) {
            const int id = static_cast<int>(tasks.size()) + 1;
            tasks.push_back(std::make_unique<apps::AppInstance>(
                id, suite[static_cast<std::size_t>(id * 5) % suite.size()],
                static_cast<std::uint64_t>(id)));
            bound_cycles.push_back(0);
            chip.bind(*tasks.back(), where);
        };
        // Mixed occupancy: core 0 full, core 1 one thread, cores 2-3 empty.
        for (int s = 0; s < ways; ++s) add({.core = 0, .slot = s});
        add({.core = 1, .slot = 0});
        const int moved = static_cast<int>(tasks.size());  // the core-1 task
        for (int q = 0; q < 12; ++q) {
            if (q == 4) add({.core = 2, .slot = ways - 1});  // bound mid-run
            if (q == 8) {                                      // a migration
                chip.unbind(moved);
                chip.bind(*tasks[static_cast<std::size_t>(moved - 1)], {.core = 3, .slot = 0});
            }
            chip.run_quantum();
            for (const apps::AppInstance* task : chip.bound_tasks())
                bound_cycles[static_cast<std::size_t>(task->id() - 1)] += cfg.cycles_per_quantum;
            for (const apps::AppInstance* task : chip.bound_tasks()) {
                const pmu::CounterBank& c = task->counters();
                const std::string at = "ways " + std::to_string(ways) + " quantum " +
                                       std::to_string(q) + " task " + std::to_string(task->id());
                EXPECT_EQ(c.value(pmu::Event::kCpuCycles),
                          bound_cycles[static_cast<std::size_t>(task->id() - 1)])
                    << at;
                EXPECT_EQ(c.value(pmu::Event::kInstRetired), task->insts_retired()) << at;
                EXPECT_GT(task->insts_retired(), 0u) << at;
                EXPECT_EQ(c.value(pmu::Event::kStallBackend),
                          c.value(pmu::Event::kStallBackendRob) +
                              c.value(pmu::Event::kStallBackendIq))
                    << at;
            }
        }
        EXPECT_EQ(chip.bound_tasks().size(), static_cast<std::size_t>(ways + 2));
    }
}

}  // namespace

// ---------- platform (multi-chip) ----------

namespace {

using synpa::uarch::Platform;
using synpa::uarch::validate_platform;

synpa::uarch::SimConfig platform_config(int chips, int cores = 2, int ways = 2) {
    synpa::uarch::SimConfig cfg;
    cfg.num_chips = chips;
    cfg.cores = cores;
    cfg.smt_ways = ways;
    cfg.cycles_per_quantum = 2'000;
    return cfg;
}

TEST(PlatformTest, GlobalCoreIdsMapChipMajor) {
    const Platform platform(platform_config(3, 4));
    EXPECT_EQ(platform.chip_count(), 3);
    EXPECT_EQ(platform.cores_per_chip(), 4);
    EXPECT_EQ(platform.core_count(), 12);
    EXPECT_EQ(platform.hw_contexts(), 24);
    EXPECT_EQ(platform.chip_of_core(0), 0);
    EXPECT_EQ(platform.chip_of_core(3), 0);
    EXPECT_EQ(platform.chip_of_core(4), 1);
    EXPECT_EQ(platform.chip_of_core(11), 2);
    EXPECT_EQ(platform.local_core(11), 3);
}

TEST(PlatformTest, BindPlacementAndValidationSpanChips) {
    Platform platform(platform_config(2));
    synpa::apps::AppInstance a(1, synpa::apps::find_app("mcf"), 1);
    synpa::apps::AppInstance b(2, synpa::apps::find_app("gobmk"), 2);
    platform.bind(a, {.core = 1, .slot = 0});   // chip 0
    platform.bind(b, {.core = 3, .slot = 1});   // chip 1
    validate_platform(platform);
    EXPECT_EQ(platform.placement(1).core, 1);
    EXPECT_EQ(platform.placement(2).core, 3);
    EXPECT_EQ(platform.bound_tasks().size(), 2u);
    EXPECT_EQ(platform.core(1).slot(0).task(), &a);
    EXPECT_EQ(platform.core(3).slot(1).task(), &b);
    EXPECT_THROW(platform.bind(a, {.core = 0, .slot = 0}), std::logic_error);
    EXPECT_THROW(platform.bind(a, {.core = 2, .slot = 0}), std::logic_error);  // other chip
    synpa::apps::AppInstance c(3, synpa::apps::find_app("nab_r"), 3);
    EXPECT_THROW(platform.bind(c, {.core = 4, .slot = 0}), std::out_of_range);
    platform.unbind(1);
    platform.unbind(2);
    EXPECT_THROW(platform.placement(1), std::logic_error);
    EXPECT_EQ(platform.bound_tasks().size(), 0u);
}

TEST(PlatformTest, ChipsHavePrivateLlcAndDram) {
    // A memory hog on chip 0 must not slow a co-resident of chip 1: each
    // chip owns its LLC and DRAM channel, so cross-chip isolation holds.
    const auto run_partnered = [](bool same_chip) {
        Platform platform(platform_config(2, 1, 2));  // 2 chips x 1 core
        synpa::apps::AppInstance victim(1, synpa::apps::find_app("leela_r"), 5);
        synpa::apps::AppInstance hog(2, synpa::apps::find_app("lbm_r"), 6);
        platform.bind(victim, {.core = 0, .slot = 0});
        platform.bind(hog, {.core = same_chip ? 0 : 1, .slot = same_chip ? 1 : 0});
        for (int q = 0; q < 8; ++q) platform.run_quantum();
        return victim.insts_retired();
    };
    EXPECT_GT(run_partnered(/*same_chip=*/false), run_partnered(/*same_chip=*/true));
}

TEST(PlatformTest, WarmupRuleByMove) {
    // The move-cost hierarchy, one row per kind of move.  The task runs one
    // quantum after every bind, then moves; the row checks the warmup
    // multiplier right after its last bind (a fresh window's peak: 1.0 when
    // none, 1.5 for the chip's local window, 2.5 for the cross-chip one)
    // and the cross-chip migrations charged.  2 chips x 2 cores x SMT-2:
    // global cores 0-1 are chip 0, 2-3 chip 1.  A chip move charges the
    // local window and the cross-chip one on top, and the larger is kept,
    // so with no cross-chip window (0 quanta) it still costs the local one.
    constexpr double kKeeps = -1.0;  // the last bind leaves the window as it was
    struct Row {
        const char* name;
        std::vector<synpa::uarch::CpuSlot> binds;
        double multiplier;
        std::uint64_t cross_chip;
        int cross_chip_quanta = 2;
    };
    const std::vector<Row> rows = {
        {"slot move on the same core", {{0, 0}, {0, 1}}, 1.0, 0},
        {"core move on the same chip", {{0, 0}, {1, 0}}, 1.5, 0},
        {"chip move", {{0, 0}, {2, 0}}, 2.5, 1},
        {"return to a chip's old core", {{0, 0}, {2, 0}, {0, 0}}, 2.5, 2},
        {"return to a chip's other core", {{0, 0}, {2, 0}, {1, 1}}, 2.5, 2},
        {"core move inside a cross-chip window", {{0, 0}, {2, 0}, {3, 0}}, kKeeps, 1},
        {"chip move, no cross-chip window", {{0, 0}, {2, 0}}, 1.5, 1, 0},
        {"return to a chip's old core, no cross-chip window", {{0, 0}, {2, 0}, {0, 0}}, 1.5, 2,
         0},
    };
    for (const Row& row : rows) {
        synpa::uarch::SimConfig cfg = platform_config(2, 2, 2);
        cfg.cross_chip_warmup_quanta = row.cross_chip_quanta;
        Platform platform(cfg);
        synpa::apps::AppInstance t(1, synpa::apps::find_app("mcf"), 11);
        double before = 0.0;
        for (std::size_t i = 0; i < row.binds.size(); ++i) {
            if (i > 0) {
                platform.run_quantum();
                platform.unbind(1);
            }
            before = t.warmup_multiplier();
            platform.bind(t, row.binds[i]);
        }
        const double after = t.warmup_multiplier();
        if (row.multiplier == kKeeps) {
            EXPECT_EQ(after, before) << row.name;
            EXPECT_GT(after, 1.5) << row.name;  // the decaying cross-chip window
        } else {
            EXPECT_EQ(after, row.multiplier) << row.name;
        }
        EXPECT_EQ(platform.cross_chip_migrations(), row.cross_chip) << row.name;
        validate_platform(platform);
    }
}

}  // namespace
