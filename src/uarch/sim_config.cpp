#include "uarch/sim_config.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace synpa::uarch {

std::uint64_t config_fingerprint(const SimConfig& cfg) noexcept {
    // Hash every field explicitly (never raw struct bytes: padding is
    // indeterminate and would make the fingerprint nondeterministic).
    std::uint64_t h = 0x51c0af16ULL;
    const auto mix_u64 = [&h](std::uint64_t v) { h = common::splitmix64(h ^ v); };
    const auto mix_int = [&](std::int64_t v) { mix_u64(static_cast<std::uint64_t>(v)); };
    const auto mix_dbl = [&](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix_u64(bits);
    };
    mix_int(cfg.smt_ways);
    mix_int(cfg.dispatch_width);
    mix_int(cfg.rob_size);
    mix_int(cfg.iq_size);
    mix_int(cfg.load_buffer);
    mix_int(cfg.store_buffer);
    mix_int(cfg.issue_ports);
    mix_dbl(cfg.l1i_kb);
    mix_dbl(cfg.l1d_kb);
    mix_dbl(cfg.l2_kb);
    mix_dbl(cfg.llc_mb);
    mix_int(cfg.cores);
    mix_int(cfg.num_chips);
    mix_int(cfg.cross_chip_warmup_quanta);
    mix_dbl(cfg.cross_chip_miss_multiplier);
    mix_int(cfg.l2_latency);
    mix_int(cfg.llc_latency);
    mix_int(cfg.mem_latency);
    mix_int(cfg.branch_redirect_penalty);
    mix_int(cfg.fetch_width);
    mix_int(cfg.fetch_buffer_entries);
    mix_dbl(cfg.cache_pressure_exponent);
    mix_dbl(cfg.cache_miss_mult_cap);
    mix_dbl(cfg.mem_bw_accesses_per_cycle);
    mix_dbl(cfg.mem_queue_factor_cap);
    mix_dbl(cfg.warmup_miss_multiplier);
    mix_u64(cfg.warmup_insts);
    mix_int(cfg.mshr_serialization_cap);
    mix_u64(cfg.cycles_per_quantum);
    // cfg.sim_threads deliberately not mixed: it cannot change results
    // (parallel quanta are bit-identical to serial), so cached artifacts
    // must not fork per thread count.
    return h;
}

SimConfig SimConfig::from_env() {
    using common::env_double;
    using common::env_int;
    // An int knob is range-checked as read: narrowing first would turn
    // 4294967298 into 2 and let it past validate().
    const auto env_int32 = [](const char* knob, int fallback) {
        const std::int64_t v = env_int(knob, fallback);
        if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max())
            throw std::invalid_argument(std::string("SimConfig: ") + knob +
                                        " must fit in an int, got " + std::to_string(v));
        return static_cast<int>(v);
    };
    SimConfig c;
    c.cores = env_int32("SYNPA_CORES", c.cores);
    c.num_chips = env_int32("SYNPA_NUM_CHIPS", c.num_chips);
    c.cross_chip_warmup_quanta = env_int32("SYNPA_XCHIP_WARMUP_QUANTA", c.cross_chip_warmup_quanta);
    c.cross_chip_miss_multiplier =
        env_double("SYNPA_XCHIP_MISS_MULT", c.cross_chip_miss_multiplier);
    c.sim_threads = env_int32("SYNPA_SIM_THREADS", c.sim_threads);
    c.smt_ways = env_int32("SYNPA_SMT_WAYS", c.smt_ways);
    c.cycles_per_quantum = static_cast<std::uint64_t>(
        env_int("SYNPA_QUANTUM_CYCLES", static_cast<std::int64_t>(c.cycles_per_quantum)));
    c.mem_latency = env_int32("SYNPA_MEM_LATENCY", c.mem_latency);
    c.llc_latency = env_int32("SYNPA_LLC_LATENCY", c.llc_latency);
    c.l2_latency = env_int32("SYNPA_L2_LATENCY", c.l2_latency);
    c.mem_bw_accesses_per_cycle =
        env_double("SYNPA_MEM_BW", c.mem_bw_accesses_per_cycle);
    c.cache_pressure_exponent =
        env_double("SYNPA_CACHE_PRESSURE_EXP", c.cache_pressure_exponent);
    c.warmup_insts = static_cast<std::uint64_t>(
        env_int("SYNPA_WARMUP_INSTS", static_cast<std::int64_t>(c.warmup_insts)));
    c.mshr_serialization_cap = env_int32("SYNPA_MSHR_CAP", c.mshr_serialization_cap);
    c.validate();
    return c;
}

const SimConfig& SimConfig::validate() const {
    const auto require = [](bool ok, const char* knob, const std::string& rule,
                            const std::string& got) {
        if (!ok)
            throw std::invalid_argument(std::string("SimConfig: ") + knob + " must be " + rule +
                                        ", got " + got);
    };
    const auto str = [](auto v) { return std::to_string(v); };
    // Unsigned fields read back as signed so a wrapped negative is caught.
    const auto as_signed = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
    require(cores >= 1, "SYNPA_CORES", ">= 1", str(cores));
    require(smt_ways == 1 || smt_ways == 2 || smt_ways == 4, "SYNPA_SMT_WAYS", "1, 2 or 4",
            str(smt_ways));
    require(num_chips >= 1, "SYNPA_NUM_CHIPS", ">= 1", str(num_chips));
    require(sim_threads >= 1 && static_cast<std::size_t>(sim_threads) <= common::kMaxThreads,
            "SYNPA_SIM_THREADS", "in [1, " + str(common::kMaxThreads) + "]", str(sim_threads));
    require(as_signed(cycles_per_quantum) >= 1, "SYNPA_QUANTUM_CYCLES", ">= 1",
            str(as_signed(cycles_per_quantum)));
    require(cross_chip_warmup_quanta >= 0, "SYNPA_XCHIP_WARMUP_QUANTA", ">= 0",
            str(cross_chip_warmup_quanta));
    require(cross_chip_miss_multiplier >= 1.0, "SYNPA_XCHIP_MISS_MULT", ">= 1",
            str(cross_chip_miss_multiplier));
    require(mem_latency >= 0, "SYNPA_MEM_LATENCY", ">= 0", str(mem_latency));
    require(llc_latency >= 0, "SYNPA_LLC_LATENCY", ">= 0", str(llc_latency));
    require(l2_latency >= 0, "SYNPA_L2_LATENCY", ">= 0", str(l2_latency));
    require(mem_bw_accesses_per_cycle > 0.0, "SYNPA_MEM_BW", "> 0",
            str(mem_bw_accesses_per_cycle));
    require(cache_pressure_exponent >= 0.0, "SYNPA_CACHE_PRESSURE_EXP", ">= 0",
            str(cache_pressure_exponent));
    require(as_signed(warmup_insts) >= 0, "SYNPA_WARMUP_INSTS", ">= 0",
            str(as_signed(warmup_insts)));
    require(mshr_serialization_cap >= 0, "SYNPA_MSHR_CAP", ">= 0", str(mshr_serialization_cap));
    return *this;
}

}  // namespace synpa::uarch
