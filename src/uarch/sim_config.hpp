// Simulator configuration: the ThunderX2 CN9975 parameters from the paper's
// Table II plus latency/contention knobs and time-scaling controls.
//
// The paper's machine runs 100 ms quanta (~2.2e8 cycles at 2.2 GHz).  The
// simulator keeps the same *structure* (SMT2 cores, dispatch width 4,
// ROB 128, 32K/32K L1, 256K L2, shared 28M LLC) but scales the quantum down
// so a full 20-workload evaluation fits a laptop-class time budget.  All
// values can be overridden through SYNPA_* environment variables.
#pragma once

#include <cstdint>
#include <string>

namespace synpa::uarch {

/// Hard upper bound on SMT slots per core (the ThunderX2 BIOS maxes out at
/// SMT-4); SimConfig::smt_ways picks the runtime width 1..kMaxSmtWays.
inline constexpr int kMaxSmtWays = 4;

struct SimConfig {
    // ---- Table II: core microarchitecture -------------------------------
    int smt_ways = 2;              ///< BIOS-configured width (1, 2 or 4 on the TX2)
    int dispatch_width = 4;        ///< instructions dispatched per cycle
    int rob_size = 128;            ///< reorder buffer entries (partitioned in SMT)
    int iq_size = 60;              ///< issue queue entries
    int load_buffer = 64;          ///< load queue entries
    int store_buffer = 36;         ///< store queue entries
    int issue_ports = 6;

    // ---- Table II: memory subsystem -------------------------------------
    double l1i_kb = 32.0;          ///< shared by the core's SMT threads
    double l1d_kb = 32.0;
    double l2_kb = 256.0;          ///< per core, shared by its SMT threads
    double llc_mb = 28.0;          ///< chip-wide shared last-level cache
    int cores = 4;                 ///< cores *per chip* used by the 8-app workloads

    // ---- platform topology ------------------------------------------------
    // The paper's target machines are dual-socket ThunderX2 boxes; a
    // Platform (uarch/platform.hpp) instantiates `num_chips` identical
    // chips, each with its own LLC and DRAM channel.  Moving a task across
    // chips is far more expensive than a same-chip core move: the L2 *and*
    // the remote LLC/TLB state are cold, and until refill completes the
    // task's memory traffic pays remote-socket latency.  That is modeled as
    // a warmup window of `cross_chip_warmup_quanta` quanta (scaled through
    // cycles_per_quantum) at miss multiplier `cross_chip_miss_multiplier`,
    // decaying linearly — visibly degraded IPC for the K quanta after a
    // cross-chip rebind.
    int num_chips = 1;                      ///< chips (sockets) in the platform
    int cross_chip_warmup_quanta = 2;       ///< K: quanta of degraded IPC
    double cross_chip_miss_multiplier = 2.5;  ///< peak cold-cache factor

    // ---- simulator execution (not modeled hardware) -----------------------
    // Chips are independent between allocation decisions, so a Platform can
    // run each quantum's per-chip simulation on up to `sim_threads` threads
    // (clamped to num_chips) with a join at the quantum boundary.
    // Results are bit-identical at every thread count — this knob trades
    // host CPUs for wall time and changes nothing the simulation observes,
    // which is why it is deliberately EXCLUDED from config_fingerprint():
    // cached artifacts stay valid across thread counts.
    int sim_threads = 1;                    ///< host threads per quantum (1-256)

    // ---- latencies (cycles) ---------------------------------------------
    int l2_latency = 12;
    int llc_latency = 40;
    int mem_latency = 180;
    int branch_redirect_penalty = 14;

    // ---- frontend model ---------------------------------------------------
    // The fetch port serves one thread per cycle (paper §VI-A: "the IFetch
    // policies only allow a single thread to access the ICache at a given
    // processor cycle"), so a width just above the dispatch width makes
    // port sharing a real tax: a thread fetching every other cycle sustains
    // only fetch_width/2 instructions per cycle — two frontend-hungry
    // threads throttle each other disproportionately.
    int fetch_width = 4;           ///< instructions fetched per port grant
    int fetch_buffer_entries = 24; ///< per-thread dispatch queue capacity

    // ---- contention model -------------------------------------------------
    double cache_pressure_exponent = 0.85;  ///< miss mult = coverage^-e
    double cache_miss_mult_cap = 3.0;       ///< upper bound on that multiplier
    double mem_bw_accesses_per_cycle = 0.30;  ///< chip DRAM service rate
    double mem_queue_factor_cap = 1.5;      ///< latency inflation bound
    // Migration cost, scaled to the quantum: on the paper's 100 ms quanta a
    // same-socket sched_setaffinity migration (L1/L2 refill; the LLC stays
    // warm) is well under 1% of the quantum, so the scaled-down default
    // keeps the same cost-to-quantum ratio.  bench_ablation_policy sweeps it.
    double warmup_miss_multiplier = 1.5;    ///< post-migration cold-cache factor
    std::uint64_t warmup_insts = 1000;      ///< instructions affected after a migration
    /// Upper bound on the per-core MSHR serialization delay two
    /// simultaneously DRAM-stalled threads impose on each other (cycles).
    int mshr_serialization_cap = 60;

    // ---- time scaling -----------------------------------------------------
    std::uint64_t cycles_per_quantum = 50'000;

    /// Effective ROB entries available to one thread.  The ROB is
    /// partitioned among the threads *actually running* on the core, not
    /// the configured width: a core running a single thread in SMT-4 mode
    /// still hands that thread the whole window.
    int rob_share(int active_threads) const noexcept {
        return rob_size / (active_threads > 1 ? active_threads : 1);
    }

    /// Cold-cache window charged on a cross-chip migration, in instructions
    /// (the warmup state decays per retired instruction; K quanta at an
    /// IPC near 1 is K * cycles_per_quantum instructions).
    std::uint64_t cross_chip_warmup_insts() const noexcept {
        return static_cast<std::uint64_t>(cross_chip_warmup_quanta) * cycles_per_quantum;
    }

    /// Loads defaults then applies SYNPA_* environment overrides
    /// (SYNPA_QUANTUM_CYCLES, SYNPA_CORES, SYNPA_NUM_CHIPS,
    /// SYNPA_MEM_LATENCY, ...) verbatim, then validate()s them: a bad value
    /// throws naming its knob.
    static SimConfig from_env();

    /// Throws std::invalid_argument naming the SYNPA_* knob of the first
    /// field out of range (cores, chips and cycles per quantum >= 1; sim
    /// threads in [1, common::kMaxThreads]; smt_ways 1, 2 or 4; latencies, caps and warmup windows >= 0;
    /// the cross-chip miss multiplier >= 1; memory bandwidth > 0).  Returns
    /// *this so constructors can validate in their initializer lists; every
    /// Chip and Platform does.
    const SimConfig& validate() const;
};

/// Deterministic fingerprint over every configuration field that can
/// affect simulation *results*; used to key caches of simulation results
/// (e.g. isolated profiles) safely.  `sim_threads` is excluded: a
/// chip-sharded quantum is bit-identical to the serial path, so artifacts
/// are shared across thread counts.
std::uint64_t config_fingerprint(const SimConfig& cfg) noexcept;

}  // namespace synpa::uarch
