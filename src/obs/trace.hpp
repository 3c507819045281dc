// Flight-recorder tracing for the quantum loop.
//
// A Tracer records structured TraceEvents into bounded drop-oldest ring
// buffers and per-quantum QuantumStats samples into a MetricsRegistry.  It
// is wired through every layer — sched::NodeLoop stamps quantum boundaries
// and phase wall-clock and emits per-task migrations, the SYNPA
// policies report allocation decisions / phase alarms / model refits, and
// the Platform times each chip's quantum inside the parallel shards.
//
// Determinism contract: tracing only *reads* simulated state.  Wall-clock
// is taken with steady_clock and never feeds back into the simulation, so
// a traced run is bit-identical to an untraced one (tests/test_obs.cpp).
// Under SYNPA_SIM_THREADS > 1 each chip gets its own ring (prepare_chips);
// shards write only their chips' rings during the quantum, and the
// coordinator folds them into the main ring in ascending chip order after
// the PR-6 barrier (merge_chip_events) — the merged stream is identical at
// every thread count.
//
// Overhead contract: every instrumentation site is guarded by a single
// enabled-branch (`tracer != nullptr` in the drivers, `wants(kind)` at
// emit sites), so a null or disabled tracer costs one predictable branch
// per site (bench_trace_overhead pins tracing-off within noise and
// tracing-on at <= 5%).
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace synpa::obs {

enum class EventKind : unsigned {
    kQuantumBegin = 0,  ///< a = live tasks, b = queued arrivals
    kQuantumEnd,        ///< a = live tasks, value = utilization
    kChipQuantum,       ///< chip = chip id, value = wall microseconds
    kAllocation,        ///< a = occupied groups, value = predicted cost, detail = groups
    kMigration,         ///< task, core = new, b = old core, a = class (0 slot/1 intra/2 cross)
    kAdmission,         ///< task, core, detail = app name
    kRetirement,        ///< task, core, value = finish quantum, detail = app name
    kPhaseAlarm,        ///< task — CUSUM phase-change alarm
    kModelRefit,        ///< a = adopted (1/0), value = candidate holdout error
    kPreemption,        ///< task = victim, a = victim priority, b = preemptor
                        ///< priority, core = node id, detail = victim app
};
inline constexpr std::size_t kEventKindCount = 10;

/// Stable lowercase name ("quantum_begin", "migration", ...).
const char* event_kind_name(EventKind kind) noexcept;

/// One structured record.  Field meaning is kind-specific (see EventKind);
/// unused fields keep their defaults.
struct TraceEvent {
    EventKind kind = EventKind::kQuantumBegin;
    std::uint64_t quantum = 0;
    int chip = -1;
    int task = -1;
    int core = -1;
    int a = 0;           ///< small kind-specific payload
    int b = 0;           ///< second kind-specific payload
    double value = 0.0;  ///< kind-specific measurement
    std::string detail{};  ///< optional human-readable payload
};

/// Bounded drop-oldest ring buffer (index 0 = oldest retained element).
template <typename T>
class Ring {
public:
    explicit Ring(std::size_t capacity) : buf_(), capacity_(capacity) {
        buf_.reserve(std::min<std::size_t>(capacity, 1024));
    }

    void push(T value) {
        if (buf_.size() < capacity_) {
            buf_.push_back(std::move(value));
            return;
        }
        if (capacity_ == 0) {
            ++dropped_;
            return;
        }
        buf_[head_] = std::move(value);
        head_ = (head_ + 1) % capacity_;
        ++dropped_;
    }

    std::size_t size() const noexcept { return buf_.size(); }
    bool empty() const noexcept { return buf_.empty(); }
    /// Elements dropped (overwritten) since construction.
    std::uint64_t dropped() const noexcept { return dropped_; }

    /// i-th oldest retained element.
    const T& at(std::size_t i) const { return buf_[(head_ + i) % buf_.size()]; }

    /// Moves the retained elements out in oldest-first order and resets.
    std::vector<T> drain() {
        std::vector<T> out;
        out.reserve(buf_.size());
        for (std::size_t i = 0; i < buf_.size(); ++i) out.push_back(std::move(buf_[(head_ + i) % buf_.size()]));
        buf_.clear();
        head_ = 0;
        return out;
    }

private:
    std::vector<T> buf_;
    std::size_t capacity_;
    std::size_t head_ = 0;  ///< oldest element once the ring is full
    std::uint64_t dropped_ = 0;
};

using EventRing = Ring<TraceEvent>;

/// Tracing knobs (see docs/REFERENCE.md).
struct TraceConfig {
    bool enabled = false;
    /// Chrome-trace JSON path; empty = record in memory only.  The
    /// per-quantum metrics CSV and the metrics-registry CSV land next to it
    /// (metrics_csv_path / registry_csv_path in export.hpp).
    std::string file;
    /// Bit per EventKind; parse_event_mask builds it from the
    /// SYNPA_TRACE_EVENTS group list.
    std::uint32_t event_mask = 0xFFFF'FFFFu;
    /// Ring capacity, in events (the per-quantum sample ring uses the same
    /// bound).
    std::size_t capacity = 1u << 16;

    /// Reads SYNPA_TRACE / SYNPA_TRACE_FILE / SYNPA_TRACE_EVENTS /
    /// SYNPA_TRACE_CAPACITY.
    static TraceConfig from_env();
};

/// Builds an event mask from a comma-separated group list: "all" or any of
/// quantum, chip, alloc, migration, task, phase, refit.  Throws
/// std::runtime_error naming an unknown group.
std::uint32_t parse_event_mask(const std::string& spec);

/// Per-quantum flight-recorder sample, assembled by the driver at the end
/// of each quantum.  Wall-clock phases are steady_clock measurements of
/// *host* time around the simulate/observe/decide/bind stages.
struct QuantumStats {
    std::uint64_t quantum = 0;
    int live = 0;
    int queued = 0;
    double utilization = 0.0;
    std::uint64_t migrations = 0;  ///< this quantum's rebind, cross-chip included
    std::uint64_t cross_chip = 0;
    double simulate_us = 0.0;
    double observe_us = 0.0;
    double decide_us = 0.0;
    double bind_us = 0.0;
};

/// Reads the host monotonic clock, in microseconds since an arbitrary
/// epoch.  This helper and PhaseStopwatch are the only sanctioned
/// wall-clock entry points for the deterministic layers (DET-02 in
/// docs/LINTING.md): host time is observability-only and must never feed
/// back into simulated state.
inline double host_now_us() noexcept {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Host-time phase stopwatch for the drivers: lap_us() returns the
/// microseconds since the previous lap (0 when inactive — the disabled
/// path costs one branch, no clock read).
class PhaseStopwatch {
public:
    explicit PhaseStopwatch(bool active) noexcept : active_(active) {
        if (active_) last_ = std::chrono::steady_clock::now();
    }
    double lap_us() noexcept {
        if (!active_) return 0.0;
        const auto now = std::chrono::steady_clock::now();
        const double us = std::chrono::duration<double, std::micro>(now - last_).count();
        last_ = now;
        return us;
    }

private:
    bool active_;
    std::chrono::steady_clock::time_point last_{};
};

class Tracer {
public:
    Tracer() : Tracer(TraceConfig::from_env()) {}
    explicit Tracer(TraceConfig cfg);
    /// Writes pending exports (best effort — errors are swallowed; call
    /// finish() explicitly to observe them).
    ~Tracer();

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    bool enabled() const noexcept { return cfg_.enabled; }
    bool wants(EventKind kind) const noexcept {
        return cfg_.enabled && ((cfg_.event_mask >> static_cast<unsigned>(kind)) & 1u) != 0;
    }
    const TraceConfig& config() const noexcept { return cfg_; }

    /// The quantum currently executing; drivers set it via begin_quantum so
    /// policy- and bind-side emitters stamp events without plumbing the
    /// counter through every call.
    std::uint64_t quantum() const noexcept { return quantum_; }

    /// Driver hooks around one quantum.
    void begin_quantum(std::uint64_t quantum, int live, int queued);
    void end_quantum(const QuantumStats& stats);

    /// Records an event (dropped unless wants(e.kind)).
    void emit(TraceEvent event);

    /// Shard-side event sink: chips write only their own ring during a
    /// quantum (no shared mutable state), and merge_chip_events folds the
    /// rings into the main stream in ascending chip order after the
    /// barrier — deterministic at every SYNPA_SIM_THREADS.
    void prepare_chips(int chips);
    void emit_chip(int chip, TraceEvent event);
    void merge_chip_events();

    const EventRing& events() const noexcept { return events_; }
    std::uint64_t dropped_events() const noexcept { return events_.dropped(); }
    const Ring<QuantumStats>& samples() const noexcept { return samples_; }

    MetricsRegistry& metrics() noexcept { return metrics_; }
    const MetricsRegistry& metrics() const noexcept { return metrics_; }

    /// Writes the Chrome-trace JSON (and the metrics and registry CSVs next
    /// to it) when
    /// TraceConfig::file is set.  Idempotent; throws std::runtime_error on
    /// I/O failure.
    void finish();

private:
    TraceConfig cfg_;
    EventRing events_;
    std::vector<EventRing> chip_events_;
    Ring<QuantumStats> samples_;
    MetricsRegistry metrics_;
    std::uint64_t quantum_ = 0;
    bool finished_ = false;
};

/// Per-cell trace file naming for campaign/scenario grids: inserts "-tag"
/// before the extension ("grid.json", "c0s1p2r0" -> "grid-c0s1p2r0.json").
std::string derive_trace_path(const std::string& base, const std::string& tag);

}  // namespace synpa::obs
