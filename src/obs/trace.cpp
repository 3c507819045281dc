#include "obs/trace.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/config.hpp"
#include "obs/export.hpp"

namespace synpa::obs {
namespace {

constexpr std::uint32_t bit(EventKind kind) noexcept {
    return 1u << static_cast<unsigned>(kind);
}

struct EventGroup {
    const char* name;
    std::uint32_t mask;
};

// SYNPA_TRACE_EVENTS groups; see docs/REFERENCE.md.
constexpr EventGroup kGroups[] = {
    {"quantum", bit(EventKind::kQuantumBegin) | bit(EventKind::kQuantumEnd)},
    {"chip", bit(EventKind::kChipQuantum)},
    {"alloc", bit(EventKind::kAllocation)},
    {"migration", bit(EventKind::kMigration)},
    {"task", bit(EventKind::kAdmission) | bit(EventKind::kRetirement) |
                 bit(EventKind::kPreemption)},
    {"phase", bit(EventKind::kPhaseAlarm)},
    {"refit", bit(EventKind::kModelRefit)},
};

/// Rejects an enabled tracer whose trace file sits in a directory that does
/// not exist, naming the knob, so a traced run fails before it simulates
/// rather than at export time.
void require_trace_directory(const TraceConfig& cfg) {
    if (!cfg.enabled || cfg.file.empty()) return;
    const std::filesystem::path dir = std::filesystem::path(cfg.file).parent_path();
    std::error_code ec;
    if (dir.empty() || std::filesystem::is_directory(dir, ec)) return;
    throw std::invalid_argument("SYNPA_TRACE_FILE: directory '" + dir.string() + "' of '" +
                                cfg.file + "' does not exist");
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
    switch (kind) {
        case EventKind::kQuantumBegin: return "quantum_begin";
        case EventKind::kQuantumEnd: return "quantum_end";
        case EventKind::kChipQuantum: return "chip_quantum";
        case EventKind::kAllocation: return "allocation";
        case EventKind::kMigration: return "migration";
        case EventKind::kAdmission: return "admission";
        case EventKind::kRetirement: return "retirement";
        case EventKind::kPhaseAlarm: return "phase_alarm";
        case EventKind::kModelRefit: return "model_refit";
        case EventKind::kPreemption: return "preemption";
    }
    return "unknown";
}

std::uint32_t parse_event_mask(const std::string& spec) {
    std::uint32_t mask = 0;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        std::string token = spec.substr(start, end - start);
        // Trim surrounding whitespace.
        while (!token.empty() && (token.front() == ' ' || token.front() == '\t'))
            token.erase(token.begin());
        while (!token.empty() && (token.back() == ' ' || token.back() == '\t'))
            token.pop_back();
        start = end + 1;
        if (token.empty()) continue;
        if (token == "all") {
            mask = 0xFFFF'FFFFu;
            continue;
        }
        bool found = false;
        for (const EventGroup& g : kGroups) {
            if (token == g.name) {
                mask |= g.mask;
                found = true;
                break;
            }
        }
        if (!found)
            throw std::runtime_error(
                "SYNPA_TRACE_EVENTS: unknown event group '" + token +
                "' (expected all, quantum, chip, alloc, migration, task, phase, refit)");
    }
    return mask;
}

TraceConfig TraceConfig::from_env() {
    TraceConfig cfg;
    cfg.enabled = common::env_int("SYNPA_TRACE", 0) != 0;
    cfg.file = common::env_string("SYNPA_TRACE_FILE", "");
    const std::string events = common::env_string("SYNPA_TRACE_EVENTS", "all");
    cfg.event_mask = parse_event_mask(events);
    const std::int64_t capacity =
        common::env_int("SYNPA_TRACE_CAPACITY", static_cast<std::int64_t>(cfg.capacity));
    if (capacity < 1)
        throw std::runtime_error("SYNPA_TRACE_CAPACITY: must be a positive event count");
    cfg.capacity = static_cast<std::size_t>(capacity);
    require_trace_directory(cfg);
    return cfg;
}

Tracer::Tracer(TraceConfig cfg)
    : cfg_(std::move(cfg)), events_(cfg_.capacity), samples_(cfg_.capacity) {
    require_trace_directory(cfg_);
}

Tracer::~Tracer() {
    try {
        finish();
    } catch (...) {
        // Destructors must not throw; call finish() explicitly to observe
        // export failures.
    }
}

void Tracer::begin_quantum(std::uint64_t quantum, int live, int queued) {
    if (!cfg_.enabled) return;
    quantum_ = quantum;
    if (wants(EventKind::kQuantumBegin)) {
        TraceEvent e;
        e.kind = EventKind::kQuantumBegin;
        e.quantum = quantum;
        e.a = live;
        e.b = queued;
        events_.push(std::move(e));
    }
}

void Tracer::end_quantum(const QuantumStats& stats) {
    if (!cfg_.enabled) return;
    samples_.push(stats);

    // Fold the sample into the registry: counters for totals, gauges for
    // the latest instantaneous values, log-histograms (nanoseconds) for the
    // phase wall-clock distributions trace_summary.py and the overhead
    // bench report percentiles from.
    metrics_.counter("quanta").add();
    metrics_.counter("migrations.total").add(stats.migrations);
    metrics_.counter("migrations.cross_chip").add(stats.cross_chip);
    metrics_.gauge("live").set(stats.live);
    metrics_.gauge("queued").set(stats.queued);
    metrics_.gauge("utilization").set(stats.utilization);
    const auto ns = [](double us) {
        return us > 0.0 ? static_cast<std::uint64_t>(us * 1000.0) : 0u;
    };
    metrics_.histogram("simulate_ns").record(ns(stats.simulate_us));
    metrics_.histogram("observe_ns").record(ns(stats.observe_us));
    metrics_.histogram("decide_ns").record(ns(stats.decide_us));
    metrics_.histogram("bind_ns").record(ns(stats.bind_us));

    if (wants(EventKind::kQuantumEnd)) {
        TraceEvent e;
        e.kind = EventKind::kQuantumEnd;
        e.quantum = stats.quantum;
        e.a = stats.live;
        e.value = stats.utilization;
        events_.push(std::move(e));
    }
}

void Tracer::emit(TraceEvent event) {
    if (!wants(event.kind)) return;
    events_.push(std::move(event));
}

void Tracer::prepare_chips(int chips) {
    if (!cfg_.enabled) return;
    if (chip_events_.size() == static_cast<std::size_t>(chips)) return;
    chip_events_.clear();
    chip_events_.reserve(static_cast<std::size_t>(chips));
    // Per-chip rings share the main capacity evenly so a many-chip run
    // cannot hold more buffered chip events than the configured bound.
    const std::size_t per_chip =
        std::max<std::size_t>(1, cfg_.capacity / std::max(1, chips));
    for (int c = 0; c < chips; ++c) chip_events_.emplace_back(per_chip);
}

void Tracer::emit_chip(int chip, TraceEvent event) {
    if (!wants(event.kind)) return;
    if (static_cast<std::size_t>(chip) >= chip_events_.size()) return;  // not prepared
    chip_events_[static_cast<std::size_t>(chip)].push(std::move(event));
}

void Tracer::merge_chip_events() {
    if (!cfg_.enabled) return;
    // Ascending chip order: the merged stream is independent of which shard
    // ran which chip, so traces are identical at every SYNPA_SIM_THREADS.
    for (EventRing& ring : chip_events_)
        for (TraceEvent& e : ring.drain()) events_.push(std::move(e));
}

void Tracer::finish() {
    if (finished_ || !cfg_.enabled || cfg_.file.empty()) return;
    finished_ = true;
    const auto write = [](const std::string& path, const auto& body) {
        std::ofstream os(path);
        if (!os) throw std::runtime_error("Tracer: cannot open " + path);
        body(os);
        if (!os) throw std::runtime_error("Tracer: failed writing " + path);
    };
    write(cfg_.file, [this](std::ostream& os) { write_chrome_trace(os, *this); });
    write(metrics_csv_path(cfg_.file), [this](std::ostream& os) { write_metrics_csv(os, *this); });
    write(registry_csv_path(cfg_.file), [this](std::ostream& os) { metrics_.write_csv(os); });
}

std::string derive_trace_path(const std::string& base, const std::string& tag) {
    const std::size_t slash = base.find_last_of('/');
    const std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
        return base + "-" + tag;
    return base.substr(0, dot) + "-" + tag + base.substr(dot);
}

}  // namespace synpa::obs
