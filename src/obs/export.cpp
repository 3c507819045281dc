#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>

#include "obs/trace.hpp"

namespace synpa::obs {
namespace {

/// Trace time per simulated quantum, microseconds (1 quantum = 1 ms).
constexpr std::uint64_t kQuantumUs = 1000;

/// Minimal JSON string escaping for detail payloads.
std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

class EventWriter {
public:
    explicit EventWriter(std::ostream& os) : os_(os) {}

    /// Starts one traceEvents entry; the caller appends `"args":{...}` via
    /// args()/field() and closes with done().
    EventWriter& open(const char* ph, int pid, int tid, std::uint64_t ts,
                      const std::string& name) {
        os_ << (first_ ? "\n  " : ",\n  ");
        first_ = false;
        os_ << "{\"ph\":\"" << ph << "\",\"pid\":" << pid << ",\"tid\":" << tid
            << ",\"ts\":" << ts << ",\"name\":\"" << json_escape(name) << "\"";
        return *this;
    }
    EventWriter& dur(std::uint64_t d) {
        os_ << ",\"dur\":" << d;
        return *this;
    }
    EventWriter& scope_thread() {
        os_ << ",\"s\":\"t\"";
        return *this;
    }
    EventWriter& args_begin() {
        os_ << ",\"args\":{";
        first_arg_ = true;
        return *this;
    }
    EventWriter& arg(const char* key, double value) {
        sep() << "\"" << key << "\":" << value;
        return *this;
    }
    EventWriter& arg(const char* key, std::int64_t value) {
        sep() << "\"" << key << "\":" << value;
        return *this;
    }
    EventWriter& arg(const char* key, const std::string& value) {
        sep() << "\"" << key << "\":\"" << json_escape(value) << "\"";
        return *this;
    }
    EventWriter& args_end() {
        os_ << "}";
        return *this;
    }
    void done() { os_ << "}"; }

private:
    std::ostream& sep() {
        if (!first_arg_) os_ << ",";
        first_arg_ = false;
        return os_;
    }
    std::ostream& os_;
    bool first_ = true;
    bool first_arg_ = false;
};

const char* migration_class_name(int cls) noexcept {
    switch (cls) {
        case 0: return "slot";
        case 1: return "intra_chip";
        case 2: return "cross_chip";
    }
    return "unknown";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    EventWriter w(os);

    // Process/thread metadata: pid 0 = the scheduler (drivers + policy),
    // pid 1+c = chip c.
    int max_chip = -1;
    for (std::size_t i = 0; i < tracer.events().size(); ++i)
        max_chip = std::max(max_chip, tracer.events().at(i).chip);
    w.open("M", 0, 0, 0, "process_name").args_begin().arg("name", std::string("scheduler"))
        .args_end().done();
    for (int c = 0; c <= max_chip; ++c) {
        w.open("M", 1 + c, 0, 0, "process_name")
            .args_begin()
            .arg("name", "chip " + std::to_string(c))
            .args_end()
            .done();
    }

    // Quantum slices + counter tracks from the per-quantum samples.
    const auto& samples = tracer.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const QuantumStats& s = samples.at(i);
        const std::uint64_t ts = s.quantum * kQuantumUs;
        w.open("X", 0, 0, ts, "quantum")
            .dur(kQuantumUs)
            .args_begin()
            .arg("quantum", static_cast<std::int64_t>(s.quantum))
            .arg("live", static_cast<std::int64_t>(s.live))
            .args_end()
            .done();
        w.open("C", 0, 0, ts, "occupancy")
            .args_begin()
            .arg("live", static_cast<std::int64_t>(s.live))
            .arg("queued", static_cast<std::int64_t>(s.queued))
            .args_end()
            .done();
        w.open("C", 0, 0, ts, "utilization")
            .args_begin()
            .arg("utilization", s.utilization)
            .args_end()
            .done();
        w.open("C", 0, 0, ts, "policy_wall_us")
            .args_begin()
            .arg("observe", s.observe_us)
            .arg("decide", s.decide_us)
            .arg("bind", s.bind_us)
            .args_end()
            .done();
        w.open("C", 0, 0, ts, "simulate_wall_us")
            .args_begin()
            .arg("simulate", s.simulate_us)
            .args_end()
            .done();
        w.open("C", 0, 0, ts, "migrations")
            .args_begin()
            .arg("total", static_cast<std::int64_t>(s.migrations))
            .arg("cross_chip", static_cast<std::int64_t>(s.cross_chip))
            .args_end()
            .done();
    }

    // Structured events.
    for (std::size_t i = 0; i < tracer.events().size(); ++i) {
        const TraceEvent& e = tracer.events().at(i);
        const std::uint64_t ts = e.quantum * kQuantumUs;
        switch (e.kind) {
            case EventKind::kQuantumBegin:
            case EventKind::kQuantumEnd:
                // Rendered through the sample-driven slices/counters above.
                break;
            case EventKind::kChipQuantum:
                w.open("X", 1 + e.chip, 0, ts, "chip_quantum")
                    .dur(kQuantumUs)
                    .args_begin()
                    .arg("wall_us", e.value)
                    .args_end()
                    .done();
                break;
            case EventKind::kMigration:
                w.open("i", 0, 0, ts, "migration").scope_thread()
                    .args_begin()
                    .arg("task", static_cast<std::int64_t>(e.task))
                    .arg("from_core", static_cast<std::int64_t>(e.b))
                    .arg("to_core", static_cast<std::int64_t>(e.core))
                    .arg("class", std::string(migration_class_name(e.a)))
                    .args_end()
                    .done();
                break;
            case EventKind::kAllocation:
                w.open("i", 0, 0, ts, "allocation").scope_thread()
                    .args_begin()
                    .arg("groups", static_cast<std::int64_t>(e.a))
                    .arg("predicted_cost", e.value)
                    .arg("detail", e.detail)
                    .args_end()
                    .done();
                break;
            case EventKind::kAdmission:
                w.open("i", 0, 0, ts, "admission").scope_thread()
                    .args_begin()
                    .arg("task", static_cast<std::int64_t>(e.task))
                    .arg("core", static_cast<std::int64_t>(e.core))
                    .arg("app", e.detail)
                    .args_end()
                    .done();
                break;
            case EventKind::kRetirement:
                w.open("i", 0, 0, ts, "retirement").scope_thread()
                    .args_begin()
                    .arg("task", static_cast<std::int64_t>(e.task))
                    .arg("core", static_cast<std::int64_t>(e.core))
                    .arg("finish_quantum", e.value)
                    .arg("app", e.detail)
                    .args_end()
                    .done();
                break;
            case EventKind::kPhaseAlarm:
                w.open("i", 0, 0, ts, "phase_alarm").scope_thread()
                    .args_begin()
                    .arg("task", static_cast<std::int64_t>(e.task))
                    .args_end()
                    .done();
                break;
            case EventKind::kModelRefit:
                w.open("i", 0, 0, ts, "model_refit").scope_thread()
                    .args_begin()
                    .arg("adopted", static_cast<std::int64_t>(e.a))
                    .arg("holdout_error", e.value)
                    .args_end()
                    .done();
                break;
            case EventKind::kPreemption:
                w.open("i", 0, 0, ts, "preemption").scope_thread()
                    .args_begin()
                    .arg("task", static_cast<std::int64_t>(e.task))
                    .arg("node", static_cast<std::int64_t>(e.core))
                    .arg("victim_priority", static_cast<std::int64_t>(e.a))
                    .arg("preemptor_priority", static_cast<std::int64_t>(e.b))
                    .arg("app", e.detail)
                    .args_end()
                    .done();
                break;
        }
    }

    os << "\n],\"otherData\":{\"dropped_events\":" << tracer.dropped_events() << "}}"
       << "\n";
}

void write_metrics_csv(std::ostream& os, const Tracer& tracer) {
    os << "quantum,live,queued,utilization,migrations,cross_chip,"
          "simulate_us,observe_us,decide_us,bind_us\n";
    const auto& samples = tracer.samples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const QuantumStats& s = samples.at(i);
        os << s.quantum << ',' << s.live << ',' << s.queued << ',' << s.utilization << ','
           << s.migrations << ',' << s.cross_chip << ',' << s.simulate_us << ','
           << s.observe_us << ',' << s.decide_us << ',' << s.bind_us << '\n';
    }
}

namespace {

/// `trace_path` with its ".json" suffix (if any) replaced by `suffix`.
std::string sibling_path(const std::string& trace_path, const std::string& suffix) {
    const std::string json = ".json";
    if (trace_path.size() > json.size() &&
        trace_path.compare(trace_path.size() - json.size(), json.size(), json) == 0)
        return trace_path.substr(0, trace_path.size() - json.size()) + suffix;
    return trace_path + suffix;
}

}  // namespace

std::string metrics_csv_path(const std::string& trace_path) {
    return sibling_path(trace_path, ".metrics.csv");
}

std::string registry_csv_path(const std::string& trace_path) {
    return sibling_path(trace_path, ".registry.csv");
}

}  // namespace synpa::obs
