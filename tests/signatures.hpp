// Exact-bit run signatures shared by the determinism tests.
//
// A signature spells out every result field a schedule change would move —
// quanta, migrations, and each task's exact finish/slowdown bits — so two
// runs compare equal only when they are bit-identical.  `digest` folds a
// signature (or an event stream) into one 64-bit literal that a test can pin
// against a value captured from an earlier build.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "scenario/runner.hpp"
#include "sched/thread_manager.hpp"

namespace synpa::testsig {

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

inline std::string signature(const sched::RunResult& r) {
    std::string sig = std::to_string(r.quanta_executed) + "/" +
                      std::to_string(r.migrations) + "/" +
                      std::to_string(r.cross_chip_migrations) + "/" +
                      std::to_string(bits(r.turnaround_quanta));
    for (const sched::TaskOutcome& out : r.outcomes) {
        sig += ";";
        sig += std::to_string(out.slot_index) + ":" + std::to_string(bits(out.finish_quantum)) +
               ":" + std::to_string(bits(out.ipc_smt)) + ":" + std::to_string(out.final_core);
    }
    return sig;
}

inline std::string signature(const scenario::ScenarioResult& r) {
    std::string sig = std::to_string(r.quanta_executed) + "/" +
                      std::to_string(r.migrations) + "/" +
                      std::to_string(r.cross_chip_migrations) + "/" +
                      std::to_string(r.completed_tasks);
    for (const scenario::TaskRecord& rec : r.tasks) {
        sig += ";";
        sig += std::to_string(rec.task_id) + ":" + std::to_string(rec.admit_quantum) + ":" +
               std::to_string(bits(rec.finish_quantum)) + ":" +
               std::to_string(bits(rec.slowdown)) + ":" + std::to_string(rec.chip_id);
    }
    return sig;
}

/// The tracer's retained event stream as kind:quantum:chip:task:core records.
inline std::string event_stream(const obs::Tracer& tracer) {
    std::string s;
    for (std::size_t i = 0; i < tracer.events().size(); ++i) {
        const obs::TraceEvent& e = tracer.events().at(i);
        s += std::string(obs::event_kind_name(e.kind)) + ":" + std::to_string(e.quantum) +
             ":" + std::to_string(e.chip) + ":" + std::to_string(e.task) + ":" +
             std::to_string(e.core) + ";";
    }
    return s;
}

/// FNV-1a over the bytes of `s`.
inline std::uint64_t digest(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace synpa::testsig
