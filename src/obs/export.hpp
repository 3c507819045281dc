// Trace exporters: Chrome-trace/Perfetto JSON and a per-quantum metrics
// CSV.  The JSON uses the *simulated* quantum as the timebase (1 quantum =
// 1 ms of trace time, so a run reads naturally in Perfetto's timeline) and
// renders the policy's host wall-clock as counter tracks; load it at
// https://ui.perfetto.dev or chrome://tracing, or feed it to
// tools/trace_summary.py.
#pragma once

#include <iosfwd>
#include <string>

namespace synpa::obs {

class Tracer;

/// Chrome-trace JSON ("traceEvents" array): pid 0 is the scheduler (one
/// "X" slice per quantum, counter tracks for occupancy/utilization/phase
/// wall-clock, instants for migrations/admissions/retirements/allocations/
/// alarms/refits), pid 1+c is chip c ("X" chip-quantum slices with the
/// shard's measured wall microseconds).
void write_chrome_trace(std::ostream& os, const Tracer& tracer);

/// Per-quantum sample rows:
/// quantum,live,queued,utilization,migrations,cross_chip,simulate_us,
/// observe_us,decide_us,bind_us.  (Aggregate instrument summaries come
/// from MetricsRegistry::write_csv; see registry_csv_path.)
void write_metrics_csv(std::ostream& os, const Tracer& tracer);

/// Where the metrics CSV lands for a given trace path: "t.json" ->
/// "t.metrics.csv" (non-.json paths just append ".metrics.csv").
std::string metrics_csv_path(const std::string& trace_path);

/// Where the metrics-registry CSV (MetricsRegistry::write_csv: every
/// counter, gauge and histogram recorded during the run) lands for a given
/// trace path: "t.json" -> "t.registry.csv".
std::string registry_csv_path(const std::string& trace_path);

}  // namespace synpa::obs
