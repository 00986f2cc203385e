// fenrir::obs — Chrome-trace / Perfetto span-event export.
//
// The profile tree (span.h) aggregates: it answers "how much time did
// phi_matrix take in total". A timeline answers the other half — "what
// ran *when*, on which thread, overlapping what" — which is how you see
// parallel_for helpers sitting idle behind one slow stride or a sweep
// stalled on retries. When tracing is on, every obs::Span additionally
// records begin/end *events* (thread id, microsecond timestamps) into a
// per-thread buffer; write_trace_json() flushes them as Chrome's trace
// event format:
//
//   {"traceEvents":[{"name":"analyze","ph":"B","pid":1,"tid":0,"ts":12},
//                   {"name":"analyze","ph":"E","pid":1,"tid":0,"ts":9817},
//                   {"name":"thread_name","ph":"M",...}]}
//
// Load the file in chrome://tracing or https://ui.perfetto.dev. Threads
// carry names (set_trace_thread_name): while tracing is on,
// core::parallel_for labels each helper it starts fenrir-worker-N, so
// how busy a job's threads were is readable at a glance. Every thread
// that records or is named keeps its buffer for the life of the
// process; when the thread exits, its buffer is parked, and the next
// thread given the same name takes it over (events and tid included).
// The helpers parallel_for starts per call thus fill one row per
// worker index, and kMaxEventsPerThread bounds each row.
//
// Cost model mirrors span.h: with tracing off a span checks one relaxed
// atomic and records nothing. With tracing on an event append takes the
// buffer's own (uncontended) mutex — timelines observe, never steer.
// Buffers cap at kMaxEventsPerThread events per thread; overflow is
// counted in the fenrir_trace_events_dropped_total metric, not silently
// swallowed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace fenrir::obs {

void set_tracing(bool on) noexcept;
bool tracing_enabled() noexcept;

/// Appends a begin/end event for @p name on this thread's buffer. @p name
/// must outlive the trace (string literals in practice — obs::Span's
/// contract). No-ops when tracing is off.
void trace_begin(const char* name) noexcept;
void trace_end(const char* name) noexcept;

/// Labels this thread in exported timelines (Chrome thread_name
/// metadata). Callable before tracing is enabled; the last call wins.
/// A thread that has neither traced nor been named before adopts the
/// parked buffer of an exited thread of the same name, if there is one,
/// and appends to its row.
void set_trace_thread_name(std::string name);

/// Flushes every thread's buffered events as one Chrome-trace JSON
/// object. Safe while other threads keep tracing (their in-flight spans
/// simply miss the snapshot). Events are not consumed — a later flush
/// writes a superset.
void write_trace_json(std::ostream& out);

/// write_trace_json to @p path; false when the file cannot be written.
bool write_trace_json_file(const std::string& path);

/// Drops all buffered events (thread names are kept). For tests and
/// repeated runs.
void reset_trace();

/// Buffered events across all threads (tests).
std::size_t trace_event_count();

inline constexpr std::size_t kMaxEventsPerThread = 1u << 20;

}  // namespace fenrir::obs
