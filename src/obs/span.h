// fenrir::obs — RAII trace spans and the aggregated profile tree.
//
// The final third of the observability subsystem (see log.h, metrics.h).
// A Span brackets a pipeline stage and records its wall time into a
// process-wide tree aggregated per name:
//
//   {
//     obs::Span span("analyze");          // parent
//     { obs::Span s("phi_matrix"); ... }  // nested child
//   }
//   obs::write_profile(std::cout);        // indented count/total/p50/p95
//
// Hierarchy comes from dynamic nesting (a Span opened while another is
// live on the same thread becomes its child) and from '/' in the name:
// Span("clean/interpolate") opens the path clean → interpolate in one
// object. Aggregation is per tree node: count, total seconds, and a
// fixed-bucket latency histogram giving p50/p95 (see
// Histogram::duration_bounds).
//
// Profiling is off by default and near-zero-cost when off: the Span
// constructor is one relaxed atomic load, with no clock read. When on,
// a span costs one steady_clock read pair plus a node lookup. Spans
// observe, never steer: analysis results are bit-identical with
// profiling on or off.
//
// Threading: each thread has its own current-span cursor.
// core::parallel_for hands the dispatching thread's cursor to every
// helper thread it starts (internal::SpanParentScope), so spans opened
// inside parallel_for bodies nest under the call site that dispatched
// them rather than rooting at the top of the tree. Stat updates are atomic;
// node creation takes a short global lock the first time a path is
// seen.
//
// Spans also feed the Chrome-trace timeline (trace_export.h): when
// tracing is enabled each Span additionally emits begin/end events,
// independently of whether profiling is on.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fenrir::obs {

void set_profiling(bool on) noexcept;
bool profiling_enabled() noexcept;

namespace internal {

struct SpanNode;

/// The innermost live span node on this thread (null at top level or
/// with profiling off). Capture it when dispatching work to another
/// thread and hand it to a SpanParentScope there.
SpanNode* current_span_node() noexcept;

/// RAII: makes @p parent this thread's span parent for the scope's
/// lifetime, so spans opened here nest under the dispatching call site.
/// A null parent leaves the cursor untouched. Used by parallel_for's
/// helper threads; not part of the public surface.
class SpanParentScope {
 public:
  explicit SpanParentScope(SpanNode* parent) noexcept;
  ~SpanParentScope();

  SpanParentScope(const SpanParentScope&) = delete;
  SpanParentScope& operator=(const SpanParentScope&) = delete;

 private:
  SpanNode* previous_;
  bool active_;
};

}  // namespace internal

class Span {
 public:
  /// @p name is a '/'-separated path relative to the innermost live span
  /// on this thread. Must outlive the span (string literals in practice).
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  internal::SpanNode* node_ = nullptr;     // null when profiling is off
  internal::SpanNode* previous_ = nullptr; // restored on close
  const char* name_ = nullptr;             // set when tracing; borrowed
  bool traced_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// One aggregated node of the profile tree (pre-order, children sorted
/// by name, depth 0 = top level). Nodes never observed (count 0) are
/// omitted.
struct ProfileEntry {
  std::string name;
  int depth = 0;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
};

/// Snapshot of the aggregated tree. Safe to call while spans are live on
/// other threads (their still-open intervals are simply not included).
std::vector<ProfileEntry> profile_entries();

/// Indented human-readable report of profile_entries().
void write_profile(std::ostream& out);

/// profile_entries() as one JSON object:
///   {"spans":[{"name":...,"depth":...,"count":...,"total_seconds":...,
///              "p50_seconds":...,"p95_seconds":...},...]}
/// Pre-order with depth, i.e. the flattened span tree. Serves the
/// status server's /profile endpoint.
void write_profile_json(std::ostream& out);

/// Zeroes all aggregated stats (tree shape is retained internally but
/// zero-count nodes disappear from reports). For tests and repeated runs.
void reset_profile();

}  // namespace fenrir::obs
