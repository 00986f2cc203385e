// fenrir::core — minimal deterministic parallelism.
//
// The only expensive stage in Fenrir is embarrassingly parallel: the
// all-pairs Φ matrix (T² comparisons of N-element vectors). parallel_for
// splits an index range into stride loops with no work stealing and no
// shared mutable state beyond what the caller partitions, so results are
// bit-identical to the serial loop regardless of thread count or
// scheduling.
//
// Each call starts its own helper threads and joins them before it
// returns: nothing outlives a call and nothing is shared between calls,
// so concurrent callers run side by side. A call with n ≥ 2 strides
// starts min(n, hardware threads) − 1 helpers; the caller and the
// helpers claim strides from one atomic counter. Starting and joining a
// helper costs tens of microseconds (DESIGN.md §8), which the Φ matrix
// pays once per settle of up to 64 rows, not once per row. A call keeps
// this contract:
//
//  * the stride schedule — logical stride w handles i = w, w+n, w+2n,
//    ...; when n exceeds the threads, a thread that finishes a stride
//    claims the next;
//  * determinism — fn writes to disjoint state per index, so results do
//    not depend on which thread runs which stride;
//  * exceptions — the lowest-numbered throwing stride is rethrown after
//    all strides finish; a throwing stride skips its remaining indices,
//    other strides run to completion;
//  * metrics — fenrir_parallel_jobs_total and the max/mean stride
//    busy-time imbalance ratio of the last job.
//
// A parallel_for call from inside a parallel_for body runs serially
// inline. A helper that cannot be started is not an error: its strides
// go to the threads that did start.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace fenrir::core {

namespace detail {

/// True while this thread is executing inside a parallel_for (as caller
/// or helper); nested calls then run serially inline.
bool& in_parallel_region() noexcept;

/// Marks a freshly started helper as inside a parallel region and, only
/// while tracing is on, names it fenrir-worker-<index> in the timeline
/// (it takes over the trace buffer an exited helper of that index
/// parked, so successive calls share one row per index).
void enter_helper(unsigned index) noexcept;

}  // namespace detail

/// Invokes fn(i) for every i in [0, count), distributing indices across
/// @p threads logical workers (0 = hardware concurrency) with a stride-n
/// schedule: worker w handles i = w, w+n, w+2n, ... Striding balances
/// loops whose per-index cost varies monotonically (the triangular
/// similarity matrix: row i compares i pairs), where contiguous chunks
/// would leave the last worker with almost all the work. fn must be safe
/// to call concurrently for distinct i. If strides throw, the exception
/// of the lowest-numbered throwing stride is rethrown after all strides
/// have finished (remaining indices of a throwing stride are skipped).
///
/// Stride busy time feeds the fenrir_parallel_* metrics (jobs run, and
/// the max/mean busy-time imbalance ratio of the last job) — observation
/// only, never a scheduling input.
///
/// @p grain is the minimum number of indices a stride must amortize a
/// helper thread's start over: the worker count is capped at
/// count / grain, and a job that cannot feed even two workers runs
/// serially inline, starting no thread. Callers set grain ≈ (start cost)
/// / (cost per index); the default of 1 parallelizes any count ≥ 2.
/// Affects time only, never values — the stride schedule is
/// deterministic for every (count, threads, grain).
template <typename Fn>
void parallel_for(std::size_t count, Fn&& fn, unsigned threads = 0,
                  std::size_t grain = 1) {
  if (count == 0) return;
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  unsigned n = threads != 0 ? threads : hardware;
  if (n > count) n = static_cast<unsigned>(count);
  if (grain > 1 && count / grain < static_cast<std::size_t>(n)) {
    n = static_cast<unsigned>(count / grain);
    if (n == 0) n = 1;
  }
  if (n == 1 || detail::in_parallel_region()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  static obs::Counter& jobs = obs::registry().counter(
      "fenrir_parallel_jobs_total", "parallel_for invocations that spawned");
  static obs::Gauge& imbalance = obs::registry().gauge(
      "fenrir_parallel_imbalance_ratio",
      "max/mean stride busy time of the last parallel_for");
  std::vector<std::exception_ptr> errors(n);
  std::vector<double> busy(n, 0.0);
  std::atomic<unsigned> next{0};
  // Nothing escapes a stride, so no helper outlives this call unjoined.
  const auto claim_strides = [&]() noexcept {
    for (;;) {
      const unsigned w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= n) return;
      const auto start = std::chrono::steady_clock::now();
      try {
        for (std::size_t i = w; i < count; i += n) fn(i);
      } catch (...) {
        errors[w] = std::current_exception();
      }
      busy[w] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    }
  };

  // Spans opened inside fn on a helper nest under this call site rather
  // than rooting at the top of the profile tree.
  obs::internal::SpanNode* const span_parent =
      obs::internal::current_span_node();
  const unsigned helpers = std::min(n, hardware) - 1;
  std::vector<std::thread> started;
  started.reserve(helpers);
  for (unsigned h = 0; h < helpers; ++h) {
    try {
      started.emplace_back([&claim_strides, span_parent, h] {
        detail::enter_helper(h);
        const obs::internal::SpanParentScope scope(span_parent);
        claim_strides();
      });
    } catch (...) {
      break;  // the threads that did start claim its strides
    }
  }
  detail::in_parallel_region() = true;
  claim_strides();
  detail::in_parallel_region() = false;
  for (std::thread& t : started) t.join();

  jobs.inc();
  double max_busy = 0.0, sum_busy = 0.0;
  for (const double b : busy) {
    if (b > max_busy) max_busy = b;
    sum_busy += b;
  }
  if (sum_busy > 0.0) {
    imbalance.set(max_busy * static_cast<double>(n) / sum_busy);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace fenrir::core
