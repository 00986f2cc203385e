#include "obs/trace_export.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace fenrir::obs {

namespace {

struct TraceEvent {
  const char* name;       // borrowed; Span guarantees the lifetime
  std::uint64_t ts_us;    // microseconds since the trace epoch
  bool begin;
};

/// One buffer per thread, owned jointly by the thread (fast appends) and
/// the global registry (flushes after the thread exited). The per-buffer
/// mutex is uncontended on the append path — only a flush ever takes it
/// from another thread.
struct ThreadBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::string name;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
};

std::atomic<bool> g_tracing{false};

std::mutex& buffers_mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<std::shared_ptr<ThreadBuffer>>& buffers() {
  // Leaked on purpose: worker threads may outlive static destruction.
  static auto* list = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *list;
}

/// The buffers of exited threads, waiting for a thread of the same name
/// to take them over (guarded by buffers_mutex(), leaked like buffers()).
std::vector<std::shared_ptr<ThreadBuffer>>& parked() {
  static auto* list = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *list;
}

/// A thread's hold on its buffer. The buffer is made on first use and
/// parked when the thread exits, so parallel_for's per-call helpers
/// reuse one timeline row per name instead of adding three per call.
struct LocalBuffer {
  std::shared_ptr<ThreadBuffer> buffer;

  LocalBuffer() = default;
  LocalBuffer(const LocalBuffer&) = delete;
  LocalBuffer& operator=(const LocalBuffer&) = delete;
  ~LocalBuffer() {
    if (!buffer) return;
    try {
      const std::lock_guard<std::mutex> lock(buffers_mutex());
      parked().push_back(std::move(buffer));
    } catch (...) {
      // Unparked, the buffer keeps its row and only is not reused.
    }
  }
};

LocalBuffer& local_slot() {
  thread_local LocalBuffer slot;
  return slot;
}

/// Events are stamped relative to one process-wide steady epoch so all
/// threads share a timeline. Initialized on first use.
std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

ThreadBuffer& local_buffer() {
  LocalBuffer& slot = local_slot();
  if (!slot.buffer) {
    auto b = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    b->tid = static_cast<std::uint32_t>(buffers().size());
    buffers().push_back(b);
    slot.buffer = std::move(b);
  }
  return *slot.buffer;
}

Counter& dropped_counter() {
  static Counter& c = registry().counter(
      "fenrir_trace_events_dropped_total",
      "trace events dropped by the per-thread buffer cap");
  return c;
}

void append(const char* name, bool begin) noexcept {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  try {
    const std::uint64_t ts = now_us();
    ThreadBuffer& b = local_buffer();
    const std::lock_guard<std::mutex> lock(b.mu);
    if (b.events.size() >= kMaxEventsPerThread) {
      ++b.dropped;
      dropped_counter().inc();
      return;
    }
    b.events.push_back(TraceEvent{name, ts, begin});
  } catch (...) {
    // Tracing must never take the traced program down (allocation
    // failure here is the only throwing path).
  }
}

}  // namespace

void set_tracing(bool on) noexcept {
  if (on) trace_epoch();  // pin the epoch before the first event
  g_tracing.store(on, std::memory_order_relaxed);
}

bool tracing_enabled() noexcept {
  return g_tracing.load(std::memory_order_relaxed);
}

void trace_begin(const char* name) noexcept { append(name, true); }
void trace_end(const char* name) noexcept { append(name, false); }

void set_trace_thread_name(std::string name) {
  LocalBuffer& slot = local_slot();
  if (!slot.buffer) {
    // A thread with no buffer yet takes over a parked one of its name.
    // Only exited threads park, so no two live threads share a row.
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    std::vector<std::shared_ptr<ThreadBuffer>>& list = parked();
    for (auto it = list.begin(); it != list.end(); ++it) {
      if ((*it)->name == name) {
        slot.buffer = std::move(*it);
        list.erase(it);
        return;
      }
    }
  }
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mu);
  b.name = std::move(name);
}

void write_trace_json(std::ostream& out) {
  // Snapshot the buffer list, then each buffer under its own mutex.
  std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    snapshot = buffers();
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& buffer : snapshot) {
    std::vector<TraceEvent> events;
    std::string name;
    std::uint32_t tid = 0;
    {
      const std::lock_guard<std::mutex> lock(buffer->mu);
      events = buffer->events;
      name = buffer->name;
      tid = buffer->tid;
    }
    if (!name.empty()) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << tid << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
    }
    for (const TraceEvent& e : events) {
      if (!first) out << ',';
      first = false;
      out << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\""
          << (e.begin ? 'B' : 'E') << "\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << e.ts_us << '}';
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool write_trace_json_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_json(out);
  return static_cast<bool>(out);
}

void reset_trace() {
  std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    snapshot = buffers();
  }
  for (const auto& buffer : snapshot) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::size_t trace_event_count() {
  std::vector<std::shared_ptr<ThreadBuffer>> snapshot;
  {
    const std::lock_guard<std::mutex> lock(buffers_mutex());
    snapshot = buffers();
  }
  std::size_t total = 0;
  for (const auto& buffer : snapshot) {
    const std::lock_guard<std::mutex> lock(buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

}  // namespace fenrir::obs
