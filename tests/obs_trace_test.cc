// Tests for Chrome-trace export: spans emit begin/end events only when
// tracing is on, thread names survive thread exit as metadata events,
// an exited thread's row is taken over by the next thread of its name,
// reset drops events but keeps names, and the JSON file writer reports
// unwritable paths instead of lying.
#include "obs/trace_export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.h"

namespace fenrir::obs {
namespace {

/// Tracing is process-global; every test starts and ends with it off
/// and the buffers empty.
struct TraceGuard {
  TraceGuard() {
    set_tracing(false);
    reset_trace();
  }
  ~TraceGuard() {
    set_tracing(false);
    reset_trace();
  }
};

std::string trace_json() {
  std::ostringstream os;
  write_trace_json(os);
  return os.str();
}

TEST(Trace, OffByDefaultAndCostsNothing) {
  TraceGuard guard;
  EXPECT_FALSE(tracing_enabled());
  { Span span("untraced"); }
  trace_begin("manual");
  trace_end("manual");
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Trace, SpansEmitPairedBeginEndEvents) {
  TraceGuard guard;
  set_tracing(true);
  {
    Span outer("traced_outer");
    Span inner("traced_inner");
  }
  EXPECT_EQ(trace_event_count(), 4u);

  const std::string json = trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"traced_outer\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"traced_outer\",\"ph\":\"E\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"traced_inner\",\"ph\":\"B\""),
            std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(Trace, SpansTraceEvenWithProfilingOff) {
  TraceGuard guard;
  set_profiling(false);
  set_tracing(true);
  { Span span("trace_only"); }
  EXPECT_EQ(trace_event_count(), 2u);
}

TEST(Trace, WorkerThreadEventsSurviveThreadExit) {
  TraceGuard guard;
  set_tracing(true);
  std::thread worker([] {
    set_trace_thread_name("test-worker-thread");
    trace_begin("worker_job");
    trace_end("worker_job");
  });
  worker.join();
  // The worker is gone; its buffer (and name) must still flush.
  const std::string json = trace_json();
  EXPECT_NE(json.find("worker_job"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"ph\":\"M\""),
            std::string::npos);
  EXPECT_NE(json.find("test-worker-thread"), std::string::npos);
}

/// The tids of the thread_name rows called @p name.
std::vector<std::string> rows_named(const std::string& json,
                                    const std::string& name) {
  std::vector<std::string> tids;
  const std::string tail = ",\"args\":{\"name\":\"" + name + "\"}}";
  const std::string head = "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
  for (std::size_t at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    const std::size_t tid = at + head.size();
    const std::size_t comma = json.find(',', tid);
    if (json.compare(comma, tail.size(), tail) == 0) {
      tids.push_back(json.substr(tid, comma - tid));
    }
  }
  return tids;
}

TEST(Trace, ExitedThreadsRowIsTakenOverByItsName) {
  TraceGuard guard;
  set_tracing(true);
  // Two threads of one name, one after the other: the second takes over
  // the row the first parked at exit, and its events follow the first's.
  for (const char* span : {"first_life", "second_life"}) {
    std::thread t([span] {
      set_trace_thread_name("reused-row");
      trace_begin(span);
      trace_end(span);
    });
    t.join();
  }
  std::string json = trace_json();
  const std::vector<std::string> reused = rows_named(json, "reused-row");
  ASSERT_EQ(reused.size(), 1u);
  const std::string on_row = "\"pid\":1,\"tid\":" + reused[0] + ",";
  const std::size_t first = json.find("\"name\":\"first_life\",\"ph\":\"B\"");
  const std::size_t second = json.find("\"name\":\"second_life\",\"ph\":\"B\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_EQ(json.compare(json.find("\"pid\"", first), on_row.size(), on_row), 0);
  EXPECT_EQ(json.compare(json.find("\"pid\"", second), on_row.size(), on_row), 0);

  // Live threads never share a row: of two threads named alike while
  // both run, one takes the parked row and the other gets a new one.
  std::latch named(2);
  const auto twin = [&named] {
    set_trace_thread_name("reused-row");
    named.arrive_and_wait();
  };
  std::thread a(twin), b(twin);
  a.join();
  b.join();
  json = trace_json();
  EXPECT_EQ(rows_named(json, "reused-row").size(), 2u);
}

TEST(Trace, ResetDropsEventsButKeepsThreadNames) {
  TraceGuard guard;
  set_tracing(true);
  set_trace_thread_name("kept-after-reset");
  trace_begin("dropped");
  trace_end("dropped");
  ASSERT_GT(trace_event_count(), 0u);
  reset_trace();
  EXPECT_EQ(trace_event_count(), 0u);
  const std::string json = trace_json();
  EXPECT_EQ(json.find("\"dropped\""), std::string::npos);
  EXPECT_NE(json.find("kept-after-reset"), std::string::npos);
}

TEST(Trace, TimestampsAreMonotonePerThread) {
  TraceGuard guard;
  set_tracing(true);
  { Span span("first"); }
  { Span span("second"); }
  const std::string json = trace_json();
  // "first" begins before "second" begins; a crude but effective check
  // that events flush in recording order.
  EXPECT_LT(json.find("\"name\":\"first\",\"ph\":\"B\""),
            json.find("\"name\":\"second\",\"ph\":\"B\""));
}

TEST(Trace, FileWriterRoundTripsAndReportsFailure) {
  TraceGuard guard;
  set_tracing(true);
  { Span span("to_file"); }

  const std::string path = ::testing::TempDir() + "fenrir_trace_test.json";
  std::remove(path.c_str());
  ASSERT_TRUE(write_trace_json_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"to_file\""), std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(write_trace_json_file(
      ::testing::TempDir() + "no_such_dir/trace.json"));
}

}  // namespace
}  // namespace fenrir::obs
