#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/distance_matrix.h"
#include "obs/trace_export.h"
#include "rng/rng.h"

namespace fenrir::core {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const unsigned threads : {0u, 1u, 2u, 7u}) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
  std::atomic<int> calls{0};
  parallel_for(1, [&](std::size_t) { calls.fetch_add(1); }, 8);
  EXPECT_EQ(calls.load(), 1);
  parallel_for(3, [&](std::size_t) { calls.fetch_add(1); }, 64);
  EXPECT_EQ(calls.load(), 4);
}

TEST(ParallelFor, GrainCutoffRunsSmallJobsSerialInline) {
  auto& jobs = obs::registry().counter("fenrir_parallel_jobs_total");

  // Below the grain the job must start no helper: the jobs counter
  // (incremented only for calls of two or more strides) stays put, and
  // every index still runs exactly once.
  const auto before_small = jobs.value();
  std::vector<std::atomic<int>> hits(100);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
               /*threads=*/8, /*grain=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(jobs.value(), before_small);

  // The grain also caps the worker count (count/grain workers), not just
  // the serial cutoff — 1000 indices at grain 400 feed at most 2 workers.
  std::vector<std::atomic<int>> more(1000);
  parallel_for(more.size(), [&](std::size_t i) { more[i].fetch_add(1); },
               /*threads=*/8, /*grain=*/400);
  for (const auto& h : more) EXPECT_EQ(h.load(), 1);

  // Well above the grain, multi-thread requests still dispatch (on
  // single-core hosts threads=0 resolves to 1 and stays inline, so pin
  // an explicit thread count).
  const auto before_large = jobs.value();
  std::vector<std::atomic<int>> large(4096);
  parallel_for(large.size(), [&](std::size_t i) { large[i].fetch_add(1); },
               /*threads=*/2, /*grain=*/64);
  for (const auto& h : large) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(jobs.value(), before_large + 1);
}

TEST(ParallelFor, RethrowsFirstWorkerException) {
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<int> calls{0};
    try {
      parallel_for(
          100,
          [&](std::size_t i) {
            calls.fetch_add(1);
            if (i == 13) throw std::runtime_error("boom at 13");
          },
          threads);
      FAIL() << "expected the worker exception to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 13");
    }
    // Other workers finish their strides; nothing deadlocks or leaks.
    EXPECT_GE(calls.load(), 1);
  }
}

TEST(ParallelFor, PoolSurvivesManyConsecutiveJobs) {
  // Back-to-back calls each start and join their own helpers; nothing
  // leaks from one job into the next (stride counter, error slots).
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for(64, [&](std::size_t i) { sum.fetch_add(i + 1); },
                 round % 2 == 0 ? 4u : 0u);
    ASSERT_EQ(sum.load(), 64u * 65u / 2u) << "round " << round;
  }
}

TEST(ParallelFor, NestedCallRunsSerialInline) {
  // A parallel_for inside a parallel_for body starts no helpers of its
  // own; the inner call degrades to the serial loop.
  std::vector<std::atomic<int>> hits(32 * 16);
  parallel_for(32, [&](std::size_t outer) {
    parallel_for(16, [&](std::size_t inner) {
      hits[outer * 16 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentCallersFromIndependentThreads) {
  // Two threads issuing jobs at once: each call starts its own helpers,
  // so the jobs run side by side; both complete with every index visited
  // exactly once.
  std::vector<std::atomic<int>> a(2000), b(2000);
  std::thread t1([&] {
    for (int round = 0; round < 20; ++round) {
      parallel_for(a.size(), [&](std::size_t i) { a[i].fetch_add(1); }, 3);
    }
  });
  std::thread t2([&] {
    for (int round = 0; round < 20; ++round) {
      parallel_for(b.size(), [&](std::size_t i) { b[i].fetch_add(1); }, 5);
    }
  });
  t1.join();
  t2.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 20);
  for (const auto& h : b) EXPECT_EQ(h.load(), 20);
}

TEST(ParallelFor, ConcurrentCallersOverlap) {
  // Nothing is shared between calls, so one caller's job never waits for
  // another's: stride 0 of each two-stride job waits until the other
  // job's stride 0 has started. A process-wide job lock would hold one
  // job back until the other finished, and that wait would time out.
  std::atomic<bool> started[2] = {false, false};
  std::atomic<bool> saw_other[2] = {false, false};
  const auto job = [&](int self) {
    parallel_for(
        2,
        [&, self](std::size_t i) {
          if (i != 0) return;
          started[self].store(true);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!started[1 - self].load()) {
            if (std::chrono::steady_clock::now() > deadline) return;
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          saw_other[self].store(true);
        },
        /*threads=*/2);
  };
  std::thread t1(job, 0);
  std::thread t2(job, 1);
  t1.join();
  t2.join();
  EXPECT_TRUE(saw_other[0].load()) << "job 0 never overlapped job 1";
  EXPECT_TRUE(saw_other[1].load()) << "job 1 never overlapped job 0";
}

TEST(ParallelFor, MoreStridesThanHardwareThreads) {
  // Requesting more logical workers than there are hardware threads
  // multiplexes strides over at most hardware_concurrency() threads (the
  // caller and its helpers); every index still runs exactly once and
  // exceptions still surface from the lowest-numbered throwing stride.
  std::vector<std::atomic<int>> hits(500);
  std::mutex mu;
  std::set<std::thread::id> ran_on;
  parallel_for(
      hits.size(),
      [&](std::size_t i) {
        hits[i].fetch_add(1);
        const std::lock_guard<std::mutex> lock(mu);
        ran_on.insert(std::this_thread::get_id());
      },
      64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(ran_on.size(),
            std::max(1u, std::thread::hardware_concurrency()));

  try {
    parallel_for(
        500,
        [&](std::size_t i) {
          if (i >= 100) throw std::runtime_error("stride fault");
        },
        64);
    FAIL() << "expected the stride exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "stride fault");
  }
}

TEST(ParallelFor, MovableOnlyCallableCompiles) {
  auto ptr = std::make_unique<int>(7);
  std::atomic<int> sum{0};
  parallel_for(4, [p = std::move(ptr), &sum](std::size_t) {
    sum.fetch_add(*p);
  });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ParallelFor, DisjointWritesAreComplete) {
  std::vector<std::size_t> out(5000, 0);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, WorkerSpansNestUnderTheDispatchSite) {
  // The dispatching thread's span cursor is handed to every helper the
  // call starts (SpanParentScope), so spans opened inside parallel_for
  // bodies — whether the body ran on the caller or on a helper —
  // aggregate under the call-site span instead of rooting their own
  // trees.
  obs::set_profiling(true);
  obs::reset_profile();
  {
    obs::Span dispatch("dispatch_site");
    parallel_for(
        64, [](std::size_t) { obs::Span inner("stride_work"); }, 4);
  }
  const auto entries = obs::profile_entries();
  obs::set_profiling(false);
  obs::reset_profile();

  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "dispatch_site");
  EXPECT_EQ(entries[0].depth, 0);
  EXPECT_EQ(entries[0].count, 1u);
  EXPECT_EQ(entries[1].name, "stride_work");
  EXPECT_EQ(entries[1].depth, 1);  // child of dispatch_site, not a root
  EXPECT_EQ(entries[1].count, 64u);
}

TEST(ParallelFor, TracedHelpersReuseOneTimelineRowPerIndex) {
  // Each call starts fresh helpers; helper w names itself
  // fenrir-worker-<w> and takes over the trace buffer the previous
  // call's helper w parked at exit. So 200 traced calls leave at most
  // one row per helper index, and every call's spans are there, in call
  // order on each row.
  constexpr std::size_t kCalls = 200;
  constexpr std::size_t kIndices = 8;
  std::vector<std::string> names;  // span names outlive the trace
  for (std::size_t c = 0; c < kCalls; ++c) {
    names.push_back("call_" + std::to_string(c));
  }
  obs::set_tracing(true);
  obs::reset_trace();
  for (std::size_t c = 0; c < kCalls; ++c) {
    parallel_for(kIndices,
                 [&](std::size_t) { obs::Span span(names[c].c_str()); });
  }
  std::ostringstream json;
  obs::write_trace_json(json);
  obs::set_tracing(false);
  obs::reset_trace();
  const std::string text = json.str();

  std::set<unsigned long> worker_tids;
  const std::regex row(
      "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":(\\d+),"
      "\"args\":\\{\"name\":\"fenrir-worker-");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), row);
       it != std::sregex_iterator(); ++it) {
    worker_tids.insert(std::stoul((*it)[1].str()));
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(worker_tids.size(), hardware - 1);

  std::vector<std::size_t> begins(kCalls, 0);
  std::map<unsigned long, std::size_t> last_call;  // per tid
  const std::regex begin(
      "\"name\":\"call_(\\d+)\",\"ph\":\"B\",\"pid\":1,\"tid\":(\\d+)");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), begin);
       it != std::sregex_iterator(); ++it) {
    const std::size_t call = std::stoul((*it)[1].str());
    const unsigned long tid = std::stoul((*it)[2].str());
    ASSERT_LT(call, kCalls);
    ++begins[call];
    std::size_t& last = last_call.try_emplace(tid, call).first->second;
    EXPECT_LE(last, call) << "tid " << tid << " out of call order";
    last = call;
  }
  for (std::size_t c = 0; c < kCalls; ++c) {
    EXPECT_EQ(begins[c], kIndices) << "call " << c;
  }
}

Dataset random_dataset(std::size_t obs, std::size_t nets,
                       std::uint64_t seed) {
  Dataset d;
  d.name = "par";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (int s = 0; s < 5; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(seed);
  TimePoint t = 0;
  for (std::size_t i = 0; i < obs; ++i) {
    RoutingVector v;
    v.time = t;
    t += kDay;
    v.valid = !r.bernoulli(0.1);
    v.assignment.resize(nets);
    for (auto& s : v.assignment) {
      s = static_cast<SiteId>(r.uniform(8));  // includes reserved ids
    }
    d.series.push_back(std::move(v));
  }
  return d;
}

TEST(ParallelMatrix, BitIdenticalToSerialForAnyThreadCount) {
  const Dataset d = random_dataset(60, 500, 77);
  const auto serial = SimilarityMatrix::compute(
      d, UnknownPolicy::kPessimistic, /*threads=*/1);
  for (const unsigned threads : {0u, 2u, 3u, 16u}) {
    const auto parallel =
        SimilarityMatrix::compute(d, UnknownPolicy::kPessimistic, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_EQ(parallel.phi(i, j), serial.phi(i, j))
            << i << "," << j << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelMatrix, PoolEngagesOnLargeRowsAndStaysBitIdentical) {
  // Large enough that the settle's fills actually start helper threads
  // (work above the serial cutoff) — the multi-threaded schedule must
  // reproduce the serial bits exactly.
  const Dataset d = random_dataset(220, 600, 80);
  const auto serial =
      SimilarityMatrix::compute(d, UnknownPolicy::kKnownOnly, 1);
  for (const unsigned threads : {0u, 2u, 5u}) {
    const auto parallel =
        SimilarityMatrix::compute(d, UnknownPolicy::kKnownOnly, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        ASSERT_EQ(parallel.phi(i, j), serial.phi(i, j))
            << i << "," << j << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelMatrix, WeightedPathToo) {
  Dataset d = random_dataset(40, 300, 78);
  d.weights.assign(300, 1.0);
  rng::Rng r(5);
  for (auto& w : d.weights) w = 0.5 + r.uniform01();
  const auto serial =
      SimilarityMatrix::compute(d, UnknownPolicy::kKnownOnly, 1);
  const auto parallel =
      SimilarityMatrix::compute(d, UnknownPolicy::kKnownOnly, 0);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(parallel.phi(i, j), serial.phi(i, j));
    }
  }
}

TEST(ParallelMatrix, WeightSizeMismatchThrowsBeforeWork) {
  Dataset d = random_dataset(4, 10, 79);
  d.weights = {1.0, 2.0};  // wrong size
  EXPECT_THROW(SimilarityMatrix::compute(d), std::invalid_argument);
}

}  // namespace
}  // namespace fenrir::core
