// Microbenchmarks of Fenrir's core operations: the costs that set how
// large a deployment one analysis host can watch.
//
// Besides the usual console table, every timing is mirrored into the
// fenrir::obs metrics registry and dumped as machine-readable JSON
// (default ./BENCH_core.json, override with FENRIR_BENCH_OUT) so
// successive PRs accumulate a diffable perf trajectory.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/routing.h"
#include "bgp/topology_gen.h"
#include "core/cluster.h"
#include "core/compare.h"
#include "core/compare_kernels.h"
#include "core/simd_dispatch.h"
#include "core/events.h"
#include "core/modebook.h"
#include "core/transition.h"
#include "io/segment_store.h"
#include "measure/federation.h"
#include "obs/lineage.h"
#include "obs/metrics.h"
#include "rng/rng.h"

namespace {

using namespace fenrir;

core::RoutingVector random_vector(std::size_t n, std::size_t sites,
                                  std::uint64_t seed, double unknown_frac) {
  rng::Rng r(seed);
  core::RoutingVector v;
  v.assignment.resize(n);
  for (auto& s : v.assignment) {
    s = r.bernoulli(unknown_frac)
            ? core::kUnknownSite
            : static_cast<core::SiteId>(core::kFirstRealSite +
                                        r.uniform(sites));
  }
  return v;
}

void BM_GowerPessimistic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 8, 1, 0.5);
  const auto b = random_vector(n, 8, 2, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::gower_similarity(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GowerPessimistic)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_GowerKnownOnly(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 8, 1, 0.5);
  const auto b = random_vector(n, 8, 2, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::gower_similarity(a, b, core::UnknownPolicy::kKnownOnly));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GowerKnownOnly)->Arg(100'000)->Arg(1'000'000);

void BM_GowerWeighted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 8, 1, 0.5);
  const auto b = random_vector(n, 8, 2, 0.5);
  const std::vector<double> w(n, 1.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::gower_similarity(a, b, w));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GowerWeighted)->Arg(100'000)->Arg(1'000'000);

core::Dataset random_dataset(std::size_t obs, std::size_t nets) {
  core::Dataset d;
  d.name = "bench";
  for (std::size_t i = 0; i < nets; ++i) d.networks.intern(i);
  for (int s = 0; s < 8; ++s) d.sites.intern("s" + std::to_string(s));
  for (std::size_t t = 0; t < obs; ++t) {
    auto v = random_vector(nets, 8, t, 0.3);
    v.time = static_cast<core::TimePoint>(t) * core::kDay;
    d.series.push_back(std::move(v));
  }
  return d;
}

// The paper's recurring-routing structure: consecutive vectors differ in
// a small fraction of networks. This is the workload the delta-encoded
// Φ path is built for (1% flips/step ~ production churn between sweeps).
core::Dataset low_churn_dataset(std::size_t obs, std::size_t nets,
                                double churn) {
  core::Dataset d;
  d.name = "bench-low-churn";
  for (std::size_t i = 0; i < nets; ++i) d.networks.intern(i);
  for (int s = 0; s < 8; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(41);
  auto v = random_vector(nets, 8, 40, 0.1);
  for (std::size_t t = 0; t < obs; ++t) {
    v.time = static_cast<core::TimePoint>(t) * core::kDay;
    d.series.push_back(v);
    const auto flips = static_cast<std::size_t>(churn * nets);
    for (std::size_t k = 0; k < flips; ++k) {
      v.assignment[r.uniform(nets)] = static_cast<core::SiteId>(
          core::kFirstRealSite + r.uniform(8));
    }
  }
  return d;
}

// The packed kernel against the scalar gower_similarity (same vectors as
// BM_GowerPessimistic): items/s ratio is the SIMD win.
void BM_GowerPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Dataset d;
  d.series = {random_vector(n, 8, 1, 0.5), random_vector(n, 8, 2, 0.5)};
  const auto s = core::PackedSeries::pack(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::phi_from_counts(s.counts(0, 1), n, core::UnknownPolicy::kPessimistic));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GowerPacked)->Arg(100'000)->Arg(1'000'000);

// The dispatch tiers head-to-head on the count kernels for the 8-site
// vectors BM_GowerPacked packs (4 bits since they fit; the u8 legs keep
// the one-byte kernel measured too), same site distribution as
// BM_GowerPacked so the items/s ratio is the pure lane win. Each
// iteration tallies the pair and derives Φ with the rows' known counts,
// which production caches with the rows. The _2col legs time the tile
// kernel: one row against two columns in one pass, items counting both
// pairs. Tiers the build or the host CPU lacks are skipped, not faked.
void BM_GowerSimd(benchmark::State& state, core::simd::Tier tier,
                  std::size_t bits, std::size_t columns) {
  const core::simd::KernelTable* k = core::simd::table_for(tier);
  if (k == nullptr) {
    state.SkipWithError("tier unavailable on this build/host");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::uint8_t>> rows;
  for (const std::uint64_t seed : {1, 2, 3}) {
    const auto v = random_vector(n, 8, seed, 0.5);
    rows.emplace_back(core::packed_row_bytes(n, bits));
    (bits == 4 ? k->pack_u4 : k->pack_u8)(v.assignment.data(),
                                          rows.back().data(), n);
  }
  const auto one = bits == 4 ? k->count_u4 : k->count_u8;
  const auto two = bits == 4 ? k->count2_u4 : k->count2_u8;
  const std::uint8_t* a = rows[0].data();
  std::uint64_t known[3];
  for (std::size_t r = 0; r < 3; ++r) {
    known[r] = one(rows[r].data(), {rows[r].data()}, n)[0].either;
  }
  const auto phi = [&](const core::PairTally& t, std::size_t col) {
    return core::phi_from_counts(core::match_counts(t, known[0], known[col]),
                                 n, core::UnknownPolicy::kPessimistic);
  };
  for (auto _ : state) {
    if (columns == 1) {
      benchmark::DoNotOptimize(phi(one(a, {rows[1].data()}, n)[0], 1));
    } else {
      const auto t = two(a, {rows[1].data(), rows[2].data()}, n);
      benchmark::DoNotOptimize(phi(t[0], 1));
      benchmark::DoNotOptimize(phi(t[1], 2));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * columns));
}
BENCHMARK_CAPTURE(BM_GowerSimd, scalar, core::simd::Tier::kScalar, 8, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx2, core::simd::Tier::kAvx2, 8, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx512, core::simd::Tier::kAvx512, 8, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, scalar_u4, core::simd::Tier::kScalar, 4, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx2_u4, core::simd::Tier::kAvx2, 4, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx512_u4, core::simd::Tier::kAvx512, 4, 1)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx2_u4_2col, core::simd::Tier::kAvx2, 4, 2)
    ->Arg(100'000)->Arg(1'000'000);
BENCHMARK_CAPTURE(BM_GowerSimd, avx512_u4_2col, core::simd::Tier::kAvx512, 4,
                  2)
    ->Arg(100'000)->Arg(1'000'000);

// The delta patch for one pair at 1% churn. Items are counted in
// networks covered (the N the patch replaces), so items/s is directly
// comparable with BM_GowerPessimistic / BM_GowerPacked.
void BM_GowerDelta(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Dataset d = low_churn_dataset(2, n, 0.01);
  d.series.push_back(random_vector(n, 8, 9, 0.1));  // the partner row
  const auto s = core::PackedSeries::pack(d);
  const auto prep = core::prepare_delta(s.delta_between(0, 1));
  const auto base = s.counts(0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::apply_prepared(base, prep, s, 2).matches);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GowerDelta)->Arg(100'000)->Arg(1'000'000);

void BM_SimilarityMatrix(benchmark::State& state) {
  const auto d = random_dataset(static_cast<std::size_t>(state.range(0)),
                                static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute(d));
  }
}
BENCHMARK(BM_SimilarityMatrix)->Args({64, 5'000})->Args({128, 5'000})
    ->Args({256, 2'000});

// The Φ fill across thread counts: the 192 rows settle 64 at a time,
// one parallel_for job per settle. At 500 networks a settle is a few
// hundred microseconds of work, so the per-call start of the helper
// threads shows; at 4000 networks the thread counts separate.
void BM_SimilarityMatrixThreads(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto d =
      random_dataset(192, static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute(
        d, core::UnknownPolicy::kPessimistic, threads));
  }
}
BENCHMARK(BM_SimilarityMatrixThreads)
    ->Args({1, 500})->Args({8, 500})
    ->Args({1, 4'000})->Args({2, 4'000})->Args({4, 4'000})->Args({8, 4'000});

// The acceptance pair: the full low-churn matrix on the scalar reference
// versus the layered fast path (packed kernels + delta rows), both
// single-threaded so the ratio is pure algorithm. Items are scalar-
// equivalent comparisons T(T+1)/2 · N.
void BM_SimilarityMatrixLowChurnScalar(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = low_churn_dataset(t, n, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute_reference(d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t * (t + 1) / 2 * n));
}
BENCHMARK(BM_SimilarityMatrixLowChurnScalar)->Args({128, 20'000});

void BM_SimilarityMatrixLowChurn(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = low_churn_dataset(t, n, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute(
        d, core::UnknownPolicy::kPessimistic, /*threads=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t * (t + 1) / 2 * n));
}
BENCHMARK(BM_SimilarityMatrixLowChurn)->Args({128, 20'000});

// What `fenrirctl watch` pays per tick: one append() onto a standing
// T-row matrix (delta path at 1% churn). Items are the scalar-equivalent
// comparisons of the appended row, (T+1)·N.
void BM_SimilarityMatrixAppend(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = low_churn_dataset(t + 1, n, 0.01);
  for (auto _ : state) {
    state.PauseTiming();
    core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
    for (std::size_t i = 0; i < t; ++i) m.append(d.series[i]);
    state.ResumeTiming();
    m.append(d.series[t]);
    benchmark::DoNotOptimize(m.phi(t, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>((t + 1) * n));
}
BENCHMARK(BM_SimilarityMatrixAppend)->Args({64, 10'000})->Args({256, 10'000});

// The paper's recurrence itself: two routing modes alternating in
// blocks of 8 observations. Within a block consecutive sweeps differ by
// 0.1% of networks and patch from their predecessor; the other mode is a
// near-total rewrite, so every block boundary pays a packed-kernel row.
core::Dataset periodic_dataset(std::size_t obs, std::size_t nets,
                               std::size_t period = 8) {
  core::Dataset d;
  d.name = "bench-periodic";
  for (std::size_t i = 0; i < nets; ++i) d.networks.intern(i);
  for (int s = 0; s < 8; ++s) d.sites.intern("s" + std::to_string(s));
  rng::Rng r(43);
  core::RoutingVector modes[2] = {random_vector(nets, 8, 44, 0.1),
                                  random_vector(nets, 8, 45, 0.1)};
  const std::size_t flips = nets / 1000;  // 0.1% per step, ~1% per block
  for (std::size_t t = 0; t < obs; ++t) {
    core::RoutingVector& m = modes[(t / period) % 2];
    m.time = static_cast<core::TimePoint>(t) * core::kDay;
    d.series.push_back(m);
    for (std::size_t k = 0; k < flips; ++k) {
      m.assignment[r.uniform(nets)] = static_cast<core::SiteId>(
          core::kFirstRealSite + r.uniform(8));
    }
  }
  return d;
}

void BM_SimilarityMatrixPeriodic(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = periodic_dataset(t, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute(
        d, core::UnknownPolicy::kPessimistic, /*threads=*/1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t * (t + 1) / 2 * n));
}
BENCHMARK(BM_SimilarityMatrixPeriodic)->Args({512, 10'000});

// The batched ingest shape: k observations folded onto a standing T-row
// matrix in one append_batch() (what --matrix-cache warm appends, watch
// resume rebuilds, and campaign folds pay), against the same k rows
// appended one at a time. Items are the scalar-equivalent comparisons
// of the appended rows, Σ (T+i+1)·N — the ratio of the pair is the
// batching win.
void BM_SimilarityMatrixBatchAppend(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto d = periodic_dataset(t + k, n);
  const std::span<const core::RoutingVector> all(d.series);
  for (auto _ : state) {
    state.PauseTiming();
    core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
    m.append_batch(all.first(t));
    m.reserve(t + k);  // both variants: storage growth is not the contest
    state.ResumeTiming();
    m.append_batch(all.subspan(t));
    benchmark::DoNotOptimize(m.phi(t + k - 1, 0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(k * (t + (k + 1) / 2 + 1) * n));
}
// MinTime pins enough iterations for a stable batch-vs-loop ratio on a
// noisy box; it overrides the CLI --benchmark_min_time smoke default.
BENCHMARK(BM_SimilarityMatrixBatchAppend)->Args({512, 10'000, 64})->MinTime(2.0);

void BM_SimilarityMatrixBatchAppendLoop(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto d = periodic_dataset(t + k, n);
  const std::span<const core::RoutingVector> all(d.series);
  for (auto _ : state) {
    state.PauseTiming();
    core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
    m.append_batch(all.first(t));
    m.reserve(t + k);  // both variants: storage growth is not the contest
    state.ResumeTiming();
    for (std::size_t i = t; i < t + k; ++i) m.append(d.series[i]);
    benchmark::DoNotOptimize(m.phi(t + k - 1, 0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(k * (t + (k + 1) / 2 + 1) * n));
}
BENCHMARK(BM_SimilarityMatrixBatchAppendLoop)->Args({512, 10'000, 64})->MinTime(2.0);

// One settle of kSettleRows kernel rows that span several kernel tiles
// (262,144 networks pack to 128 KiB at 4 bits: 8 tiles), onto a standing
// matrix of T − 64 rows: the paper-scale watch's fill at a flush, and
// what a tile regression slows first. Eight random vectors with ~50%
// unknown cycle, so every row pays the kernels. Items are the
// scalar-equivalent comparisons of the settled rows.
void BM_SimilarityMatrixTiledSettle(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const std::size_t k = core::SimilarityMatrix::kSettleRows;
  std::vector<core::RoutingVector> rows;
  for (std::size_t i = 0; i < 8; ++i) {
    rows.push_back(random_vector(n, 10, 60 + i, 0.5));
  }
  std::vector<core::RoutingVector> series;
  for (std::size_t i = 0; i < t; ++i) {
    series.push_back(rows[i % rows.size()]);
    series.back().time = static_cast<core::TimePoint>(i) * core::kDay;
  }
  const std::span<const core::RoutingVector> all(series);
  for (auto _ : state) {
    state.PauseTiming();
    core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
    m.append_batch(all.first(t - k));
    m.reserve(t);
    state.ResumeTiming();
    m.append_batch(all.subspan(t - k));
    benchmark::DoNotOptimize(m.phi(t - 1, 0));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(k * (t - k + (k + 1) / 2 + 1) * n));
}
BENCHMARK(BM_SimilarityMatrixTiledSettle)->Args({128, 262'144});

void BM_SimilarityMatrixPeriodicScalar(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const auto n = static_cast<std::size_t>(state.range(1));
  const auto d = periodic_dataset(t, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SimilarityMatrix::compute_reference(d));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t * (t + 1) / 2 * n));
}
BENCHMARK(BM_SimilarityMatrixPeriodicScalar)->Args({512, 10'000});

// What `fenrirctl watch` pays in the ModeBook per tick: classify one
// observation against the known representatives on the packed kernels.
// Lineage recording is disabled here so the number stays comparable
// with its own history; BM_ModeBookLineageOverhead below is what the
// bench gate judges the ≤5% recording budget by.
void BM_ModeBookObserve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = periodic_dataset(64, n);
  obs::lineage().set_capacity(0);
  for (auto _ : state) {
    core::ModeBook book;
    for (const core::RoutingVector& v : d.series) {
      benchmark::DoNotOptimize(book.observe(v));
    }
  }
  obs::lineage().set_capacity(512);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(64 * n));
}
BENCHMARK(BM_ModeBookObserve)->Arg(20'000)->Arg(100'000);

// The same classification with the decision lineage store on (its
// default state): every observe() additionally builds a DecisionRecord
// — top-k candidates, per-category counts — and inserts it into the
// ring. No log or sink is attached, so no JSON is rendered; that is
// the always-on configuration the ≤5% overhead gate protects.
void BM_ModeBookObserveLineage(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = periodic_dataset(64, n);
  obs::lineage().set_capacity(512);
  for (auto _ : state) {
    core::ModeBook book;
    for (const core::RoutingVector& v : d.series) {
      benchmark::DoNotOptimize(book.observe(v));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(64 * n));
}
BENCHMARK(BM_ModeBookObserveLineage)->Arg(20'000)->Arg(100'000);

// The ≤5% lineage budget, measured where the gate can trust it: each
// iteration classifies the same series twice — recording off and on,
// alternating which goes first — and the accumulated wall-time ratio
// lands in the overhead_ratio counter (exported as the
// bench_core_..._overhead_ratio gauge tools/bench_gate.py reads).
// Interleaving inside one benchmark cancels the CPU-frequency drift
// that makes the two standalone benches above ±10% apart run to run.
void BM_ModeBookLineageOverhead(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = periodic_dataset(64, n);
  const auto classify = [&d] {
    core::ModeBook book;
    for (const core::RoutingVector& v : d.series) {
      benchmark::DoNotOptimize(book.observe(v));
    }
  };
  const auto timed = [&classify](std::size_t capacity) {
    obs::lineage().set_capacity(capacity);
    const auto start = std::chrono::steady_clock::now();
    classify();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  bool on_first = false;
  for (auto _ : state) {
    if (on_first) {
      on_seconds += timed(512);
      off_seconds += timed(0);
    } else {
      off_seconds += timed(0);
      on_seconds += timed(512);
    }
    on_first = !on_first;
  }
  obs::lineage().set_capacity(512);
  state.counters["overhead_ratio"] =
      off_seconds > 0.0 ? on_seconds / off_seconds : 1.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * 64 * n));
}
BENCHMARK(BM_ModeBookLineageOverhead)->Arg(20'000);

std::string bench_store_dir(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("fenrir_bench_seg_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

// A sealed FENRSEG store of `rows` low-churn observations, built once
// per process and deleted at exit. No dataset is attached: benches use
// the raw identity mode, same as `segment ls`.
struct SegmentFixture {
  std::string dir;
  core::Dataset d;
  std::size_t rows;
  SegmentFixture(const char* tag, std::size_t rows_in, std::size_t nets,
                 std::size_t seal_rows)
      : dir(bench_store_dir(tag)),
        d(low_churn_dataset(rows_in, nets, 0.01)),
        rows(rows_in) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    io::SegmentStoreConfig cfg;
    cfg.seal_rows = seal_rows;
    cfg.background_compaction = false;
    io::SegmentStore store(dir, cfg);
    core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
    for (const core::RoutingVector& v : d.series) {
      m.append(v);
      store.spill(v, m);
      if (m.size() % 64 == 0) store.flush();
    }
    store.seal_active();
  }
  ~SegmentFixture() { std::filesystem::remove_all(dir); }
};

SegmentFixture& segment_fixture_short() {
  static SegmentFixture f("resume_short", 128, 50'000, 32);
  return f;
}

SegmentFixture& segment_fixture_long() {
  static SegmentFixture f("resume_long", 1'024, 50'000, 32);
  return f;
}

// What a segment-store watch pays per tick beyond the matrix append:
// encode the new row into the pending buffer, pwrite it at the tail's
// end, fsync, rewrite the manifest. O(new row), never O(history). The
// store is drained and recreated outside the timing.
void BM_SegmentTailAppend(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = 256;
  const auto d = low_churn_dataset(t, n, 0.01);
  core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
  for (const core::RoutingVector& v : d.series) m.append(v);
  const std::string dir = bench_store_dir("tail");
  io::SegmentStoreConfig cfg;
  cfg.seal_rows = 1 << 20;  // never seals: this bench is the tail path
  cfg.background_compaction = false;
  std::optional<io::SegmentStore> store;
  std::size_t next = t;
  for (auto _ : state) {
    if (next == t) {
      state.PauseTiming();
      store.reset();
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      store.emplace(dir, cfg);
      next = 0;
      state.ResumeTiming();
    }
    store->spill_row(d.series[next], m, next);
    store->flush();
    ++next;
  }
  store.reset();
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SegmentTailAppend)->Arg(20'000);

// The resume acceptance pair for the segment store: open + load (mmap
// the sealed segments, adopt the pages into the matrix) at two history
// lengths. BM_SegmentResumeFlat below turns the pair into the gated
// per-row flatness ratio.
void BM_SegmentResumeShort(benchmark::State& state) {
  SegmentFixture& f = segment_fixture_short();
  io::SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  for (auto _ : state) {
    io::SegmentStore store(f.dir, cfg);
    benchmark::DoNotOptimize(store.load(nullptr).matrix.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.rows));
}
BENCHMARK(BM_SegmentResumeShort);

void BM_SegmentResumeLong(benchmark::State& state) {
  SegmentFixture& f = segment_fixture_long();
  io::SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  for (auto _ : state) {
    io::SegmentStore store(f.dir, cfg);
    benchmark::DoNotOptimize(store.load(nullptr).matrix.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.rows));
}
BENCHMARK(BM_SegmentResumeLong);

// One tail append + flush on a copy of @p f: the payload bytes the
// flush wrote, read off fenrir_segment_tail_bytes_total.
double segment_save_bytes(const SegmentFixture& f) {
  const std::string dir = f.dir + "_savebytes";
  std::filesystem::remove_all(dir);
  std::filesystem::copy(f.dir, dir,
                        std::filesystem::copy_options::recursive);
  double bytes = 0.0;
  {
    io::SegmentStoreConfig cfg;
    cfg.seal_rows = 1 << 20;
    cfg.background_compaction = false;
    io::SegmentStore store(dir, cfg);
    const std::size_t n = store.weights().empty()
                              ? f.d.networks.size()
                              : store.weights().size();
    // The fixture's ids fit 4 bits, so the raw row matches the tail's
    // width and the append never rotates it.
    const std::vector<std::byte> packed(core::packed_row_bytes(n, 4));
    const std::vector<double> phi(
        store.processed() - store.base_row() + 1, 0.5);
    obs::Counter& written = obs::registry().counter(
        "fenrir_segment_tail_bytes_total");
    const std::uint64_t before = written.value();
    store.append_raw(true, 0, io::kNoAnchor, n, 4, packed, phi);
    store.flush();
    bytes = static_cast<double>(written.value() - before);
  }
  std::filesystem::remove_all(dir);
  return bytes;
}

// The two gated flatness ratios, measured interleaved (same trick as
// BM_ModeBookLineageOverhead) so CPU and disk drift cancel:
//   flat_ratio       per-row resume cost, 8x history vs 1x. Flat page
//                    adoption keeps it near 1; the pre-segment rebuild
//                    was linear in T (ratio ~8).
//   save_bytes_ratio payload bytes of one interval's flush, 8x vs 1x
//                    history. O(new data) keeps it near 1; a whole-file
//                    rewrite of the history would be ~8+.
// tools/bench_gate.py fails the build when either exceeds 1.5 and
// exits 2 when the gauges are absent.
void BM_SegmentResumeFlat(benchmark::State& state) {
  SegmentFixture& fs = segment_fixture_short();
  SegmentFixture& fl = segment_fixture_long();
  io::SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  const auto timed = [&cfg](const std::string& dir) {
    const auto start = std::chrono::steady_clock::now();
    io::SegmentStore store(dir, cfg);
    benchmark::DoNotOptimize(store.load(nullptr).matrix.size());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  double short_seconds = 0.0;
  double long_seconds = 0.0;
  bool long_first = false;
  for (auto _ : state) {
    if (long_first) {
      long_seconds += timed(fl.dir);
      short_seconds += timed(fs.dir);
    } else {
      short_seconds += timed(fs.dir);
      long_seconds += timed(fl.dir);
    }
    long_first = !long_first;
  }
  state.counters["flat_ratio"] =
      short_seconds > 0.0
          ? (long_seconds / static_cast<double>(fl.rows)) /
                (short_seconds / static_cast<double>(fs.rows))
          : 0.0;
  const double short_bytes = segment_save_bytes(fs);
  state.counters["save_bytes_ratio"] =
      short_bytes > 0.0 ? segment_save_bytes(fl) / short_bytes : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fs.rows + fl.rows));
}
BENCHMARK(BM_SegmentResumeFlat)->MinTime(1.0);

// One synchronous compaction pass: 16 undersized sealed segments (the
// shape a long watch's periodic seals leave behind) merged into one.
// The store is rebuilt outside the timing.
void BM_Compaction(benchmark::State& state) {
  const std::size_t rows = 256;
  const std::size_t n = 5'000;
  const std::size_t per_seal = 16;
  const auto d = low_churn_dataset(rows, n, 0.01);
  core::SimilarityMatrix m(core::UnknownPolicy::kPessimistic, {}, 1);
  for (const core::RoutingVector& v : d.series) m.append(v);
  const std::string dir = bench_store_dir("compact");
  io::SegmentStoreConfig cfg;
  cfg.seal_rows = 1 << 20;  // only the explicit seals below rotate
  cfg.background_compaction = false;
  cfg.compact_min_run = 4;
  std::optional<io::SegmentStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    store.emplace(dir, cfg);
    for (std::size_t i = 0; i < rows; ++i) {
      store->spill_row(d.series[i], m, i);
      if ((i + 1) % per_seal == 0) store->seal_active();
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(store->compact_now());
  }
  store.reset();
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * n));
}
BENCHMARK(BM_Compaction);

void BM_SlinkDendrogram(benchmark::State& state) {
  const auto d = random_dataset(static_cast<std::size_t>(state.range(0)),
                                1'000);
  const auto m = core::SimilarityMatrix::compute(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::slink_dendrogram(m));
  }
}
BENCHMARK(BM_SlinkDendrogram)->Arg(128)->Arg(256)->Arg(512);

void BM_AdaptiveClustering(benchmark::State& state) {
  const auto d = random_dataset(static_cast<std::size_t>(state.range(0)),
                                1'000);
  const auto m = core::SimilarityMatrix::compute(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::cluster_adaptive(m, core::Linkage::kSingle));
  }
}
BENCHMARK(BM_AdaptiveClustering)->Arg(128)->Arg(256);

void BM_TransitionMatrix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_vector(n, 8, 1, 0.3);
  const auto b = random_vector(n, 8, 2, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TransitionMatrix::compute(a, b, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TransitionMatrix)->Arg(100'000)->Arg(1'000'000);

void BM_DetectChanges(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rng::Rng r(5);
  std::vector<double> phi(n);
  std::vector<core::TimePoint> times(n);
  for (std::size_t i = 0; i < n; ++i) {
    phi[i] = 0.95 + 0.02 * r.uniform01();
    times[i] = static_cast<core::TimePoint>(i) * 240;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detect_changes_from_phi(phi, times));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DetectChanges)->Arg(10'000)->Arg(100'000);

// What measure::Federation pays per epoch: three member campaigns (one
// sweep each, with skewed clocks and ~10% ambient loss driving some
// retries) plus the merge fold (freshness tables, weighted votes,
// provenance). Items are target-epochs: epochs x global targets.
void BM_FederatedSweep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kEpochs = 8;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = 1000 + i;
  const measure::FnProber prober(
      std::move(keys), [](std::size_t g, core::TimePoint when) {
        measure::ProbeReply r;
        if (rng::mix(17, g, static_cast<std::uint64_t>(when)) % 10 == 0) {
          return r;  // ~10% ambient loss; retries pick most of it up
        }
        r.status = measure::ProbeStatus::kAnswered;
        r.site = static_cast<core::SiteId>(core::kFirstRealSite + g % 3);
        return r;
      });
  measure::FederationConfig fc;
  fc.global_targets = n;
  fc.epoch_length = core::kHour;
  const chaos::ClockModel clocks[3] = {{0, 0}, {127, 180}, {-61, -90}};
  std::vector<measure::MemberConfig> members(3);
  for (std::size_t i = 0; i < 3; ++i) {
    members[i].name = "m" + std::to_string(i);
    const std::size_t lo = i * n / 3, hi = (i + 1) * n / 3;
    const std::size_t from = lo > 8 ? lo - 8 : 0;
    const std::size_t to = hi + 8 < n ? hi + 8 : n;
    for (std::size_t g = from; g < to; ++g) members[i].targets.push_back(g);
    members[i].clock = clocks[i];
    members[i].start_offset = static_cast<core::TimePoint>(i * 600);
  }
  for (auto _ : state) {
    measure::Federation fed(prober, fc, members);
    benchmark::DoNotOptimize(fed.run(kEpochs).reports.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEpochs * n));
}
BENCHMARK(BM_FederatedSweep)->Arg(20'000);

void BM_TopologyGeneration(benchmark::State& state) {
  bgp::TopologyParams p;
  p.stub_count = static_cast<std::size_t>(state.range(0));
  p.tier2_count = p.stub_count / 20;
  p.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::generate_topology(p));
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(1'000)->Arg(4'000);

void BM_ComputeRoutes(benchmark::State& state) {
  bgp::TopologyParams p;
  p.stub_count = static_cast<std::size_t>(state.range(0));
  p.tier2_count = p.stub_count / 20;
  p.seed = 3;
  const bgp::Topology topo = bgp::generate_topology(p);
  const std::vector<bgp::Origin> origins{
      {topo.stubs[0], 0, 0},
      {topo.stubs[topo.stubs.size() / 2], 1, 0},
      {topo.stubs.back(), 2, 0}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::compute_routes(topo.graph, origins));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(topo.graph.as_count()));
}
BENCHMARK(BM_ComputeRoutes)->Arg(1'000)->Arg(4'000)->Arg(16'000);

/// Console output as usual, plus per-benchmark gauges in the metrics
/// registry: bench_core_<name>_real_ns / _cpu_ns / _items_per_s.
class RegistryReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      gauge(run.benchmark_name(), "real_ns")
          .set(run.real_accumulated_time / iters * 1e9);
      gauge(run.benchmark_name(), "cpu_ns")
          .set(run.cpu_accumulated_time / iters * 1e9);
      // Every user counter rides along (overhead_ratio, flat_ratio,
      // save_bytes_ratio, ...); the two rate counters keep their
      // historical gauge suffixes.
      for (const auto& [cname, cvalue] : run.counters) {
        const char* what = cname == "items_per_second"   ? "items_per_s"
                           : cname == "bytes_per_second" ? "bytes_per_s"
                                                         : cname.c_str();
        gauge(run.benchmark_name(), what).set(cvalue);
      }
    }
  }

 private:
  static fenrir::obs::Gauge& gauge(const std::string& bench,
                                   const char* what) {
    std::string name = "bench_core_" + bench + "_" + what;
    for (char& c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
      if (!ok) c = '_';
    }
    return fenrir::obs::registry().gauge(name);
  }
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RegistryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Snapshot provenance: which SIMD tier the host offers and which one
  // the kernels actually dispatched to (0 scalar, 1 avx2, 2 avx512).
  // bench_gate.py warns when two snapshots disagree — their kernel wall
  // times are not comparable.
  fenrir::obs::registry()
      .gauge("bench_core_meta_simd_tier_detected",
             "SIMD tier this host+build supports (0/1/2)")
      .set(static_cast<double>(fenrir::core::simd::detected_tier()));
  fenrir::obs::registry()
      .gauge("bench_core_meta_simd_tier_active",
             "SIMD tier the kernels dispatched to (0/1/2)")
      .set(static_cast<double>(fenrir::core::simd::active_tier()));

  const char* env = std::getenv("FENRIR_BENCH_OUT");
  const std::string path = env != nullptr ? env : "BENCH_core.json";
  std::ofstream out(path);
  fenrir::obs::registry().write_json(out);
  if (out) {
    std::cerr << "wrote " << path << "\n";
  } else {
    std::cerr << "could not write " << path << "\n";
    return 1;
  }
  return 0;
}
