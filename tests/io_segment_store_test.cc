#include "io/segment_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset_io.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "io/snapshot.h"
#include "obs/metrics.h"
#include "rng/rng.h"

namespace fenrir::io {
namespace {

namespace fs = std::filesystem;
using core::Dataset;
using core::DatasetIoError;
using core::kDay;
using core::kFirstRealSite;
using core::kUnknownSite;
using core::RoutingVector;
using core::SimilarityMatrix;
using core::SiteId;
using core::TimePoint;
using core::UnknownPolicy;

/// The pid that names scratch directories. A threadsafe-style death test
/// re-runs its test from the top in a fresh child process; the child must
/// write where the parent will look, so the parent hands its pid down
/// through the environment.
std::string scratch_owner() {
  if (const char* pid = std::getenv("FENRIR_SEGMENT_TEST_PID")) return pid;
  const std::string pid = std::to_string(::getpid());
  ::setenv("FENRIR_SEGMENT_TEST_PID", pid.c_str(), 1);
  return pid;
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() /
             ("fenrir_segment_test_" + name + "_" + scratch_owner())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  fs::path path;
};

Dataset periodic_dataset(std::size_t obs, std::size_t nets,
                         std::size_t site_count, double churn,
                         std::uint64_t seed, double invalid_frac = 0.1) {
  Dataset d;
  d.name = "segment-periodic";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (std::size_t s = 0; s < site_count; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  rng::Rng r(seed);
  const auto random_site = [&]() -> SiteId {
    return r.bernoulli(0.1) ? kUnknownSite
                            : static_cast<SiteId>(kFirstRealSite +
                                                  r.uniform(site_count));
  };
  RoutingVector modes[2];
  for (auto& m : modes) {
    m.assignment.resize(nets);
    for (auto& s : m.assignment) s = random_site();
  }
  const auto flips = static_cast<std::size_t>(churn * nets);
  for (std::size_t t = 0; t < obs; ++t) {
    RoutingVector& m = modes[(t / 5) % 2];
    m.time = static_cast<TimePoint>(t) * kDay;
    m.valid = !r.bernoulli(invalid_frac);
    d.series.push_back(m);
    for (std::size_t k = 0; k < flips; ++k) {
      m.assignment[r.uniform(nets)] = random_site();
    }
  }
  return d;
}

void expect_bit_identical(const SimilarityMatrix& got,
                          const SimilarityMatrix& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.valid(i), want.valid(i)) << label << " row " << i;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got.phi(i, j), want.phi(i, j))
          << label << " phi(" << i << "," << j << ")";
    }
  }
}

/// The retained window of @p got (local rows) must equal @p want's rows
/// [base, base + got.size()) bit-for-bit — Φ is pairwise, so retention
/// never perturbs surviving values.
void expect_suffix_identical(const SimilarityMatrix& got,
                             const SimilarityMatrix& want, std::size_t base,
                             const std::string& label) {
  ASSERT_EQ(got.size() + base, want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.valid(i), want.valid(base + i)) << label << " row " << i;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got.phi(i, j), want.phi(base + i, base + j))
          << label << " phi(" << i << "," << j << ")";
    }
  }
}

/// Grows @p matrix over series[from, to) spilling each row, flushing
/// every @p flush_every observations.
void grow(SegmentStore& store, SimilarityMatrix& matrix, const Dataset& d,
          std::size_t from, std::size_t to, std::size_t flush_every = 4) {
  for (std::size_t t = from; t < to; ++t) {
    matrix.append(d.series[t]);
    store.spill(d.series[t], matrix);
    if ((t + 1 - from) % flush_every == 0) store.flush();
  }
  store.flush();
}

// The central property: spill-as-you-go across several tail rotations,
// close, reopen, mmap-load — the restored matrix is bit-identical to
// one that never left memory, and further appends stay on the exact
// same trajectory (anchors re-derive; values are path-independent).
TEST(Segment, RoundTripBitIdenticalAcrossRotations) {
  for (const std::size_t site_count : {6, 300}) {
    ScratchDir dir("roundtrip" + std::to_string(site_count));
    const Dataset d = periodic_dataset(40, 120, site_count, 0.03, 11);
    SimilarityMatrix continuous(UnknownPolicy::kPessimistic, d.weights, 1);
    for (const RoutingVector& v : d.series) continuous.append(v);

    SegmentStoreConfig cfg;
    cfg.seal_rows = 7;  // force several seal/rotate cycles
    {
      SegmentStore store(dir.path, cfg);
      store.attach(&d);
      SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
      grow(store, live, d, 0, 25);
      EXPECT_EQ(store.processed(), 25u);
      EXPECT_GE(store.segments().size(), 3u);
    }
    ASSERT_TRUE(SegmentStore::looks_like_store(dir.path));

    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    EXPECT_EQ(store.processed(), 25u);
    SegmentStore::Loaded loaded = store.load(&d);
    ASSERT_EQ(loaded.processed, 25u);
    ASSERT_EQ(loaded.base_row, 0u);
    SimilarityMatrix resumed = std::move(loaded.matrix);
    {
      SimilarityMatrix prefix(UnknownPolicy::kPessimistic, d.weights, 1);
      for (std::size_t t = 0; t < 25; ++t) prefix.append(d.series[t]);
      expect_bit_identical(resumed, prefix,
                           "loaded sites=" + std::to_string(site_count));
    }
    grow(store, resumed, d, 25, d.series.size());
    expect_bit_identical(resumed, continuous,
                         "resumed sites=" + std::to_string(site_count));

    std::string error;
    EXPECT_TRUE(store.verify(&error)) << error;
  }
}

// Retention retires whole cold segments: the store's base advances, the
// loaded matrix is exactly the retained suffix of the full history, and
// a fresh tail stops carrying the dead Φ prefix.
TEST(Segment, RetentionKeepsSuffixBitIdentical) {
  ScratchDir dir("retention");
  const Dataset d = periodic_dataset(48, 100, 6, 0.03, 23);
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) continuous.append(v);

  SegmentStoreConfig cfg;
  cfg.seal_rows = 8;
  cfg.retain_obs = 20;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, d.series.size());

  EXPECT_EQ(store.processed(), d.series.size());
  const std::uint64_t base = store.base_row();
  EXPECT_GT(base, 0u);
  EXPECT_GE(d.series.size() - base, 20u);  // never retires live data

  SegmentStore::Loaded loaded = store.load(&d);
  EXPECT_EQ(loaded.base_row, base);
  expect_suffix_identical(loaded.matrix, continuous,
                          static_cast<std::size_t>(base), "retained");

  // Time-based retention, driven by observation time (deterministic).
  ScratchDir dir2("retention_time");
  SegmentStoreConfig cfg2;
  cfg2.seal_rows = 8;
  cfg2.retain_seconds = 15 * kDay;
  SegmentStore store2(dir2.path, cfg2);
  store2.attach(&d);
  SimilarityMatrix live2(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store2, live2, d, 0, d.series.size());
  const std::uint64_t base2 = store2.base_row();
  EXPECT_GT(base2, 0u);
  SegmentStore::Loaded loaded2 = store2.load(&d);
  expect_suffix_identical(loaded2.matrix, continuous,
                          static_cast<std::size_t>(base2), "retained-time");
}

// Satellite 2: checksums are computed once at seal and verified once
// per mapped segment at load — repeated flushes of an unchanged store
// do no checksum work at all (the snapshot re-hashed everything every
// save).
TEST(Segment, ChecksumWorkIsLazyAndCountsOnce) {
  ScratchDir dir("lazy");
  const Dataset d = periodic_dataset(30, 80, 6, 0.03, 31);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 6;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, d.series.size());
  const std::size_t sealed = store.segments().size();
  ASSERT_GE(sealed, 4u);

  auto& verified =
      obs::registry().counter("fenrir_segment_checksum_verified_total");
  const double before = verified.value();
  store.flush();
  store.flush();
  store.flush();
  EXPECT_EQ(verified.value(), before)
      << "flushing an idle store must not re-hash history";
  (void)store.load(&d);
  EXPECT_EQ(verified.value(), before + static_cast<double>(sealed))
      << "load verifies each mapped segment exactly once";
}

// A flipped payload byte in a sealed segment must be rejected loudly by
// both load() and verify().
TEST(Segment, CorruptSealedSegmentRejected) {
  ScratchDir dir("corrupt");
  const Dataset d = periodic_dataset(20, 80, 6, 0.03, 41);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 6;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, d.series.size());
  const std::vector<SegmentInfo> segments = store.segments();
  ASSERT_FALSE(segments.empty());

  const fs::path victim =
      dir.path / ("seg-" + std::to_string(segments[1].id) + ".fenrseg");
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(200);
    char byte = 0;
    f.seekg(200);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(200);
    f.put(byte);
  }
  std::string error;
  EXPECT_FALSE(store.verify(&error));
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  try {
    (void)store.load(&d);
    FAIL() << "corrupt segment accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

// Identity: resuming against a rewritten dataset fails with the per-row
// hash (flat verification), and a shrunk dataset is caught up front.
TEST(Segment, DatasetMismatchRejected) {
  ScratchDir dir("identity");
  Dataset d = periodic_dataset(20, 80, 6, 0.03, 43);
  SegmentStoreConfig cfg;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, d.series.size());

  Dataset rewritten = d;
  rewritten.series[3].assignment[7] =
      rewritten.series[3].assignment[7] == kUnknownSite ? kFirstRealSite
                                                        : kUnknownSite;
  try {
    (void)store.load(&rewritten);
    FAIL() << "rewritten dataset accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("row hash mismatch"),
              std::string::npos)
        << e.what();
  }

  Dataset shrunk = d;
  shrunk.series.resize(10);
  try {
    (void)store.load(&shrunk);
    FAIL() << "shrunk dataset accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("ahead of the dataset"),
              std::string::npos)
        << e.what();
  }
}

// The row hash takes every field of the observation: each site id
// position (the unaligned first word, all four lanes of the bulk loop,
// the remainder words, the odd-length tail), the order of the ids,
// validity, time and length.
TEST(Segment, IdentityHashSeesEveryField) {
  RoutingVector base;
  base.time = 1'700'000'000;
  base.valid = true;
  for (std::size_t i = 0; i < 41; ++i) {
    base.assignment.push_back(static_cast<SiteId>(3 + (i * 7) % 11));
  }
  const std::uint64_t h0 = segment_row_hash(base);
  std::vector<std::uint64_t> seen{h0};
  for (std::size_t i = 0; i < base.assignment.size(); ++i) {
    for (const SiteId changed : {base.assignment[i] + 1, SiteId{1} << 31}) {
      RoutingVector v = base;
      v.assignment[i] = changed;
      seen.push_back(segment_row_hash(v));
    }
  }
  RoutingVector swapped = base;
  std::swap(swapped.assignment[4], swapped.assignment[5]);    // one word
  seen.push_back(segment_row_hash(swapped));
  swapped = base;
  std::swap(swapped.assignment[10], swapped.assignment[12]);  // two lanes
  seen.push_back(segment_row_hash(swapped));
  RoutingVector v = base;
  v.valid = false;
  seen.push_back(segment_row_hash(v));
  v = base;
  v.time += 1;
  seen.push_back(segment_row_hash(v));
  v = base;
  v.assignment.push_back(0);  // a zero high half must still count
  seen.push_back(segment_row_hash(v));
  v = base;
  v.assignment.pop_back();
  seen.push_back(segment_row_hash(v));

  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "two distinct observations share a row hash";
  EXPECT_EQ(segment_row_hash(base), h0) << "the hash is deterministic";
}

// The stored hashes are part of the on-disk format: a change to the
// hash must bump kSegmentVersion, not slip through. The value is the
// same on every host (words are built by value).
TEST(Segment, IdentityHashIsPinned) {
  RoutingVector v;
  v.time = 1'577'836'800;  // 2020-01-01
  v.valid = true;
  for (SiteId s = 0; s < 11; ++s) v.assignment.push_back(s * 0x01010101u);
  EXPECT_EQ(segment_row_hash(v), 0x56E6AB0FF9FD656Aull);
}

// The header hash covers every network key: one renamed network makes
// resume fail the identity check before any row is read.
TEST(Segment, IdentityHashSeesOneNetworkKey) {
  ScratchDir dir("netkey");
  const Dataset d = periodic_dataset(12, 80, 6, 0.03, 47);
  SegmentStoreConfig cfg;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, d.series.size());
  (void)store.load(&d);

  Dataset renamed = d;
  renamed.networks = core::NetworkTable{};
  for (std::size_t n = 0; n < 80; ++n) {
    renamed.networks.intern(n == 57 ? 1'000'057 : n);
  }
  try {
    (void)store.load(&renamed);
    FAIL() << "dataset with a renamed network accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("identity mismatch"),
              std::string::npos)
        << e.what();
  }
}

/// Overwrites the little-endian u32 at @p offset of @p path.
void patch_u32_at(const fs::path& path, std::size_t offset,
                  std::uint32_t value) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(static_cast<std::streamoff>(offset));
  for (int i = 0; i < 4; ++i) f.put(static_cast<char>(value >> (8 * i)));
}

// Version 1 stores hashed identities with FNV-1a. Their hashes mean
// something else now, so a v1 manifest or segment is refused as version
// skew rather than misreported as an identity or row-hash mismatch.
TEST(Segment, VersionOneStoreRefused) {
  ScratchDir dir("v1");
  const Dataset d = periodic_dataset(12, 80, 6, 0.03, 59);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 5;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, d.series.size());
    ASSERT_FALSE(store.segments().empty());
  }
  const fs::path seg = dir.path / "seg-0.fenrseg";
  ASSERT_TRUE(fs::exists(seg));
  const auto expect_skew = [](const std::string& what,
                              const std::string& label) {
    EXPECT_NE(what.find("version skew"), std::string::npos)
        << label << ": " << what;
  };

  patch_u32_at(seg, sizeof(kSegmentMagic), 1);
  {
    SegmentStore store(dir.path, cfg);
    std::string error;
    EXPECT_FALSE(store.verify(&error));
    expect_skew(error, "verify, v1 segment");
    try {
      (void)store.load(&d);
      FAIL() << "v1 segment loaded";
    } catch (const DatasetIoError& e) {
      expect_skew(e.what(), "load, v1 segment");
    }
  }

  patch_u32_at(dir.path / "MANIFEST", sizeof(kManifestMagic), 1);
  try {
    SegmentStore store(dir.path, cfg);
    FAIL() << "v1 manifest opened";
  } catch (const DatasetIoError& e) {
    expect_skew(e.what(), "open, v1 manifest");
  }
}

// Records past the write-through threshold reach the tail file during
// spill(), but only flush() makes them durable: the manifest and
// fenrir_segment_tail_bytes_total move at the flush.
TEST(Segment, WriteThroughCountsOnlyDurableBytes) {
  ScratchDir dir("writethrough");
  SegmentStoreConfig cfg;
  SegmentStore store(dir.path, cfg);
  store.configure(UnknownPolicy::kPessimistic, {});
  const std::size_t networks = 300'000;  // 1.2 MB packed at width 4
  const std::vector<std::byte> packed(networks * 4, std::byte{7});
  const std::vector<double> phi{1.0};
  auto& tail_bytes =
      obs::registry().counter("fenrir_segment_tail_bytes_total");
  const double before = tail_bytes.value();
  const fs::path tail = dir.path / "tail-0.fenrseg";

  store.append_raw(true, 0, kNoAnchor, 0, networks, 4, packed, phi);
  const std::uintmax_t record = 32 + networks * 4 + 8;
  EXPECT_EQ(fs::file_size(tail), kSegmentHeaderBytes + record)
      << "a record past the threshold is written through at spill";
  EXPECT_EQ(tail_bytes.value(), before) << "written ahead is not durable";
  EXPECT_FALSE(fs::exists(dir.path / "MANIFEST"));

  store.flush();
  EXPECT_EQ(tail_bytes.value(), before + static_cast<double>(record));
  EXPECT_EQ(fs::file_size(tail), kSegmentHeaderBytes + record);
  SegmentStore reopened(dir.path, cfg);
  EXPECT_EQ(reopened.processed(), 1u);
  std::string error;
  EXPECT_TRUE(reopened.verify(&error)) << error;
}

// Compaction merges runs of undersized sealed segments into one and the
// loaded matrix does not move a bit.
TEST(Segment, CompactionPreservesMatrix) {
  ScratchDir dir("compact");
  const Dataset d = periodic_dataset(36, 80, 6, 0.03, 53);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 64;  // nothing seals by size...
  cfg.compact_min_run = 3;
  cfg.background_compaction = false;
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  // ...so seal manually every few rows to manufacture a cold run.
  for (std::size_t t = 0; t < d.series.size(); ++t) {
    live.append(d.series[t]);
    store.spill(d.series[t], live);
    if ((t + 1) % 6 == 0) store.seal_active();
  }
  store.flush();
  const std::size_t before = store.segments().size();
  ASSERT_GE(before, 3u);
  SegmentStore::Loaded want = store.load(&d);

  const std::size_t merged = store.compact_now();
  EXPECT_GE(merged, 3u);
  EXPECT_LT(store.segments().size(), before);
  std::string error;
  EXPECT_TRUE(store.verify(&error)) << error;
  SegmentStore::Loaded got = store.load(&d);
  expect_bit_identical(got.matrix, want.matrix, "compacted");

  // Reopen: the compacted layout is what the manifest committed.
  SegmentStore reopened(dir.path, cfg);
  SegmentStore::Loaded again = reopened.load(&d);
  expect_bit_identical(again.matrix, want.matrix, "compacted+reopened");
}

// Mid-stream width growth (site ids crossing 255) seals the tail early
// and rotates; the mixed-width store still loads bit-identically.
TEST(Segment, WidthChangeRotatesTail) {
  ScratchDir dir("width");
  rng::Rng r(61);
  const std::size_t nets = 60;
  Dataset d;
  d.name = "width-change";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (std::size_t s = 0; s < 300; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  RoutingVector v;
  v.valid = true;
  v.assignment.resize(nets);
  for (auto& s : v.assignment) {
    s = static_cast<SiteId>(kFirstRealSite + r.uniform(6));
  }
  for (std::size_t t = 0; t < 16; ++t) {
    v.time = static_cast<TimePoint>(t) * kDay;
    // Rows 8+ pull in wide site ids, widening PackedSeries to 2 bytes.
    const std::size_t range = t < 8 ? 6 : 290;
    v.assignment[r.uniform(nets)] =
        static_cast<SiteId>(kFirstRealSite + r.uniform(range));
    d.series.push_back(v);
  }
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, {}, 1);
  for (const RoutingVector& obs : d.series) continuous.append(obs);

  SegmentStoreConfig cfg;
  cfg.seal_rows = 100;  // only the width change forces the rotation
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, {}, 1);
  grow(store, live, d, 0, d.series.size());
  ASSERT_GE(store.segments().size(), 1u);  // the narrow prefix sealed

  SegmentStore::Loaded loaded = store.load(&d);
  expect_bit_identical(loaded.matrix, continuous, "mixed width");
}

// Satellite 1: import converts a FENRSNAP snapshot into sealed segments
// whose loaded matrix is byte-identical, with the legacy whole-prefix
// identity.
TEST(Segment, ImportSnapshotRoundTrip) {
  ScratchDir dir("import");
  const Dataset d = periodic_dataset(30, 100, 300, 0.03, 71);
  SimilarityMatrix m(UnknownPolicy::kKnownOnly, d.weights, 1);
  for (const RoutingVector& v : d.series) m.append(v);
  Snapshot snap;
  snap.processed = d.series.size();
  snap.prefix_hash = dataset_prefix_hash(d, d.series.size());
  snap.matrix = std::move(m);

  const fs::path store_dir = dir.path / "store";
  SegmentStoreConfig cfg;
  cfg.seal_rows = 12;
  SegmentStore::import_snapshot(snap, store_dir, cfg);
  ASSERT_TRUE(SegmentStore::looks_like_store(store_dir));

  SegmentStore store(store_dir, cfg);
  EXPECT_TRUE(store.legacy_identity());
  EXPECT_EQ(store.processed(), d.series.size());
  EXPECT_EQ(store.tail_rows(), 0u);  // import seals everything
  EXPECT_EQ(store.policy(), UnknownPolicy::kKnownOnly);
  SegmentStore::Loaded loaded = store.load(&d);
  expect_bit_identical(loaded.matrix, *snap.matrix, "imported");

  // The legacy identity still catches a rewritten dataset.
  Dataset rewritten = d;
  rewritten.series[2].assignment[5] =
      rewritten.series[2].assignment[5] == kUnknownSite ? kFirstRealSite
                                                        : kUnknownSite;
  EXPECT_THROW((void)store.load(&rewritten), DatasetIoError);

  // Importing over an existing store is refused.
  EXPECT_THROW(SegmentStore::import_snapshot(snap, store_dir, cfg),
               DatasetIoError);
}

// The modebook travels through the manifest: representatives and
// history restored exactly.
TEST(Segment, ModeBookStateRoundTrips) {
  ScratchDir dir("modebook");
  const Dataset d = periodic_dataset(25, 80, 6, 0.03, 83);
  core::ModeBook book;
  for (const RoutingVector& v : d.series) book.observe(v);

  SegmentStoreConfig cfg;
  cfg.seal_rows = 8;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    for (std::size_t t = 0; t < d.series.size(); ++t) {
      live.append(d.series[t]);
      store.spill(d.series[t], live);
    }
    store.flush(&book);
  }
  SegmentStore store(dir.path, cfg);
  SegmentStore::Loaded loaded = store.load(&d);
  ASSERT_TRUE(loaded.has_modebook);
  ASSERT_EQ(loaded.representatives.size(), book.mode_count());
  EXPECT_EQ(loaded.history, book.history());
  for (std::size_t m2 = 0; m2 < book.mode_count(); ++m2) {
    EXPECT_EQ(loaded.representatives[m2].assignment,
              book.representative(m2).assignment)
        << "mode " << m2;
  }
}

// --- chaos killpoint matrix (satellite 3) -------------------------------
//
// Each death test kills the process at a labelled point inside the
// durability protocol, then reopens the directory and proves the
// recovered store is bit-identical to a prefix of the uninterrupted
// run — and can be grown back onto the identical full trajectory.

struct KillCase {
  const char* label;
  std::size_t seal_rows;
  std::size_t seal_every = 0;  // manual seal_active() cadence (0 = never)
  std::size_t arm_at = 0;      // the killpoint is armed from this spill on
  std::size_t networks = 80;
  std::size_t sites = 6;
};

struct KillOutcome {
  std::size_t durable = 0;             // observations the reopen kept
  std::uintmax_t tail_bytes_dead = 0;  // tail-* bytes the kill left
  std::uintmax_t tail_bytes_open = 0;  // tail-* bytes after the reopen
};

std::uintmax_t tail_file_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("tail-", 0) == 0) {
      total += entry.file_size();
    }
  }
  return total;
}

void run_kill_case(const KillCase& kc, KillOutcome* out = nullptr) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScratchDir dir(std::string("kill_") + kc.label);
  const Dataset d = periodic_dataset(30, kc.networks, kc.sites, 0.03, 97);
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) continuous.append(v);

  SegmentStoreConfig cfg;
  cfg.seal_rows = kc.seal_rows;
  cfg.compact_min_run = 2;
  cfg.background_compaction = false;

  EXPECT_EXIT(
      {
        SegmentStore store(dir.path, cfg);
        store.attach(&d);
        SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
        for (std::size_t t = 0; t < 20; ++t) {
          if (t == kc.arm_at) {
            ::setenv("FENRIR_CHAOS_KILL_POINT", kc.label, 1);
          }
          live.append(d.series[t]);
          store.spill(d.series[t], live);
          if (kc.seal_every != 0 && (t + 1) % kc.seal_every == 0) {
            store.seal_active();
          } else if ((t + 1) % 3 == 0) {
            store.flush();
          }
        }
        store.seal_active();
        store.compact_now();
        ::_exit(0);  // the killpoint never fired — fail the EXPECT_EXIT
      },
      ::testing::ExitedWithCode(137), "");

  // Reopen: recovery rolls the interrupted step forward or back.
  const std::uintmax_t tail_bytes_dead = tail_file_bytes(dir.path);
  SegmentStore store(dir.path, cfg);
  const std::size_t durable = static_cast<std::size_t>(store.processed());
  if (out != nullptr) {
    *out = {durable, tail_bytes_dead, tail_file_bytes(dir.path)};
  }
  ASSERT_LE(durable, 20u) << kc.label;
  std::string error;
  ASSERT_TRUE(store.verify(&error)) << kc.label << ": " << error;
  SegmentStore::Loaded loaded = store.load(&d);
  {
    SimilarityMatrix prefix(UnknownPolicy::kPessimistic, d.weights, 1);
    for (std::size_t t = 0; t < durable; ++t) prefix.append(d.series[t]);
    expect_bit_identical(loaded.matrix, prefix,
                         std::string(kc.label) + " durable prefix");
  }
  SimilarityMatrix resumed = std::move(loaded.matrix);
  grow(store, resumed, d, durable, d.series.size());
  expect_bit_identical(resumed, continuous,
                       std::string(kc.label) + " regrown");
}

TEST(SegmentChaosDeathTest, KillDuringTailFlush) {
  KillOutcome out;
  run_kill_case({"segment_tail_flush", 256}, &out);
  EXPECT_EQ(out.durable, 0u) << "the first flush died before its manifest";
}

TEST(SegmentChaosDeathTest, KillDuringSealRename) {
  KillOutcome out;
  run_kill_case({"segment_seal_rename", 5}, &out);
  EXPECT_EQ(out.durable, 6u) << "the renamed segment is rolled forward";
}

TEST(SegmentChaosDeathTest, KillDuringCompactionRename) {
  KillOutcome out;
  run_kill_case({"segment_compact_rename", 64, 5}, &out);
  EXPECT_EQ(out.durable, 20u) << "every sealed row survives";
}

// A kill right after a write-through pwrite: rows 0..8 are flushed, rows
// 9 and 10 sit in the tail file past what the manifest covers. 270k
// networks over 70k sites pack at width 4, so every record is > 1 MiB
// and each spill writes through. The reopen truncates the two records
// away and loads the nine flushed rows bit-identically.
TEST(SegmentChaosDeathTest, KillDuringTailWriteThrough) {
  const std::size_t networks = 270'000;
  KillOutcome out;
  run_kill_case({"segment_tail_write", 256, 0, 10, networks, 70'000}, &out);
  const auto records = [&](std::size_t rows) {
    std::uintmax_t bytes = kSegmentHeaderBytes;
    for (std::size_t g = 0; g < rows; ++g) {
      bytes += 32 + networks * 4 + 8 * (g + 1);
    }
    return bytes;
  };
  EXPECT_EQ(out.durable, 9u);
  EXPECT_EQ(out.tail_bytes_dead, records(11));
  EXPECT_EQ(out.tail_bytes_open, records(9));
}

// A torn tail (bytes the manifest promised are gone) is salvaged by
// dropping the whole tail; the sealed history survives and the store
// keeps working.
TEST(Segment, TornTailSalvageKeepsSealedHistory) {
  ScratchDir dir("torn");
  const Dataset d = periodic_dataset(30, 80, 6, 0.03, 101);
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) continuous.append(v);

  SegmentStoreConfig cfg;
  cfg.seal_rows = 8;
  std::uint64_t tail_id = 0;
  std::uint64_t tail_base = 0;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, 20);
    ASSERT_GT(store.tail_rows(), 0u);
    tail_base = store.processed() - store.tail_rows();
    // The only tail-*.fenrseg file is the active tail.
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("tail-", 0) == 0) {
        tail_id = std::stoull(name.substr(5));
      }
    }
  }
  // Tear the tail: keep the header, lose the records the manifest
  // covers (simulates a disk that lost writes despite the fsync).
  const fs::path tail =
      dir.path / ("tail-" + std::to_string(tail_id) + ".fenrseg");
  ASSERT_TRUE(fs::exists(tail));
  fs::resize_file(tail, kSegmentHeaderBytes);

  SegmentStore store(dir.path, cfg);
  EXPECT_EQ(store.processed(), tail_base) << "tail dropped whole";
  EXPECT_EQ(store.tail_rows(), 0u);
  std::string error;
  EXPECT_TRUE(store.verify(&error)) << error;
  SegmentStore::Loaded loaded = store.load(&d);
  SimilarityMatrix resumed = std::move(loaded.matrix);
  grow(store, resumed, d, static_cast<std::size_t>(tail_base),
       d.series.size());
  expect_bit_identical(resumed, continuous, "salvaged + regrown");
}

// Per-interval write cost is O(new rows): flushing k fresh observations
// appends ~k records to the tail; the sealed history is never rewritten
// (byte growth of the directory is bounded by the new records plus one
// manifest).
TEST(Segment, FlushWritesOnlyNewRows) {
  ScratchDir dir("incremental");
  const Dataset d = periodic_dataset(40, 80, 6, 0.03, 103);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 1000;  // keep everything in one tail: isolates appends
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
  grow(store, live, d, 0, 30);

  auto& tail_bytes =
      obs::registry().counter("fenrir_segment_tail_bytes_total");
  const double before = tail_bytes.value();
  live.append(d.series[30]);
  store.spill(d.series[30], live);
  store.flush();
  const double one_row = tail_bytes.value() - before;
  // One record: 32 bytes of fixed fields + padded packed row + 31 Φ
  // columns. It must not scale with the 30 rows of history (the old
  // snapshot rewrote ~history²/2 doubles here).
  const double record = 32 + 80 + 31 * 8;
  EXPECT_EQ(one_row, record);
}

}  // namespace
}  // namespace fenrir::io
