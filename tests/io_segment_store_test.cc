#include "io/segment_store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chaos/corrupt.h"
#include "core/dataset_io.h"
#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "io/table.h"
#include "io/wire.h"
#include "obs/events.h"
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
                         std::uint64_t seed, double invalid_frac = 0.1,
                         bool weighted = false) {
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
  if (weighted) {
    d.weights.resize(nets);
    for (auto& w : d.weights) w = 0.1 + r.uniform01() * 2.0;
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

/// Bytes of a record's fixed fields — meta, time, anchor_of — before its
/// packed row.
constexpr std::size_t kRecordFieldBytes = 24;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void put_le(std::string& b, std::size_t at, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes && at + i < b.size(); ++i) {
    b[at + i] = static_cast<char>(v >> (8 * i));
  }
}

std::uint64_t get_le64(const std::string& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && at + i < b.size(); ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(b[at + i])} << (8 * i);
  }
  return v;
}

void resign_manifest(std::string& m) {
  if (m.size() < 4) return;
  put_le(m, m.size() - 4, wire::payload_checksum(m.data(), m.size() - 4), 4);
}

/// Re-signs every whole record of the segment file @p seg, sealed or
/// tail, with the checksum its bytes now call for — payload_checksum of
/// meta's low half XOR payload_checksum of everything from time on, in
/// meta's high half — so an edited record reaches the checks behind its
/// checksum. The header's base_row, networks, width and tri_base place
/// the records; a header whose width is not a packed width, or whose
/// counts are far outside the small fuzz stores, is left as it is.
void resign_segment(std::string& seg) {
  if (seg.size() < kSegmentHeaderBytes) return;
  const std::uint64_t base_row = get_le64(seg, 24);
  const std::uint64_t networks = get_le64(seg, 40);
  const std::uint64_t bits = get_le64(seg, 48);
  const std::uint64_t tri_base = get_le64(seg, 56);
  if (networks > 4096 || (bits != 4 && bits != 8 && bits != 16 &&
                          bits != 32) ||
      tri_base > base_row || base_row > 4096) {
    return;
  }
  const std::size_t row = (core::packed_row_bytes(networks, bits) + 7) / 8 * 8;
  for (std::size_t at = kSegmentHeaderBytes, g = base_row;; ++g) {
    const std::size_t size = kRecordFieldBytes + row + 8 * (g - tri_base + 1);
    if (size > seg.size() - at) return;
    put_le(seg, at + 4,
           wire::payload_checksum(seg.data() + at, 4) ^
               wire::payload_checksum(seg.data() + at + 8, size - 8),
           4);
    at += size;
  }
}

// The central property: spill-as-you-go across several tail rotations,
// close, reopen, mmap-load — the restored matrix is bit-identical to
// one that never left memory, and further appends stay on the exact
// same trajectory (anchors re-derive; values are path-independent).
TEST(Segment, RoundTripBitIdenticalAcrossRotations) {
  // 6, 200 and 300 sites pack to 4, 8 and 16 bits (ids start at
  // kFirstRealSite = 3).
  for (const auto& [site_count, bits] :
       {std::pair<std::size_t, std::uint64_t>{6, 4}, {200, 8}, {300, 16}}) {
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
      for (const SegmentInfo& s : store.segments()) {
        EXPECT_EQ(s.bits, bits) << "sites=" << site_count;
      }
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

// The Snapshot* suites hold the store to the guarantees the earlier
// single-file history format was pinned by, under the same names.
//
// A history saved mid-series, reopened, loaded and grown over the
// remaining observations is bit-identical to one that never left
// memory — for both unknown policies and weighted networks too, which
// the store must carry through its manifest to the loaded matrix.
TEST(SnapshotRoundTrip, SaveLoadAppendBitIdenticalToContinuous) {
  struct Case {
    std::size_t site_count;  // 6 → 1-byte packing, 300 → 2-byte
    bool weighted;
  };
  const Case cases[] = {{6, false}, {300, false}, {6, true}};
  SegmentStoreConfig cfg;
  cfg.seal_rows = 8;  // the first 15 rows span a sealed segment and a tail
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Case& c : cases) {
      for (const auto policy :
           {UnknownPolicy::kPessimistic, UnknownPolicy::kKnownOnly}) {
        const std::string label =
            "seed=" + std::to_string(seed) +
            " sites=" + std::to_string(c.site_count) +
            " weighted=" + std::to_string(c.weighted) +
            " known_only=" +
            std::to_string(policy == UnknownPolicy::kKnownOnly);
        ScratchDir dir("saveload");
        const Dataset d = periodic_dataset(30, 200, c.site_count, 0.02,
                                           seed, 0.1, c.weighted);
        SimilarityMatrix continuous(policy, d.weights, 1);
        for (const RoutingVector& v : d.series) continuous.append(v);
        {
          SegmentStore store(dir.path, cfg);
          store.attach(&d);
          SimilarityMatrix partial(policy, d.weights, 1);
          grow(store, partial, d, 0, 15);
        }

        SegmentStore store(dir.path, cfg);
        store.attach(&d);
        SegmentStore::Loaded in = store.load(&d);
        ASSERT_EQ(in.processed, 15u) << label;
        ASSERT_EQ(in.matrix.policy(), policy) << label;
        ASSERT_EQ(store.weights(), d.weights) << label;
        SimilarityMatrix resumed = std::move(in.matrix);
        grow(store, resumed, d, 15, d.series.size());
        expect_bit_identical(resumed, continuous, label);
      }
    }
  }
}

// Site ids above 65535 force 32-bit packed rows; the store keeps them
// at that width, sealed and in the tail, and the resumed matrix still
// patches correctly.
TEST(SnapshotRoundTrip, FourByteWidthSurvives) {
  ScratchDir dir("width4");
  rng::Rng r(99);
  const std::size_t nets = 60;
  const std::size_t site_count = 70'000;
  Dataset d;
  d.name = "width-four";
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (std::size_t s = 0; s < site_count; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  RoutingVector v;
  v.valid = true;
  v.assignment.resize(nets);
  for (auto& s : v.assignment) {
    s = static_cast<SiteId>(kFirstRealSite + r.uniform(site_count));
  }
  for (std::size_t t = 0; t < 12; ++t) {
    v.time = static_cast<TimePoint>(t) * kDay;
    d.series.push_back(v);
    v.assignment[r.uniform(nets)] =
        static_cast<SiteId>(kFirstRealSite + r.uniform(site_count));
  }
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, {}, 1);
  for (const RoutingVector& obs : d.series) continuous.append(obs);

  SegmentStoreConfig cfg;
  cfg.seal_rows = 4;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix partial(UnknownPolicy::kPessimistic, {}, 1);
    grow(store, partial, d, 0, 6);
    ASSERT_EQ(store.segments().size(), 1u);
    EXPECT_EQ(store.segments()[0].bits, 32u);
    EXPECT_EQ(store.tail_rows(), 2u);
  }
  SegmentStore store(dir.path, cfg);
  store.attach(&d);
  SegmentStore::Loaded in = store.load(&d);
  ASSERT_EQ(in.processed, 6u);
  SimilarityMatrix resumed = std::move(in.matrix);
  grow(store, resumed, d, 6, d.series.size());
  expect_bit_identical(resumed, continuous, "width 4");
  expect_bit_identical(store.load(&d).matrix, continuous,
                       "width 4 reloaded");
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

// A record's checksum is computed once, when it is spilled, and checked
// once per read of the record — load checks each retained record once,
// and repeated flushes of an unchanged store do no checksum work at all
// (a whole-file save would re-hash everything every time).
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
  EXPECT_EQ(verified.value(), before + static_cast<double>(d.series.size()))
      << "load verifies each retained record exactly once";
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

// A damaged record in the unsealed tail is refused by its own checksum:
// one bit flipped in record 1's Φ(1,0) (mantissa bit 40, a change of
// 2^-13 to a Φ in [0.5, 1)), or in its anchor_of, of a 12-row,
// 80-network store held in tail-0. load() with and without the dataset
// and verify() refuse it as a checksum mismatch naming the segment and
// the observation — before records carried checksums, both flips
// loaded and verified.
TEST(Segment, TailRecordDamageRefused) {
  const Dataset d = periodic_dataset(12, 80, 6, 0.03, 44);
  // Record 0: 24 bytes of fields, 80 4-bit ids (40 bytes), one Φ column.
  const std::size_t record1 =
      kSegmentHeaderBytes + kRecordFieldBytes + 40 + 8;
  const std::pair<const char*, std::size_t> flips[] = {
      {"phi(1,0)", record1 + kRecordFieldBytes + 40 + 5},
      {"anchor_of", record1 + 16}};
  for (const auto& [what, at] : flips) {
    ScratchDir dir("tail_damage");
    {
      SegmentStore store(dir.path, SegmentStoreConfig{});
      store.attach(&d);
      SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
      grow(store, live, d, 0, d.series.size());
      ASSERT_TRUE(store.segments().empty()) << what;
      ASSERT_EQ(store.tail_rows(), d.series.size()) << what;
    }
    const fs::path tail = dir.path / "tail-0.fenrseg";
    std::string bytes = read_file(tail);
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    write_file(tail, bytes);

    const SegmentStore store(dir.path, SegmentStoreConfig{});
    const auto expect_named = [&](const std::string& error) {
      EXPECT_NE(error.find("segment tail-0.fenrseg: checksum mismatch at "
                           "observation 1 "),
                std::string::npos)
          << what << ": " << error;
    };
    std::string error;
    EXPECT_FALSE(store.verify(&error)) << what;
    expect_named(error);
    for (const Dataset* identity : {static_cast<const Dataset*>(nullptr), &d}) {
      try {
        (void)store.load(identity);
        ADD_FAILURE() << what << ": damaged tail record loaded";
      } catch (const DatasetIoError& e) {
        expect_named(e.what());
      }
    }
  }
}

/// Loads @p store against @p d and expects the exact row check to refuse
/// it, naming observation @p g.
void expect_row_mismatch(const SegmentStore& store, const Dataset& d,
                         std::uint64_t g, const std::string& label) {
  try {
    (void)store.load(&d);
    ADD_FAILURE() << label << ": accepted";
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find("row mismatch at observation " +
                                         std::to_string(g) + " "),
              std::string::npos)
        << label << ": " << e.what();
  }
}

// Identity: resuming against a rewritten dataset fails the exact row
// check (flat verification), and a shrunk dataset is caught up front.
// So does a damaged packed row the dataset never held: one byte of
// record 0's packed row XORed with 0x11, in the unsealed tail and in a
// sealed segment, the record re-signed so its checksum passes.
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
  expect_row_mismatch(store, rewritten, 3, "rewritten dataset");

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

  for (const bool sealed : {false, true}) {
    ScratchDir flip(sealed ? "identity_sealed_flip" : "identity_tail_flip");
    const Dataset small = periodic_dataset(12, 80, 6, 0.03, 44);
    // The default seal_rows keeps all 12 rows in the tail.
    SegmentStoreConfig small_cfg;
    if (sealed) small_cfg.seal_rows = 5;
    {
      SegmentStore s(flip.path, small_cfg);
      s.attach(&small);
      SimilarityMatrix m(UnknownPolicy::kPessimistic, small.weights, 1);
      grow(s, m, small, 0, small.series.size());
      ASSERT_EQ(s.segments().empty(), !sealed);
    }
    const fs::path victim =
        flip.path / (sealed ? "seg-0.fenrseg" : "tail-0.fenrseg");
    std::string bytes = read_file(victim);
    bytes[kSegmentHeaderBytes + kRecordFieldBytes + 5] ^= 0x11;
    resign_segment(bytes);
    write_file(victim, bytes);
    const SegmentStore s(flip.path, small_cfg);
    std::string error;
    EXPECT_TRUE(s.verify(&error)) << "the flip is structurally sound";
    EXPECT_EQ(s.load(nullptr).matrix.size(), small.series.size())
        << "without a dataset there is nothing to compare against";
    expect_row_mismatch(s, small, 0,
                        sealed ? "re-signed sealed flip" : "tail flip");
  }
}

// A watch's saved state — matrix rows plus modebook — must disagree
// usefully when the dataset underneath it changed: a shrunk dataset is
// told both counts and what to do, a rewritten one which observation
// differs. The untouched dataset still resumes the whole state.
TEST(SnapshotWatchState, DatasetMismatchesAreActionable) {
  ScratchDir dir("watch_mismatch");
  const Dataset d = periodic_dataset(20, 100, 6, 0.02, 5);
  core::ModeBook book;
  SegmentStoreConfig cfg;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    for (const RoutingVector& v : d.series) {
      book.observe(v);
      live.append(v);
      store.spill(v, live);
    }
    store.flush(&book);
  }
  const SegmentStore store(dir.path, cfg);

  Dataset shrunk = d;
  shrunk.series.resize(10);
  try {
    (void)store.load(&shrunk);
    FAIL() << "shrunk dataset accepted";
  } catch (const DatasetIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ahead of the dataset"), std::string::npos) << what;
    EXPECT_NE(what.find("20 observations recorded, 10 present"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("pass the full dataset or start fresh"),
              std::string::npos)
        << what;
  }

  Dataset rewritten = d;
  rewritten.series[3].assignment[7] =
      rewritten.series[3].assignment[7] == kUnknownSite ? kFirstRealSite
                                                        : kUnknownSite;
  try {
    (void)store.load(&rewritten);
    FAIL() << "rewritten dataset accepted";
  } catch (const DatasetIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row mismatch at observation 3 "), std::string::npos)
        << what;
    EXPECT_NE(what.find("not the one this store was built from"),
              std::string::npos)
        << what;
  }

  const SegmentStore::Loaded loaded = store.load(&d);
  EXPECT_EQ(loaded.processed, d.series.size());
  ASSERT_TRUE(loaded.has_modebook);
  EXPECT_EQ(loaded.history, book.history());
}

// Resume checks every field of each retained observation against the
// dataset: each site id position (the first, the middle ones, and the
// odd row's last nibble) raised by one or set past the record's 4-bit
// width, two swapped ids, validity, time, one element more and one less.
// Every mutation of a sealed record and of a tail record makes load
// throw an error naming that observation; the untouched dataset loads.
TEST(Segment, ResumeSeesEveryRowField) {
  ScratchDir dir("every_field");
  Dataset d;
  d.name = "every-field";
  const std::size_t nets = 41;
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(n);
  for (std::size_t s = 0; s < 12; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  RoutingVector base;
  base.valid = true;
  for (std::size_t i = 0; i < nets; ++i) {
    base.assignment.push_back(static_cast<SiteId>(3 + (i * 7) % 11));
  }
  for (std::size_t t = 0; t < 3; ++t) {
    base.time = 1'700'000'000 + static_cast<TimePoint>(t) * kDay;
    d.series.push_back(base);
  }
  SegmentStoreConfig cfg;
  cfg.seal_rows = 2;  // observations 0 and 1 seal, 2 stays in the tail
  cfg.background_compaction = false;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, d.series.size(), 2);
    ASSERT_EQ(store.segments().size(), 1u);
    ASSERT_EQ(store.tail_rows(), 1u);
    ASSERT_EQ(store.segments()[0].bits, 4u);
  }
  const SegmentStore store(dir.path, cfg);
  EXPECT_EQ(store.load(&d).matrix.size(), 3u);

  for (const std::size_t g : {std::size_t{1}, std::size_t{2}}) {
    const RoutingVector& row = d.series[g];
    std::vector<std::pair<std::string, RoutingVector>> mutants;
    for (std::size_t i = 0; i < nets; ++i) {
      for (const SiteId changed : {row.assignment[i] + 1, SiteId{1} << 31}) {
        RoutingVector v = row;
        v.assignment[i] = changed;
        mutants.emplace_back("site " + std::to_string(i) + " = " +
                                 std::to_string(changed),
                             v);
      }
    }
    RoutingVector v = row;
    std::swap(v.assignment[4], v.assignment[5]);
    mutants.emplace_back("ids 4 and 5 swapped", v);
    v = row;
    std::swap(v.assignment[10], v.assignment[12]);
    mutants.emplace_back("ids 10 and 12 swapped", v);
    v = row;
    v.valid = false;
    mutants.emplace_back("validity", v);
    v = row;
    v.time += 1;
    mutants.emplace_back("time", v);
    v = row;
    v.assignment.push_back(0);  // a trailing unknown must still count
    mutants.emplace_back("one element more", v);
    v = row;
    v.assignment.pop_back();
    mutants.emplace_back("one element less", v);
    for (const auto& [what, mutant] : mutants) {
      Dataset changed = d;
      changed.series[g] = mutant;
      expect_row_mismatch(store, changed, g,
                          "observation " + std::to_string(g) + ", " + what);
    }
  }
}

// The stored hashes are part of the on-disk format: a change to either
// must bump kManifestVersion, not slip through. Rows carry no hash; the
// manifest keeps the dataset's header hash (network keys and weights)
// and its names hash (the site names the rows use). The values are the
// same on every host (words are built by value).
TEST(Segment, IdentityHashIsPinned) {
  ScratchDir dir("pinned");
  Dataset d;
  d.name = "pinned";
  for (std::uint64_t n = 0; n < 11; ++n) d.networks.intern(n * 0x01010101u);
  for (std::size_t n = 0; n < 11; ++n) d.weights.push_back(0.25 * (n + 1));
  for (const char* name : {"lax", "iad", "ams", "nrt"}) d.sites.intern(name);
  RoutingVector v;
  v.time = 1'577'836'800;  // 2020-01-01
  v.valid = true;
  for (SiteId s = 0; s < 11; ++s) v.assignment.push_back(s % 7);
  d.series.push_back(v);
  {
    SegmentStore store(dir.path, SegmentStoreConfig{});
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, 1);
  }
  // Magic, version and length, then four flag bytes: the header hash,
  // the names hash and the largest site id the rows use.
  const std::string manifest = read_file(dir.path / "MANIFEST");
  const std::size_t hashes_at = 8 + 4 + 8 + 4;
  EXPECT_EQ(get_le64(manifest, hashes_at + 16), 6u);
  EXPECT_EQ(get_le64(manifest, hashes_at), 0x2905DE6077DB0666ull);
  EXPECT_EQ(get_le64(manifest, hashes_at + 8), 0xA2D2EE4961320690ull);
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

// A watch's ModeBook survives flush → reopen → load → restore at every
// packed width (site ids up to 15, past 15, past 255 and past 65,535),
// frozen and adapting:
// each restored representative is the vector that founded its mode (or
// its latest member, adapting), and the resumed book's verdicts on the
// rest of the series are those of a book that never stopped.
TEST(SnapshotWatchState, ModeBookSurvivesEveryWidth) {
  struct Case {
    std::size_t site_count;
    std::size_t bits;
  };
  for (const Case c :
       {Case{6, 4}, Case{200, 8}, Case{300, 16}, Case{70'000, 32}}) {
    for (const bool adapt : {false, true}) {
      const std::string label = "width " + std::to_string(c.bits) +
                                " bits" + (adapt ? " adapting" : " frozen");
      ScratchDir dir("modebook_width");
      const Dataset d = periodic_dataset(30, 120, c.site_count, 0.05,
                                         c.site_count + adapt, 0.1);
      core::ModeBook::Config bc;
      bc.adapt_representative = adapt;

      core::ModeBook continuous(bc);
      std::vector<core::ModeBook::Match> want;
      for (const RoutingVector& v : d.series) {
        want.push_back(continuous.observe(v));
      }

      const std::size_t half = d.series.size() / 2;
      core::ModeBook first(bc);
      std::vector<RoutingVector> reps;  // what each mode should hold
      {
        SegmentStore store(dir.path, SegmentStoreConfig{});
        store.attach(&d);
        SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
        for (std::size_t t = 0; t < half; ++t) {
          const core::ModeBook::Match m = first.observe(d.series[t]);
          if (m.is_new) reps.push_back(d.series[t]);
          if (adapt && d.series[t].valid && !m.is_new) {
            reps[m.mode] = d.series[t];
          }
          live.append(d.series[t]);
          store.spill(d.series[t], live);
        }
        store.flush(&first);
      }

      SegmentStore store(dir.path, SegmentStoreConfig{});
      store.attach(&d);
      SegmentStore::Loaded loaded = store.load(&d);
      ASSERT_TRUE(loaded.has_modebook) << label;
      EXPECT_EQ(loaded.representatives.bits(), c.bits) << label;
      core::ModeBook resumed(bc);
      resumed.restore(std::move(loaded.representatives),
                      std::move(loaded.history));
      ASSERT_GE(reps.size(), 2u) << label;
      ASSERT_EQ(resumed.mode_count(), reps.size()) << label;
      EXPECT_EQ(resumed.history(), first.history()) << label;
      for (std::size_t m = 0; m < reps.size(); ++m) {
        EXPECT_EQ(resumed.representative(m).assignment, reps[m].assignment)
            << label << " mode " << m;
      }
      for (std::size_t t = half; t < d.series.size(); ++t) {
        const core::ModeBook::Match got = resumed.observe(d.series[t]);
        EXPECT_EQ(got.mode, want[t].mode) << label << " obs " << t;
        EXPECT_EQ(got.phi, want[t].phi) << label << " obs " << t;
        EXPECT_EQ(got.is_new, want[t].is_new) << label << " obs " << t;
        EXPECT_EQ(got.is_recurrence, want[t].is_recurrence)
            << label << " obs " << t;
      }
      EXPECT_EQ(resumed.history(), continuous.history()) << label;
    }
  }
}

// Every way a MANIFEST can be damaged gets its own diagnostic and a
// segment_store_corrupt event: bad magic, truncation, trailing bytes,
// bit rot, an older format version (v1 to v7 alike), and checksummed
// manifests that no build writes — an identity mode that would
// otherwise skip the identity checks in load(), a ModeBook section of
// an impossible width or whose representatives cover another network
// count than the store's rows, which restore() would otherwise accept
// and the first observe() trip over, and segment payloads that disagree
// with their row counts, which load() would otherwise walk past.
TEST(Segment, ManifestCorruptionClassesAreDistinct) {
  ScratchDir dir("manifest_corrupt");
  const Dataset d = periodic_dataset(12, 80, 6, 0.03, 67);
  SegmentStoreConfig cfg;
  cfg.seal_rows = 5;
  core::ModeBook book;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, d.series.size());
    for (const RoutingVector& v : d.series) book.observe(v);
    store.flush(&book);
  }
  const fs::path manifest = dir.path / "MANIFEST";
  const std::string good = read_file(manifest);
  ASSERT_GT(good.size(), 64u);
  const auto resign = [](std::string& b) {
    const std::uint32_t crc = wire::payload_checksum(b.data(), b.size() - 4);
    for (int i = 0; i < 4; ++i) {
      b[b.size() - 4 + i] = static_cast<char>(crc >> (8 * i));
    }
  };
  std::uint64_t tail_rows = 0;
  std::uint64_t sealed_rows = 0;
  {
    const SegmentStore store(dir.path, cfg);
    tail_rows = store.tail_rows();
    ASSERT_FALSE(store.segments().empty());
    ASSERT_EQ(store.segments()[0].bits, 4u);
    sealed_rows = store.segments()[0].rows;
  }
  ASSERT_GT(tail_rows, 0u);
  // The modebook section closes the manifest: u64 width, u64 networks,
  // u64 mode count, 80 4-bit ids (40 bytes) per mode, then the history —
  // so the section starts at a fixed distance from the end.
  const std::size_t book_at = good.size() - 4 - 8 * book.history().size() -
                              8 - book.mode_count() * 40 - 24;
  const auto read_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t{static_cast<unsigned char>(good[at + i])} << (8 * i);
    }
    return v;
  };
  const auto with_u64s =
      [&](std::initializer_list<std::pair<std::size_t, std::uint64_t>> at) {
        std::string b = good;
        for (const auto& [off, v] : at) {
          for (int i = 0; i < 8; ++i) {
            b[off + i] = static_cast<char>(v >> (8 * i));
          }
        }
        resign(b);
        return b;
      };
  const auto with_book = [&](std::size_t field, std::uint64_t v) {
    return with_u64s({{book_at + field, v}});
  };
  // The header's processed count follows magic, version, length, the
  // four flag bytes, three hashes, networks, the (empty) weights and
  // base_row; the entries follow processed, the next segment id, the
  // newest time, the sealed count and the tail flag byte, 64 bytes each
  // in one layout — rows 16 and payload 40 bytes in — and the tail's
  // entry is the last, right before the modebook section.
  ASSERT_TRUE(d.weights.empty());
  const std::size_t processed_at = 8 + 4 + 8 + 4 + 8 * 4 + 8 + 8;
  const std::size_t seg0_payload_at = processed_at + 8 + 8 + 8 + 9 + 40;
  const std::size_t tail_rows_at = book_at - 64 + 16;
  ASSERT_EQ(read_u64(processed_at), d.series.size());
  ASSERT_EQ(read_u64(seg0_payload_at - 24), sealed_rows);
  ASSERT_EQ(read_u64(tail_rows_at), tail_rows);
  // One row more than the tail file holds, processed raised to match:
  // load() would walk a record past the end of the tail's bytes.
  const std::string tail_overrun =
      with_u64s({{tail_rows_at, tail_rows + 1},
                 {processed_at, d.series.size() + 1}});
  // A sealed segment's payload eight bytes short of its rows' records.
  const std::string seg_short =
      with_u64s({{seg0_payload_at, read_u64(seg0_payload_at) - 8}});
  ASSERT_EQ(with_book(0, 4), good) << "book_at does not point at a width";
  ASSERT_EQ(with_book(8, 80), good) << "book_at + 8 does not hold networks";

  const auto with_version = [&](std::uint32_t v) {
    std::string b = good;
    for (int i = 0; i < 4; ++i) {
      b[sizeof(kManifestMagic) + i] = static_cast<char>(v >> (8 * i));
    }
    return b;
  };
  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0xFF);
  std::string bit_rot = good;
  bit_rot[good.size() / 2] = static_cast<char>(bit_rot[good.size() / 2] ^ 1);
  // The identity-mode byte follows magic, version and length; re-sign the
  // trailer so only the consistency check can catch it.
  std::string bad_mode = good;
  bad_mode[sizeof(kManifestMagic) + 4 + 8] = 2;
  resign(bad_mode);

  struct Case {
    std::string bytes;
    const char* kind;
    const char* detail;
  };
  const std::vector<Case> cases = {
      {bad_magic, "bad magic", "FENRMANI"},
      {good.substr(0, good.size() - 7), "truncated", "recorded length"},
      {good + "x", "trailing bytes", "recorded length"},
      {bit_rot, "checksum mismatch", "bit rot"},
      {with_version(1), "version skew", "file is v1"},
      {with_version(2), "version skew", "file is v2"},
      {with_version(3), "version skew", "file is v3"},
      {with_version(4), "version skew", "file is v4"},
      {with_version(5), "version skew", "file is v5"},
      {with_version(6), "version skew", "file is v6"},
      {with_version(7), "version skew", "file is v7"},
      {bad_mode, "inconsistent", "identity mode 2"},
      {with_book(0, 3), "inconsistent", "packed width 3"},
      {with_book(8, 79), "inconsistent", "covers 79 networks"},
      {tail_overrun, "inconsistent", "the tail's payload"},
      {seg_short, "inconsistent", "segment 0's payload"},
  };
  std::set<std::string> messages;
  for (const Case& c : cases) {
    write_file(manifest, c.bytes);
    const std::uint64_t seq = obs::event_bus().last_seq();
    try {
      SegmentStore store(dir.path, cfg);
      ADD_FAILURE() << c.kind << " (" << c.detail << "): manifest opened";
    } catch (const DatasetIoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(c.kind), std::string::npos) << what;
      EXPECT_NE(what.find(c.detail), std::string::npos) << what;
      messages.insert(what);
    }
    const std::vector<obs::Event> events =
        obs::event_bus().since(seq, "segment_store_corrupt");
    ASSERT_EQ(events.size(), 1u) << c.kind << " (" << c.detail << ")";
    EXPECT_NE(events[0].fields.find(c.detail), std::string::npos)
        << events[0].fields;
  }
  EXPECT_EQ(messages.size(), cases.size()) << "two classes share a message";

  write_file(manifest, good);
  {
    SegmentStore store(dir.path, cfg);
    EXPECT_EQ(store.processed(), d.series.size());
    std::string error;
    EXPECT_TRUE(store.verify(&error)) << error;
  }

  // Segment files of the previous layout (v3: 32-byte record headers
  // holding a row hash) are version skew as well: a sealed one when
  // load() maps it, the tail when the open reads its header.
  std::string tail_name;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("tail-", 0) == 0) tail_name = name;
  }
  ASSERT_FALSE(tail_name.empty());
  for (const std::string& name : {std::string("seg-0.fenrseg"), tail_name}) {
    const fs::path file = dir.path / name;
    const std::string file_good = read_file(file);
    std::string v3 = file_good;
    put_le(v3, sizeof(kSegmentMagic), 3, 4);
    write_file(file, v3);
    const std::uint64_t seq = obs::event_bus().last_seq();
    try {
      const SegmentStore store(dir.path, cfg);
      (void)store.load(&d);
      ADD_FAILURE() << name << ": v3 segment accepted";
    } catch (const DatasetIoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version skew"), std::string::npos) << what;
      EXPECT_NE(what.find("file is v3"), std::string::npos) << what;
    }
    EXPECT_EQ(obs::event_bus().since(seq, "segment_store_corrupt").size(), 1u)
        << name;
    write_file(file, file_good);
  }
  SegmentStore store(dir.path, cfg);
  EXPECT_EQ(store.load(&d).matrix.size(), d.series.size());
}

// Records past the write-through threshold reach the tail file during
// spill(), but only flush() makes them durable: the manifest and
// fenrir_segment_tail_bytes_total move at the flush.
TEST(Segment, WriteThroughCountsOnlyDurableBytes) {
  ScratchDir dir("writethrough");
  SegmentStoreConfig cfg;
  SegmentStore store(dir.path, cfg);
  store.configure(UnknownPolicy::kPessimistic, {});
  const std::size_t networks = 300'000;  // 1.2 MB packed at 32 bits
  const std::vector<std::byte> packed(networks * 4, std::byte{7});
  const std::vector<double> phi{1.0};
  auto& tail_bytes =
      obs::registry().counter("fenrir_segment_tail_bytes_total");
  const double before = tail_bytes.value();
  const fs::path tail = dir.path / "tail-0.fenrseg";

  store.append_raw(true, 0, kNoAnchor, networks, 32, packed, phi);
  const std::uintmax_t record = kRecordFieldBytes + networks * 4 + 8;
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

// Rows spilled while their Φ is pending wait in the store's queue, and a
// flush encodes them at the matrix's current width. The series packs at
// 4 bits until row 17 pulls in id 45, so the flush after row 19 encodes
// rows 15..19 at 8 bits, rotating the 4-bit tail of rows 10..14 first.
// One store's matrix settles each row before its spill (encoded at once,
// so it rotates at row 17), the other's never reads Φ (queued until each
// flush); both hold a 4-bit and an 8-bit run and load bit-identically to
// the scalar reference.
TEST(Segment, PendingRowsQueueAcrossAWidening) {
  ScratchDir eager_dir("queue_eager");
  ScratchDir queued_dir("queue_queued");
  Dataset d = periodic_dataset(30, 300, 6, 0.03, 109);
  for (std::size_t s = 6; s <= 42; ++s) {
    d.sites.intern("site" + std::to_string(s));
  }
  for (std::size_t t = 17; t < d.series.size(); ++t) {
    d.series[t].assignment[t] = kFirstRealSite + 42;
  }
  SegmentStoreConfig cfg;
  cfg.seal_rows = 8;
  cfg.background_compaction = false;
  for (const bool eager : {true, false}) {
    SegmentStore store(eager ? eager_dir.path : queued_dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    for (std::size_t t = 0; t < d.series.size(); ++t) {
      live.append(d.series[t]);
      if (eager) (void)live.phi(t, 0);
      store.spill(d.series[t], live);
      EXPECT_EQ(store.processed(), t + 1);
      if ((t + 1) % 5 == 0) store.flush();
    }
    store.flush();
  }
  const SimilarityMatrix ref = SimilarityMatrix::compute_reference(d);
  for (const bool eager : {true, false}) {
    const SegmentStore store(eager ? eager_dir.path : queued_dir.path, cfg);
    EXPECT_EQ(store.processed(), d.series.size());
    std::set<std::uint64_t> widths;
    for (const SegmentInfo& s : store.segments()) widths.insert(s.bits);
    EXPECT_EQ(widths, (std::set<std::uint64_t>{4, 8}));
    std::string error;
    EXPECT_TRUE(store.verify(&error)) << error;
    expect_bit_identical(store.load(&d).matrix, ref,
                         eager ? "eager across a widening"
                               : "queued across a widening");
  }
}

// Compaction merges runs of undersized sealed segments into one and the
// loaded matrix does not move a bit.
// The second pass pulls id 53 in from row 18 on, so a 4-bit run and an
// 8-bit run merge into one segment at the wider width.
TEST(Segment, CompactionPreservesMatrix) {
 for (const bool mixed : {false, true}) {
  ScratchDir dir(mixed ? "compact_mixed" : "compact");
  Dataset d = periodic_dataset(36, 80, 6, 0.03, 53);
  if (mixed) {
    for (std::size_t s = 6; s <= 50; ++s) {
      d.sites.intern("site" + std::to_string(s));
    }
    for (std::size_t t = 18; t < d.series.size(); ++t) {
      d.series[t].assignment[t] = kFirstRealSite + 50;
    }
  }
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

  EXPECT_EQ(store.segments().front().bits, 4u);
  EXPECT_EQ(store.segments().back().bits, mixed ? 8u : 4u);
  const std::size_t merged = store.compact_now();
  EXPECT_GE(merged, 3u);
  EXPECT_LT(store.segments().size(), before);
  EXPECT_EQ(store.segments().front().bits, mixed ? 8u : 4u);
  std::string error;
  EXPECT_TRUE(store.verify(&error)) << error;
  SegmentStore::Loaded got = store.load(&d);
  expect_bit_identical(got.matrix, want.matrix, "compacted");

  // Reopen: the compacted layout is what the manifest committed.
  SegmentStore reopened(dir.path, cfg);
  SegmentStore::Loaded again = reopened.load(&d);
  expect_bit_identical(again.matrix, want.matrix, "compacted+reopened");
  SimilarityMatrix continuous(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) continuous.append(v);
  expect_bit_identical(again.matrix, continuous, "compacted vs continuous");
 }
}

// The default store compacts in a background thread. Four manual seals
// of three rows each make a run of compact_min_run undersized segments,
// so the flush inside the fourth seal_active() starts the merge; spills
// and flushes go on while it may be running (they wait on the store's
// lock). The merge runs once, and the store loads bit-identically to
// compute() over the same rows, before and after a reopen.
TEST(Segment, BackgroundCompactionRunsBesideSpills) {
  ScratchDir dir("compact_background");
  const Dataset d = periodic_dataset(30, 80, 6, 0.03, 131);
  SegmentStoreConfig cfg;
  ASSERT_TRUE(cfg.background_compaction);
  const std::uint64_t seq = obs::event_bus().last_seq();
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    for (std::size_t t = 0; t < d.series.size(); ++t) {
      live.append(d.series[t]);
      store.spill(d.series[t], live);
      if (t + 1 <= 3 * cfg.compact_min_run && (t + 1) % 3 == 0) {
        store.seal_active();
      } else {
        store.flush();
      }
    }
    EXPECT_EQ(store.compact_now(), 0u) << "the background pass merged it";
    ASSERT_EQ(store.segments().size(), 1u);
    EXPECT_EQ(store.segments()[0].rows, 3 * cfg.compact_min_run);
    expect_bit_identical(store.load(&d).matrix, SimilarityMatrix::compute(d),
                         "background compaction");
  }
  EXPECT_EQ(obs::event_bus().since(seq, "compaction_done").size(), 1u);
  const SegmentStore reopened(dir.path, cfg);
  expect_bit_identical(reopened.load(&d).matrix, SimilarityMatrix::compute(d),
                       "background compaction, reopened");
}

// Mid-stream width growth (site ids crossing 255, so 4 bits → 16) seals
// the tail early and rotates; the mixed-width store still loads
// bit-identically.
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
    // Rows 8+ pull in wide site ids, widening PackedSeries to 16 bits.
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

// The modebook travels through the manifest: representatives and
// history restored exactly — for a book of several modes and for a book
// with none (a watch whose sweeps were all invalid so far), which
// restores to a book that observes the series as a fresh one does.
TEST(Segment, ModeBookStateRoundTrips) {
  const Dataset d = periodic_dataset(25, 80, 6, 0.03, 83);
  core::ModeBook full;
  for (const RoutingVector& v : d.series) full.observe(v);
  const core::ModeBook empty;
  for (const core::ModeBook* book : {&std::as_const(full), &empty}) {
    const std::string label =
        std::to_string(book->mode_count()) + " modes";
    ScratchDir dir("modebook");
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
      store.flush(book);
    }
    SegmentStore store(dir.path, cfg);
    SegmentStore::Loaded loaded = store.load(&d);
    ASSERT_TRUE(loaded.has_modebook) << label;
    ASSERT_EQ(loaded.representatives.rows(), book->mode_count()) << label;
    EXPECT_EQ(loaded.history, book->history()) << label;
    core::ModeBook restored;
    restored.restore(std::move(loaded.representatives), loaded.history);
    for (std::size_t m2 = 0; m2 < book->mode_count(); ++m2) {
      EXPECT_EQ(restored.representative(m2).assignment,
                book->representative(m2).assignment)
          << label << " mode " << m2;
    }
    if (book->mode_count() == 0) {
      for (const RoutingVector& v : d.series) restored.observe(v);
      EXPECT_EQ(restored.history(), full.history()) << label;
    }
  }
}

// A watch whose 16th site id first appears mid-stream: the matrix and
// the book widen from 4 to 8 bits, the store rotates its tail, and a
// resume lands either before the widening (the mapped 4-bit prefix
// widens after the resume) or after it (4- and 8-bit segments load
// together). Every verdict equals a matrix-free ModeBook's, and the
// store reloads bit-identically to a matrix that never stopped.
TEST(SnapshotWatchState, SixteenthSiteMidStreamWidensAcrossResume) {
  for (const std::size_t resume_at : {std::size_t{11}, std::size_t{23}}) {
    const std::string label = "resume at " + std::to_string(resume_at);
    ScratchDir dir("sixteenth_site");
    Dataset d = periodic_dataset(34, 90, 13, 0.04, 71);  // ids ≤ 15
    d.sites.intern("site13");
    for (std::size_t t = 17; t < d.series.size(); ++t) {
      d.series[t].assignment[t % 90] = 16;
    }
    core::ModeBook reference;
    SimilarityMatrix continuous(UnknownPolicy::kKnownOnly, d.weights, 1);
    std::vector<core::ModeBook::Match> want;
    for (const RoutingVector& v : d.series) {
      want.push_back(reference.observe(v));
      continuous.append(v);
    }

    SegmentStoreConfig cfg;
    cfg.seal_rows = 6;
    const auto watch = [&](std::size_t from, std::size_t to) {
      SegmentStore store(dir.path, cfg);
      store.attach(&d);
      core::ModeBook book;
      SimilarityMatrix matrix(UnknownPolicy::kKnownOnly, d.weights, 1);
      if (from > 0) {
        SegmentStore::Loaded loaded = store.load(&d);
        ASSERT_EQ(loaded.processed, from) << label;
        matrix = std::move(loaded.matrix);
        book.restore(std::move(loaded.representatives),
                     std::move(loaded.history));
      }
      for (std::size_t t = from; t < to; ++t) {
        matrix.append(d.series[t]);
        const core::ModeBook::Match got = book.observe(d.series[t]);
        store.spill(d.series[t], matrix);
        if ((t + 1) % 4 == 0) store.flush();
        EXPECT_EQ(got.mode, want[t].mode) << label << " obs " << t;
        EXPECT_EQ(got.phi, want[t].phi) << label << " obs " << t;
        EXPECT_EQ(got.is_new, want[t].is_new) << label << " obs " << t;
        EXPECT_EQ(got.is_recurrence, want[t].is_recurrence)
            << label << " obs " << t;
      }
      store.flush(&book);
    };
    watch(0, resume_at);
    watch(resume_at, d.series.size());

    SegmentStore store(dir.path, cfg);
    std::set<std::uint64_t> widths;
    for (const SegmentInfo& s : store.segments()) widths.insert(s.bits);
    EXPECT_EQ(widths, (std::set<std::uint64_t>{4, 8})) << label;
    std::string error;
    EXPECT_TRUE(store.verify(&error)) << label << ": " << error;
    SegmentStore::Loaded loaded = store.load(&d);
    expect_bit_identical(loaded.matrix, continuous, label);
    EXPECT_EQ(loaded.representatives.bits(), 8u) << label;
    EXPECT_EQ(loaded.history, reference.history()) << label;
  }
}

// What `fenrirctl watch --store` runs, on a weighted dataset: a heavy
// network stays at LAX while three light ones visit AMS and come back
// (weights 100,1,1,1). Each verdict's Φ must be the persisted matrix
// cell against the mode's founding row — 0.971 for the detour, one mode
// in all — not the unweighted 0.25 that founded a second mode.
TEST(SnapshotWatchState, WeightedVerdictsMatchThePersistedMatrix) {
  ScratchDir dir("weighted_watch");
  Dataset d;
  d.name = "weights";
  for (std::uint64_t key = 1; key <= 4; ++key) d.networks.intern(key);
  const SiteId lax = d.sites.intern("LAX");
  const SiteId ams = d.sites.intern("AMS");
  d.weights = {100.0, 1.0, 1.0, 1.0};
  const std::vector<SiteId> home = {lax, lax, lax, lax};
  const std::vector<SiteId> detour = {lax, ams, ams, ams};
  for (const std::vector<SiteId>& a : {home, detour, home}) {
    RoutingVector v;
    v.time = static_cast<TimePoint>(d.series.size()) * kDay;
    v.assignment = a;
    d.series.push_back(v);
  }

  core::ModeBook book(core::ModeBook::Config{}, d.weights);
  std::vector<core::ModeBook::Match> verdicts;
  {
    SegmentStore store(dir.path, SegmentStoreConfig{});
    store.attach(&d);
    store.configure(UnknownPolicy::kKnownOnly, d.weights);
    SimilarityMatrix matrix = store.load(&d).matrix;
    for (const RoutingVector& v : d.series) {
      matrix.append(v);
      verdicts.push_back(book.observe(v));
      store.spill(v, matrix);
    }
    store.flush(&book);
  }
  EXPECT_EQ(book.mode_count(), 1u);
  EXPECT_EQ(io::fixed(verdicts[1].phi, 3), "0.971");
  const SegmentStore store(dir.path, SegmentStoreConfig{});
  const SegmentStore::Loaded loaded = store.load(&d);
  ASSERT_EQ(loaded.matrix.size(), d.series.size());
  for (std::size_t i = 1; i < d.series.size(); ++i) {
    EXPECT_EQ(verdicts[i].mode, 0u) << "observation " << i;
    EXPECT_EQ(verdicts[i].phi, loaded.matrix.phi(i, 0)) << "observation " << i;
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
  // Arms FENRIR_CHAOS_KILL_SAVE=<kill_save> (a byte offset into the next
  // atomic manifest write) instead of the labelled killpoint.
  const char* kill_save = nullptr;
};

struct KillOutcome {
  std::size_t durable = 0;             // observations the reopen kept
  std::uintmax_t tail_bytes_dead = 0;  // tail-* bytes the kill left
  std::uintmax_t tail_bytes_open = 0;  // tail-* bytes after the reopen
  std::size_t manifest_tmp_dead = 0;   // MANIFEST.tmp.* the kill left
  std::size_t manifest_tmp_open = 0;   // MANIFEST.tmp.* after the reopen
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

std::size_t manifest_temp_files(const fs::path& dir) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    count += entry.path().filename().string().rfind("MANIFEST.tmp.", 0) == 0;
  }
  return count;
}

/// Bytes of a tail segment holding global rows 0..rows-1 (tri_base 0).
std::uintmax_t tail_bytes_for(std::size_t rows, std::size_t networks,
                              std::size_t bits) {
  std::uintmax_t bytes = kSegmentHeaderBytes;
  for (std::size_t g = 0; g < rows; ++g) {
    bytes += kRecordFieldBytes +
             (core::packed_row_bytes(networks, bits) + 7) / 8 * 8 +
             8 * (g + 1);
  }
  return bytes;
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
          if (t == kc.arm_at && kc.kill_save != nullptr) {
            ::setenv("FENRIR_CHAOS_KILL_SAVE", kc.kill_save, 1);
          } else if (t == kc.arm_at) {
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
  const std::size_t manifest_tmp_dead = manifest_temp_files(dir.path);
  SegmentStore store(dir.path, cfg);
  const std::size_t durable = static_cast<std::size_t>(store.processed());
  if (out != nullptr) {
    *out = {durable, tail_bytes_dead, tail_file_bytes(dir.path),
            manifest_tmp_dead, manifest_temp_files(dir.path)};
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

// A kill right after a write-through pwrite: rows 0..8 are flushed, and
// rows 9..11 wait in the queue (their Φ is pending) until the flush
// after row 11 encodes them in order. 270k networks over 70k sites pack
// at 32 bits, so every record is > 1 MiB and is written through as it
// is encoded: the killpoint, armed from row 10 on, fires on row 9's
// write-through, leaving one record in the tail file past what the
// manifest covers. The reopen truncates it away and loads the nine
// flushed rows bit-identically.
TEST(SegmentChaosDeathTest, KillDuringTailWriteThrough) {
  const std::size_t networks = 270'000;
  KillOutcome out;
  run_kill_case({"segment_tail_write", 256, 0, 10, networks, 70'000}, &out);
  EXPECT_EQ(out.durable, 9u);
  EXPECT_EQ(out.tail_bytes_dead, tail_bytes_for(10, networks, 32));
  EXPECT_EQ(out.tail_bytes_open, tail_bytes_for(9, networks, 32));
}

// A kill after rows are spilled but before the flush that would write
// them: the queue holds their matrix, not their bytes, so not one byte
// of them reaches the tail file, and the reopen finds exactly the
// previous flush's rows. 270k networks over 70k sites pack at 32 bits —
// > 1 MiB records that a spill writing through at once would have left
// in the tail.
TEST(SegmentChaosDeathTest, KillBetweenSpillAndFlush) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScratchDir dir("kill_between");
  const std::size_t networks = 270'000;
  const Dataset d = periodic_dataset(10, networks, 70'000, 0.03, 113);
  SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  EXPECT_EXIT(
      {
        SegmentStore store(dir.path, cfg);
        store.attach(&d);
        SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
        grow(store, live, d, 0, 4);  // flushed after row 3
        for (std::size_t t = 4; t < 7; ++t) {
          live.append(d.series[t]);
          store.spill(d.series[t], live);
        }
        ::_exit(137);
      },
      ::testing::ExitedWithCode(137), "");
  EXPECT_EQ(tail_file_bytes(dir.path), tail_bytes_for(4, networks, 32));
  SegmentStore store(dir.path, cfg);
  EXPECT_EQ(store.processed(), 4u);
  EXPECT_EQ(tail_file_bytes(dir.path), tail_bytes_for(4, networks, 32));
  std::string error;
  ASSERT_TRUE(store.verify(&error)) << error;
  SimilarityMatrix resumed = store.load(&d).matrix;
  SimilarityMatrix prefix(UnknownPolicy::kPessimistic, d.weights, 1);
  for (std::size_t t = 0; t < 4; ++t) prefix.append(d.series[t]);
  expect_bit_identical(resumed, prefix, "durable prefix");
  grow(store, resumed, d, 4, d.series.size());
  store.flush();
  expect_bit_identical(resumed, SimilarityMatrix::compute_reference(d),
                       "regrown");
}

// A kill 64 bytes into an atomic manifest write, armed at row 10: rows
// 0..8 were made durable by earlier flushes, and the flush after row 11
// fsyncs the tail, then dies writing MANIFEST.tmp.<pid>. The old
// MANIFEST must still hold exactly the nine flushed rows; the reopen
// truncates the three unmanifested records and collects the temp file.
TEST(SegmentChaosDeathTest, KillDuringManifestSave) {
  KillOutcome out;
  run_kill_case({"manifest_save", 256, 0, 10, 80, 6, "64"}, &out);
  EXPECT_EQ(out.durable, 9u) << "the last completed flush covered 9 rows";
  EXPECT_EQ(out.tail_bytes_dead, tail_bytes_for(12, 80, 4));
  EXPECT_EQ(out.tail_bytes_open, tail_bytes_for(9, 80, 4));
  EXPECT_EQ(out.manifest_tmp_dead, 1u) << "the kill left its temp file";
  EXPECT_EQ(out.manifest_tmp_open, 0u) << "the reopen collected it";
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

// A kill between a seal's header write and its rename leaves tail-<id>
// with a sealed header — the sealed flag, the rows, the payload length
// and the times — over an intact payload: the seal writes nothing else.
// Every later open must roll it forward into seg-<id> and load every
// row bit-identically.
TEST(Segment, SealedHeaderWithoutTrailerReopens) {
  ScratchDir dir("sealed_header");
  const Dataset d = periodic_dataset(5, 80, 6, 0.03, 107);
  SegmentStoreConfig cfg;  // seal_rows 256: all five rows stay in tail-0
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    SimilarityMatrix live(UnknownPolicy::kPessimistic, d.weights, 1);
    grow(store, live, d, 0, d.series.size());
    ASSERT_EQ(store.tail_rows(), 5u);
  }
  const fs::path tail = dir.path / "tail-0.fenrseg";
  std::string bytes = read_file(tail);
  put_le(bytes, 12, 1, 4);  // flags: sealed
  put_le(bytes, 32, 5, 8);  // rows
  put_le(bytes, 64, bytes.size() - kSegmentHeaderBytes, 8);  // payload
  put_le(bytes, 72, static_cast<std::uint64_t>(d.series.front().time), 8);
  put_le(bytes, 80, static_cast<std::uint64_t>(d.series.back().time), 8);
  write_file(tail, bytes);

  SimilarityMatrix want(UnknownPolicy::kPessimistic, d.weights, 1);
  for (const RoutingVector& v : d.series) want.append(v);
  for (const char* open : {"first reopen", "second reopen"}) {
    SegmentStore store(dir.path, cfg);
    store.attach(&d);
    EXPECT_EQ(store.processed(), 5u) << open;
    ASSERT_EQ(store.segments().size(), 1u) << open;
    EXPECT_EQ(store.segments()[0].rows, 5u) << open;
    EXPECT_EQ(store.tail_rows(), 0u) << open;
    EXPECT_FALSE(fs::exists(tail)) << open;
    std::string error;
    EXPECT_TRUE(store.verify(&error)) << open << ": " << error;
    expect_bit_identical(store.load(&d).matrix, want, open);
  }
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
  // One record: 24 bytes of fixed fields + the packed row (80 4-bit
  // ids, 40 bytes) + 31 Φ columns. It must not scale with the 30 rows
  // of history (a whole-file save would rewrite ~history²/2 doubles
  // here).
  const double record = kRecordFieldBytes + 40 + 31 * 8;
  EXPECT_EQ(one_row, record);
}


// ---------------------------------------------------------------------
// SegmentFuzz: the FENRSEG decoder's "parse or throw" promise, checked
// the way DatasetIoFuzz checks the dataset decoder. Small 4-bit and
// 8-bit stores (37 networks, so every 4-bit row ends in a padding
// nibble; sealed segments, a tail and a ModeBook) are mutated — the
// MANIFEST with its modebook section, a sealed segment and the tail —
// by truncation, a damaged magic, random byte edits, or by setting the
// u64 fields the decoder steers by (counts, widths, payload lengths)
// to boundary values or nudging them. On half the mutations the
// manifest CRC, or every record checksum of the mutated segment file,
// is re-signed so the structural checks behind the checksums are
// reached. Every open, load (with and without the dataset) and verify
// must either produce a consistent store or throw DatasetIoError, and
// verify must answer false with an error rather than throw — exactly
// when load(nullptr) throws. A load against the dataset that succeeds
// must be exact: every retained record holds its dataset row's
// validity, time and site ids, and every adopted matrix row its
// validity — re-signed damage the checksums cannot see must be
// refused. A mutant nobody re-signed that loads at all must load the
// unmutated store's history: every retained Φ cell, validity and
// anchor chain bit-identical.

struct FuzzBase {
  Dataset d;
  std::vector<std::pair<std::string, std::string>> files;  // name, bytes
  std::string manifest;
  std::string sealed;  // seg-0.fenrseg
  std::string tail;    // the tail's file name
  std::unique_ptr<SegmentStore::Loaded> want;  // the unmutated store
};

FuzzBase make_fuzz_base(std::size_t site_count, std::uint64_t bits) {
  FuzzBase b;
  b.d = periodic_dataset(14, 37, site_count, 0.05, 90 + site_count);
  ScratchDir dir("fuzz_base");
  SegmentStoreConfig cfg;
  cfg.seal_rows = 5;
  cfg.background_compaction = false;
  {
    SegmentStore store(dir.path, cfg);
    store.attach(&b.d);
    core::ModeBook book;
    SimilarityMatrix live(UnknownPolicy::kPessimistic, b.d.weights, 1);
    for (const RoutingVector& v : b.d.series) book.observe(v);
    grow(store, live, b.d, 0, b.d.series.size(), 3);
    store.flush(&book);
    EXPECT_EQ(store.segments().front().bits, bits);
    EXPECT_GT(store.tail_rows(), 0u);
  }
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    std::ifstream in(entry.path(), std::ios::binary);
    b.files.emplace_back(name, std::string{std::istreambuf_iterator<char>(in),
                                           {}});
    if (name.rfind("tail-", 0) == 0) b.tail = name;
  }
  b.want = std::make_unique<SegmentStore::Loaded>(
      SegmentStore(dir.path, cfg).load(nullptr));
  b.manifest = "MANIFEST";
  b.sealed = "seg-0.fenrseg";
  return b;
}

std::string& file_of(std::vector<std::pair<std::string, std::string>>& files,
                     const std::string& name) {
  for (auto& [n, bytes] : files) {
    if (n == name) return bytes;
  }
  throw std::logic_error("fuzz base lacks " + name);
}

/// Offsets of the u64 fields a decoder steers by, in a known-good
/// @p bytes of file @p name: for the MANIFEST (empty weights) the
/// header counts, every entry (the sealed segments', then the tail's)
/// and the modebook's width, network and mode counts and history; for a
/// segment its header and first record.
std::vector<std::size_t> u64_fields(const std::string& name,
                                    const std::string& bytes) {
  std::vector<std::size_t> at;
  if (name != "MANIFEST") {
    for (std::size_t f = 16; f <= 80; f += 8) at.push_back(f);
    for (std::size_t f = kSegmentHeaderBytes;
         f < kSegmentHeaderBytes + kRecordFieldBytes; f += 8) {
      at.push_back(f);
    }
    return at;
  }
  for (std::size_t f = 24; f <= 96; f += 8) at.push_back(f);
  const std::uint64_t entries = get_le64(bytes, 96) + (bytes[104] != 0);
  std::size_t p = 105;
  for (std::uint64_t k = 0; k < entries; ++k, p += 64) {
    for (std::size_t f = 0; f < 64; f += 8) at.push_back(p + f);
  }
  for (std::size_t f = 0; f < 24; f += 8) at.push_back(p + f);
  const std::size_t row = core::packed_row_bytes(get_le64(bytes, p + 8),
                                                 get_le64(bytes, p));
  p += 24 + get_le64(bytes, p + 16) * ((row + 7) / 8 * 8);
  at.push_back(p);  // the history count, then its entries
  for (std::uint64_t k = 0; k < get_le64(bytes, p); ++k) {
    at.push_back(p + 8 + 8 * k);
  }
  return at;
}

/// The exactness oracle for a store in @p dir that loaded as @p l
/// against @p d: every adopted matrix row has its dataset row's
/// validity, and every record of the retained window — the sealed
/// segments and the tail where the store's MANIFEST (empty weights)
/// places them — holds its dataset row's validity, time and site ids.
void expect_exact_rows(const fs::path& dir, const Dataset& d,
                       const SegmentStore::Loaded& l,
                       const std::string& label) {
  for (std::size_t i = 0; i < l.matrix.size(); ++i) {
    ASSERT_EQ(l.matrix.valid(i), d.series[l.base_row + i].valid)
        << label << ": adopted row " << i;
  }
  const std::string m = read_file(dir / "MANIFEST");
  const auto networks = static_cast<std::size_t>(get_le64(m, 48));
  struct Run {
    std::string file;
    std::uint64_t base_row, rows, tri_base, bits;
  };
  std::vector<Run> runs;
  const std::uint64_t sealed = get_le64(m, 96);
  for (std::uint64_t k = 0; k < sealed + (m[104] != 0); ++k) {
    const std::size_t e = 105 + 64 * k;
    runs.push_back({(k < sealed ? "seg-" : "tail-") +
                        std::to_string(get_le64(m, e)) + ".fenrseg",
                    get_le64(m, e + 8), get_le64(m, e + 16),
                    get_le64(m, e + 24), get_le64(m, e + 32)});
  }
  for (const Run& run : runs) {
    const std::string bytes = read_file(dir / run.file);
    const std::size_t row = core::packed_row_bytes(networks, run.bits);
    std::size_t at = kSegmentHeaderBytes;
    for (std::uint64_t g = run.base_row; g < run.base_row + run.rows; ++g) {
      const std::string where = label + ": observation " + std::to_string(g);
      ASSERT_LE(at + kRecordFieldBytes + row, bytes.size()) << where;
      const RoutingVector& want = d.series[g];
      ASSERT_EQ(want.assignment.size(), networks) << where;
      EXPECT_EQ(get_le64(bytes, at) & 1, want.valid ? 1u : 0u) << where;
      EXPECT_EQ(static_cast<TimePoint>(get_le64(bytes, at + 8)), want.time)
          << where;
      const auto* rec =
          reinterpret_cast<const std::byte*>(bytes.data()) + at +
          kRecordFieldBytes;
      core::with_bits(run.bits, [&](auto b) {
        for (std::size_t i = 0; i < networks; ++i) {
          ASSERT_EQ(core::packed_at<decltype(b)::value>(rec, i),
                    want.assignment[i])
              << where << ", network " << i;
        }
      });
      at += kRecordFieldBytes + (row + 7) / 8 * 8 +
            8 * static_cast<std::size_t>(g - run.tri_base + 1);
    }
  }
}

/// The oracle for a mutant nobody re-signed: whatever loads is a prefix
/// of @p want, the unmutated store's history (a torn tail is dropped
/// whole), bit for bit — every Φ cell, validity and anchor chain.
void expect_unmutated(const SegmentStore::Loaded& got,
                      const SegmentStore::Loaded& want,
                      const std::string& label) {
  ASSERT_EQ(got.base_row, want.base_row) << label;
  ASSERT_LE(got.matrix.size(), want.matrix.size()) << label;
  for (std::size_t i = 0; i < got.matrix.size(); ++i) {
    ASSERT_EQ(got.matrix.valid(i), want.matrix.valid(i)) << label;
    ASSERT_EQ(got.matrix.anchor_chain(i), want.matrix.anchor_chain(i))
        << label << ": row " << i;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.matrix.phi(i, j)),
                std::bit_cast<std::uint64_t>(want.matrix.phi(i, j)))
          << label << ": phi(" << i << "," << j << ")";
    }
  }
}

/// Opens, loads and verifies the store in @p dir; any exception other
/// than DatasetIoError, an inconsistent or inexact load, a verify that
/// disagrees with load(nullptr) or fails silently, and — when @p want is
/// given (no checksum was re-signed) — a load that is not @p want's
/// history is a test failure.
void expect_consistent_or_refused(const fs::path& dir, const Dataset& d,
                                  const SegmentStore::Loaded* want,
                                  const std::string& label) {
  SegmentStoreConfig cfg;
  cfg.background_compaction = false;
  try {
    SegmentStore store(dir, cfg);
    bool refused = false;  // load(nullptr) threw
    for (const Dataset* identity : {static_cast<const Dataset*>(nullptr), &d}) {
      try {
        SegmentStore::Loaded l = store.load(identity);
        ASSERT_EQ(l.matrix.size(), l.processed - l.base_row) << label;
        if (identity != nullptr) {
          expect_exact_rows(dir, d, l, label);
          if (::testing::Test::HasFatalFailure()) return;
        }
        if (want != nullptr) {
          expect_unmutated(l, *want, label);
          if (::testing::Test::HasFatalFailure()) return;
        }
        if (l.has_modebook) {
          core::ModeBook book;
          book.restore(std::move(l.representatives), std::move(l.history));
        }
      } catch (const DatasetIoError&) {
        refused = refused || identity == nullptr;
      }
    }
    std::string error;
    const bool verified = store.verify(&error);
    EXPECT_EQ(verified, !refused)
        << label << ": verify() and load(nullptr) disagree (" << error << ")";
    if (!verified) {
      EXPECT_FALSE(error.empty()) << label << ": verify failed silently";
    }
  } catch (const DatasetIoError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " threw a non-DatasetIoError: " << e.what();
  }
}

TEST(SegmentFuzz, MutatedStoresOpenConsistentlyOrThrow) {
  const FuzzBase bases[] = {make_fuzz_base(6, 4), make_fuzz_base(200, 8)};
  ScratchDir dir("fuzz");
  std::uint64_t state = 0xf3e5;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  // Values that steer the decoder: widths, small counts, boundaries;
  // or the field's own value nudged.
  const std::uint64_t interesting[] = {0, 1, 2, 3, 4, 5, 7, 8, 16, 32, 37,
                                       38, 64, 128, 255, 256,
                                       ~std::uint64_t{0},
                                       std::uint64_t{1} << 63};
  const std::int64_t nudges[] = {-64, -8, -1, 1, 8, 64};
  std::vector<std::vector<std::size_t>> fields[2];
  for (std::size_t b = 0; b < 2; ++b) {
    for (const auto& [name, bytes] : bases[b].files) {
      fields[b].push_back(u64_fields(name, bytes));
    }
  }
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::size_t mutants = 0;
  for (; mutants < 8000; ++mutants) {
    if (mutants >= 300 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    const FuzzBase& base = bases[mutants % 2];
    auto files = base.files;
    const std::uint64_t target = draw(3);
    const std::string name =
        target == 0 ? base.manifest : (target == 1 ? base.sealed : base.tail);
    std::string& bytes = file_of(files, name);
    std::size_t file_index = 0;
    while (files[file_index].first != name) ++file_index;
    const std::vector<std::size_t>& steer = fields[mutants % 2][file_index];
    const std::uint64_t how = draw(8);
    const std::uint64_t edits = 1 + draw(3);
    if (how == 0) {
      bytes = chaos::corrupt_text(bytes, chaos::Corruption::kTruncate,
                                  mutants);
    } else if (how == 1) {
      bytes = chaos::corrupt_text(bytes, chaos::Corruption::kBadMagic,
                                  mutants);
    } else if (how < 5) {
      // Steering fields set to an interesting value or nudged: the
      // edits that keep a file's length and reach the structural checks.
      for (std::uint64_t e = 0; e < edits; ++e) {
        const std::size_t f = steer[draw(steer.size())];
        const std::uint64_t v =
            draw(2) == 0 ? interesting[draw(std::size(interesting))]
                         : get_le64(bytes, f) +
                               static_cast<std::uint64_t>(
                                   nudges[draw(std::size(nudges))]);
        put_le(bytes, f, v, 8);
      }
    } else {
      for (std::uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
        const std::size_t at = draw(bytes.size());
        switch (draw(3)) {
          case 0:
            bytes[at] = static_cast<char>(draw(256));
            break;
          case 1:
            bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                         static_cast<char>(draw(256)));
            break;
          default:
            bytes.erase(at, 1);
        }
      }
    }
    const bool resigned = draw(2) == 0;
    if (resigned && target == 0) resign_manifest(bytes);
    if (resigned && target != 0) resign_segment(bytes);
    fs::remove_all(dir.path);
    fs::create_directories(dir.path);
    for (const auto& [n, b] : files) write_file(dir.path / n, b);
    expect_consistent_or_refused(
        dir.path, base.d, resigned ? nullptr : base.want.get(),
        "mutant " + std::to_string(mutants) + " of " + name + " (" +
            std::to_string(base.files.size()) + " files)" +
            (resigned ? ", re-signed" : ""));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(mutants, 300u);
}

}  // namespace
}  // namespace fenrir::io
