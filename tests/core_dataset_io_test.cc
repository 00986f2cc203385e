#include "core/dataset_io.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "chaos/corrupt.h"
#include "io/csv.h"

namespace fenrir::core {
namespace {

Dataset sample(bool with_weights = false, bool with_outage = true) {
  Dataset d;
  d.name = "io-test, with a comma";
  d.networks.intern(65536);
  d.networks.intern(65537);
  d.networks.intern((std::uint64_t{0xc0000200} << 8) | 24);
  const SiteId a = d.sites.intern("LAX");
  const SiteId b = d.sites.intern("AMS");
  TimePoint t = from_date(2024, 3, 4) + 21 * kHour + 56 * kMinute;
  for (int i = 0; i < 4; ++i) {
    RoutingVector v;
    v.time = t;
    t += 4 * kMinute;
    v.assignment = {a, (i % 2) ? b : kUnknownSite,
                    (i == 2) ? kErrorSite : b};
    d.series.push_back(std::move(v));
  }
  if (with_outage) d.series[2].valid = false;
  if (with_weights) d.weights = {1.0, 256.0, 2.5};
  d.check_consistent();
  return d;
}

Dataset round_trip(const Dataset& d) {
  std::ostringstream out;
  save_dataset(d, out);
  std::istringstream in(out.str());
  return load_dataset(in);
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  const Dataset d = sample(true);
  const Dataset r = round_trip(d);
  EXPECT_EQ(r.name, d.name);
  ASSERT_EQ(r.series.size(), d.series.size());
  ASSERT_EQ(r.networks.size(), d.networks.size());
  for (NetId n = 0; n < d.networks.size(); ++n) {
    EXPECT_EQ(r.networks.key(n), d.networks.key(n));
  }
  for (std::size_t i = 0; i < d.series.size(); ++i) {
    EXPECT_EQ(r.series[i].time, d.series[i].time);
    EXPECT_EQ(r.series[i].valid, d.series[i].valid);
    for (NetId n = 0; n < d.networks.size(); ++n) {
      EXPECT_EQ(r.sites.name(r.series[i].assignment[n]),
                d.sites.name(d.series[i].assignment[n]));
    }
  }
  ASSERT_EQ(r.weights.size(), 3u);
  EXPECT_NEAR(r.weights[1], 256.0, 1e-6);
}

TEST(DatasetIo, RoundTripWithoutWeights) {
  const Dataset r = round_trip(sample(false));
  EXPECT_TRUE(r.weights.empty());
}

TEST(DatasetIo, ReservedSiteNamesMapBack) {
  const Dataset r = round_trip(sample());
  // Observation 1 had an unknown; observation 2 had err.
  EXPECT_EQ(r.series[0].assignment[1], kUnknownSite);
  EXPECT_EQ(r.series[2].assignment[2], kErrorSite);
}

TEST(DatasetIo, RejectsMalformedInput) {
  const auto expect_throw = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(load_dataset(in), DatasetIoError) << text;
  };
  expect_throw("");
  expect_throw("not,a,dataset\n");
  expect_throw("#fenrir-dataset,v99\nname,x\ntime,valid\n");
  // Missing header.
  expect_throw("#fenrir-dataset,v1\nname,x\n");
  // Ragged data row.
  expect_throw(
      "#fenrir-dataset,v1\nname,x\ntime,valid,65536\n"
      "2024-01-01 00:00,1,LAX,EXTRA\n");
  // Bad time.
  expect_throw(
      "#fenrir-dataset,v1\nname,x\ntime,valid,65536\nyesterday,1,LAX\n");
  // Bad valid flag.
  expect_throw(
      "#fenrir-dataset,v1\nname,x\ntime,valid,65536\n"
      "2024-01-01 00:00,yes,LAX\n");
  // Bad network key.
  expect_throw("#fenrir-dataset,v1\nname,x\ntime,valid,net-one\n");
  // Unordered series.
  expect_throw(
      "#fenrir-dataset,v1\nname,x\ntime,valid,65536\n"
      "2024-01-02 00:00,1,LAX\n2024-01-01 00:00,1,LAX\n");
}

TEST(DatasetIo, SaveRejectsInconsistentDataset) {
  Dataset d = sample();
  d.series[0].assignment.pop_back();
  std::ostringstream out;
  EXPECT_THROW(save_dataset(d, out), DatasetIoError);
}

TEST(DatasetIo, FileHelpersReportErrors) {
  EXPECT_THROW(load_dataset_file("/nonexistent/path.csv"), DatasetIoError);
  EXPECT_THROW(save_dataset_file(sample(), "/nonexistent/dir/out.csv"),
               DatasetIoError);
}

TEST(DatasetIo, EmptySeriesRoundTrips) {
  Dataset d;
  d.name = "empty";
  d.networks.intern(1);
  const Dataset r = round_trip(d);
  EXPECT_TRUE(r.series.empty());
  EXPECT_EQ(r.networks.size(), 1u);
}

TEST(DatasetIo, SaveOfLoadIsByteIdentical) {
  // save_dataset output survives the streaming loader byte for byte: a
  // quoted name, weights, reserved sites and an outage row.
  std::ostringstream first;
  save_dataset(sample(true), first);
  ASSERT_NE(first.str().find("\"io-test, with a comma\""), std::string::npos);
  std::istringstream in(first.str());
  std::ostringstream second;
  save_dataset(load_dataset(in), second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(DatasetIo, LargeDatasetStreamsAcrossBufferRefills) {
  // ~3 MiB of rows: the reader refills its buffer mid-row several times
  // and must hand the loader the same cells as an unsplit parse.
  Dataset d;
  d.name = "large";
  const std::size_t nets = 20000;
  for (std::size_t n = 0; n < nets; ++n) d.networks.intern(65536 + n);
  const SiteId sites[] = {kUnknownSite, kErrorSite, d.sites.intern("LAX"),
                          d.sites.intern("AMS"),
                          d.sites.intern("a-longer-site")};
  for (std::size_t t = 0; t < 24; ++t) {
    RoutingVector v;
    v.time = from_date(2024, 1, 1) + static_cast<TimePoint>(t) * kDay;
    v.valid = t != 7;
    v.assignment.resize(nets);
    for (std::size_t n = 0; n < nets; ++n) {
      v.assignment[n] = sites[(n * 7 + t * 3 + n / 11) % 5];
    }
    d.series.push_back(std::move(v));
  }
  std::ostringstream out;
  save_dataset(d, out);
  ASSERT_GT(out.str().size(), 2 * io::CsvReader::kBufferBytes);
  std::istringstream in(out.str());
  const Dataset r = load_dataset(in);
  ASSERT_EQ(r.series.size(), d.series.size());
  for (std::size_t t = 0; t < d.series.size(); ++t) {
    EXPECT_EQ(r.series[t].time, d.series[t].time);
    EXPECT_EQ(r.series[t].valid, d.series[t].valid);
    ASSERT_EQ(r.series[t].assignment.size(), nets);
    for (std::size_t n = 0; n < nets; ++n) {
      ASSERT_EQ(r.sites.name(r.series[t].assignment[n]),
                d.sites.name(d.series[t].assignment[n]))
          << "row " << t << " network " << n;
    }
  }
}

// --- the malformed-dataset corpus: strict rejects with a useful
// message, lenient salvages the documented subset ---

std::string sample_text() {
  std::ostringstream out;
  save_dataset(sample(true), out);
  return out.str();
}

Dataset load_text(const std::string& text, const LoadOptions& options = {},
                  LoadStats* stats = nullptr) {
  std::istringstream in(text);
  return load_dataset(in, options, stats);
}

/// Strict mode must throw a DatasetIoError whose message names the
/// problem (not vector::_M_range_check).
void expect_strict_rejects(const std::string& text,
                           const std::string& message_fragment) {
  try {
    load_text(text);
    FAIL() << "strict load accepted: " << text.substr(0, 80);
  } catch (const DatasetIoError& e) {
    EXPECT_NE(std::string(e.what()).find(message_fragment),
              std::string::npos)
        << "message '" << e.what() << "' lacks '" << message_fragment << "'";
  }
}

TEST(DatasetIoCorpus, TruncatedFile) {
  const std::string text = sample_text();
  const std::string cut = text.substr(0, text.size() - text.size() / 4);
  expect_strict_rejects(cut, "ragged row");
  LoadStats stats;
  const Dataset r = load_text(cut, {.lenient = true}, &stats);
  EXPECT_TRUE(stats.salvaged());
  EXPECT_GT(stats.rows_kept, 0u);
  EXPECT_LT(r.series.size(), 4u);
}

TEST(DatasetIoCorpus, BadMagicIsFatalEvenLeniently) {
  const std::string bad =
      chaos::corrupt_text(sample_text(), chaos::Corruption::kBadMagic, 1);
  expect_strict_rejects(bad, "bad magic");
  EXPECT_THROW(load_text(bad, {.lenient = true}), DatasetIoError);
}

TEST(DatasetIoCorpus, RaggedRows) {
  const std::string bad =
      chaos::corrupt_text(sample_text(), chaos::Corruption::kRaggedRows, 3);
  expect_strict_rejects(bad, "ragged row");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_GT(stats.ragged_rows, 0u);
  EXPECT_EQ(r.series.size() + stats.ragged_rows, 4u);
  r.check_consistent();
}

TEST(DatasetIoCorpus, BadTimes) {
  const std::string bad =
      chaos::corrupt_text(sample_text(), chaos::Corruption::kBadTimes, 5);
  expect_strict_rejects(bad, "bad time");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_GT(stats.bad_times, 0u);
  EXPECT_EQ(r.series.size() + stats.bad_times, 4u);
}

TEST(DatasetIoCorpus, FlippedValidFlags) {
  const std::string bad = chaos::corrupt_text(
      sample_text(), chaos::Corruption::kFlipValidFlags, 7);
  expect_strict_rejects(bad, "bad valid flag");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_GT(stats.bad_valid_flags, 0u);
  EXPECT_EQ(r.series.size() + stats.bad_valid_flags, 4u);
}

TEST(DatasetIoCorpus, DuplicateNetworkKeys) {
  const std::string bad =
      "#fenrir-dataset,v1\nname,dup\ntime,valid,65536,65537,65536\n"
      "2024-01-01 00:00,1,LAX,AMS,MIA\n"
      "2024-01-02 00:00,1,LAX,LAX,MIA\n";
  expect_strict_rejects(bad, "inconsistent");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_EQ(stats.duplicate_networks, 1u);
  ASSERT_EQ(r.networks.size(), 2u);
  ASSERT_EQ(r.series.size(), 2u);
  // The first occurrence of the duplicated key wins.
  EXPECT_EQ(r.sites.name(r.series[0].assignment[0]), "LAX");
  EXPECT_EQ(r.sites.name(r.series[0].assignment[1]), "AMS");
  r.check_consistent();
}

TEST(DatasetIoCorpus, OutOfOrderRows) {
  const std::string bad =
      "#fenrir-dataset,v1\nname,x\ntime,valid,65536\n"
      "2024-01-02 00:00,1,LAX\n2024-01-01 00:00,1,AMS\n"
      "2024-01-03 00:00,1,LAX\n";
  expect_strict_rejects(bad, "inconsistent");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_EQ(stats.out_of_order_rows, 1u);
  ASSERT_EQ(r.series.size(), 2u);
  r.check_consistent();
}

TEST(DatasetIoCorpus, UnusableWeightsAreDroppedLeniently) {
  const std::string bad =
      "#fenrir-dataset,v1\nname,x\nweights,1.0,banana\ntime,valid,65536,65537\n"
      "2024-01-01 00:00,1,LAX,AMS\n";
  expect_strict_rejects(bad, "bad weight");
  LoadStats stats;
  const Dataset r = load_text(bad, {.lenient = true}, &stats);
  EXPECT_TRUE(stats.weights_dropped);
  EXPECT_TRUE(r.weights.empty());
  ASSERT_EQ(r.series.size(), 1u);
}

TEST(DatasetIoCorpus, EmptySeriesLoadsInBothModes) {
  const std::string text = "#fenrir-dataset,v1\nname,x\ntime,valid,65536\n";
  EXPECT_TRUE(load_text(text).series.empty());
  LoadStats stats;
  EXPECT_TRUE(load_text(text, {.lenient = true}, &stats).series.empty());
  EXPECT_FALSE(stats.salvaged());
  EXPECT_EQ(stats.rows_kept, 0u);
}

TEST(DatasetIoCorpus, LenientOnCleanInputMatchesStrict) {
  const std::string text = sample_text();
  const Dataset strict = load_text(text);
  LoadStats stats;
  const Dataset lenient = load_text(text, {.lenient = true}, &stats);
  EXPECT_FALSE(stats.salvaged());
  EXPECT_EQ(stats.rows_kept, strict.series.size());
  ASSERT_EQ(lenient.series.size(), strict.series.size());
  for (std::size_t i = 0; i < strict.series.size(); ++i) {
    EXPECT_EQ(lenient.series[i].time, strict.series[i].time);
    EXPECT_EQ(lenient.series[i].valid, strict.series[i].valid);
    EXPECT_EQ(lenient.series[i].assignment, strict.series[i].assignment);
  }
  ASSERT_EQ(lenient.weights.size(), strict.weights.size());
}

TEST(DatasetIoCorpus, UnterminatedQuote) {
  // A file cut inside a quoted field: the quote runs to the end, so the
  // cut row is the last one. Strict mode names it; lenient mode keeps
  // the rows before it and counts the cut row as ragged.
  const std::string text =
      "#fenrir-dataset,v1\nname,cut\ntime,valid,7\n"
      "2025-01-01,1,a\n2025-01-02,1,\"alpha\n";
  expect_strict_rejects(text, "unterminated quoted field at line 5");
  LoadStats stats;
  const Dataset r = load_text(text, {.lenient = true}, &stats);
  ASSERT_EQ(r.series.size(), 1u);
  EXPECT_EQ(r.sites.name(r.series[0].assignment[0]), "a");
  EXPECT_EQ(stats.ragged_rows, 1u);
  EXPECT_EQ(stats.rows_kept, 1u);
  EXPECT_TRUE(stats.salvaged());
  // Cut inside the header rows, nothing is left to salvage.
  const std::string header_cut = "#fenrir-dataset,v1\nname,\"cut\n";
  expect_strict_rejects(header_cut, "unterminated quoted field at line 2");
  EXPECT_THROW(load_text(header_cut, {.lenient = true}), DatasetIoError);
}

TEST(DatasetIoCorpus, StrictReportsTheFirstDefectInFileOrder) {
  // A ragged row ahead of an unterminated quote is reported first.
  const std::string text =
      "#fenrir-dataset,v1\nname,x\ntime,valid,7\n"
      "2025-01-01,1,a,EXTRA\n2025-01-02,1,\"alpha\n";
  expect_strict_rejects(text, "ragged row at line 4");
  LoadStats stats;
  EXPECT_TRUE(load_text(text, {.lenient = true}, &stats).series.empty());
  EXPECT_EQ(stats.ragged_rows, 2u);
}

TEST(DatasetIoCorpus, SalvagedDatasetsStayConsistentAcrossSeeds) {
  // Whatever the corruption draws, a lenient load either throws
  // DatasetIoError (structural damage) or returns a consistent dataset.
  const std::string text = sample_text();
  for (const auto kind :
       {chaos::Corruption::kTruncate, chaos::Corruption::kRaggedRows,
        chaos::Corruption::kFlipValidFlags, chaos::Corruption::kBadTimes}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const std::string bad = chaos::corrupt_text(text, kind, seed);
      try {
        const Dataset r = load_text(bad, {.lenient = true});
        r.check_consistent();
      } catch (const DatasetIoError&) {
        // acceptable: damage reached a structural row
      }
    }
  }
}

// A deterministic mutation fuzzer for the dataset decoder: seeded byte
// edits of a saved dataset (weighted, quoted name, reserved sites, an
// outage row) plus every chaos::Corruption kind across seeds. Every
// load, strict or lenient, must return a consistent dataset or throw
// DatasetIoError — no other exception, no crash, no sanitizer report.
// The edit count is bounded by a time budget so sanitizer builds run
// fewer of the same seeded edits.
void expect_parses_or_throws(const std::string& text, const std::string& what) {
  for (const bool lenient : {false, true}) {
    try {
      LoadStats stats;
      const Dataset r = load_text(text, {.lenient = lenient}, &stats);
      EXPECT_NO_THROW(r.check_consistent()) << what;
      EXPECT_EQ(stats.rows_kept, r.series.size()) << what;
      if (!lenient) {
        EXPECT_FALSE(stats.salvaged()) << what;
      }
    } catch (const DatasetIoError&) {
      // rejected: the promised outcome for damage it cannot take
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << (lenient ? " (lenient)" : " (strict)")
                    << " threw a non-DatasetIoError: " << e.what();
    }
  }
}

TEST(DatasetIoFuzz, MutatedBytesParseOrThrow) {
  const std::string text = sample_text();
  for (const auto kind :
       {chaos::Corruption::kTruncate, chaos::Corruption::kBadMagic,
        chaos::Corruption::kRaggedRows, chaos::Corruption::kFlipValidFlags,
        chaos::Corruption::kBadTimes}) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      expect_parses_or_throws(
          chaos::corrupt_text(text, kind, seed),
          std::string(chaos::corruption_name(kind)) + " seed " +
              std::to_string(seed));
    }
  }
  // The bytes that steer the tokenizer and the checks, and the rest.
  const std::string alphabet = ",\n\r\"01-: .#ax\xff";
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::uint64_t state = 0x5eed;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  std::size_t mutants = 0;
  for (; mutants < 4000; ++mutants) {
    if (mutants >= 500 && std::chrono::steady_clock::now() - start > budget) {
      break;
    }
    std::string bad = text;
    const std::uint64_t edits = 1 + draw(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::size_t at = draw(bad.size() + 1);
      const char c = alphabet[draw(alphabet.size())];
      switch (draw(3)) {
        case 0:
          if (at < bad.size()) bad[at] = c;
          break;
        case 1:
          bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:
          if (at < bad.size()) bad.erase(at, 1);
      }
    }
    expect_parses_or_throws(bad, "mutant " + std::to_string(mutants));
  }
}

}  // namespace
}  // namespace fenrir::core
