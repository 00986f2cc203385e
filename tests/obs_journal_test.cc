// Tests for the fenrir::obs sweep journal: append/flush round trips,
// truncate-vs-append open modes, the torn-tail drop rule (a kill
// mid-append must read back as "not written", and a resumed writer must
// not glue its first line onto the torn one), the cut back to a resumed
// writer's durable prefix, the hard line drawn at interior corruption,
// and a mutation fuzzer over all of it.
#include "obs/journal.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "chaos/corrupt.h"
#include "obs/log.h"

namespace fenrir::obs {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "fenrir_journal_" + name;
}

struct FileCleaner {
  explicit FileCleaner(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~FileCleaner() { std::remove(path.c_str()); }
  std::string path;
};

TEST(Journal, AppendedLinesRoundTrip) {
  FileCleaner f(temp_path("roundtrip.jsonl"));
  Journal j;
  ASSERT_TRUE(j.open(f.path, /*truncate=*/true));
  EXPECT_TRUE(j.is_open());
  EXPECT_EQ(j.path(), f.path);
  j.append("{\"type\":\"sweep\",\"sweep\":0}");
  j.append("{\"type\":\"breaker\",\"target\":3}");
  j.append("{\"type\":\"sweep\",\"sweep\":1}");
  EXPECT_EQ(j.lines_written(), 3u);
  j.close();
  EXPECT_FALSE(j.is_open());

  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"type\":\"sweep\",\"sweep\":0}");
  EXPECT_EQ(lines[1], "{\"type\":\"breaker\",\"target\":3}");
  EXPECT_EQ(lines[2], "{\"type\":\"sweep\",\"sweep\":1}");
}

TEST(Journal, EntriesSurviveWithoutCloseBecauseAppendFlushes) {
  FileCleaner f(temp_path("flush.jsonl"));
  Journal j;
  ASSERT_TRUE(j.open(f.path, /*truncate=*/true));
  j.append("{\"a\":1}");
  // Read back while the journal is still open — append() flushed, so a
  // kill at this point would not lose the entry.
  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"a\":1}");
}

TEST(Journal, AppendModeExtendsTruncateModeReplaces) {
  FileCleaner f(temp_path("modes.jsonl"));
  {
    Journal j;
    ASSERT_TRUE(j.open(f.path, /*truncate=*/true));
    j.append("{\"run\":1}");
  }
  {
    Journal j;  // resumed campaign: append
    ASSERT_TRUE(j.open(f.path, /*truncate=*/false));
    j.append("{\"run\":2}");
  }
  EXPECT_EQ(read_journal(f.path).size(), 2u);
  {
    Journal j;  // fresh campaign: truncate
    ASSERT_TRUE(j.open(f.path, /*truncate=*/true));
    j.append("{\"run\":3}");
  }
  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"run\":3}");
}

TEST(Journal, UnterminatedTailIsDropped) {
  FileCleaner f(temp_path("torn1.jsonl"));
  {
    std::ofstream out(f.path);
    out << "{\"sweep\":0}\n{\"sweep\":1}\n{\"swee";  // killed mid-append
  }
  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "{\"sweep\":1}");
}

TEST(Journal, TerminatedButIncompleteTailIsDropped) {
  FileCleaner f(temp_path("torn2.jsonl"));
  {
    std::ofstream out(f.path);
    out << "{\"sweep\":0}\n{\"sweep\":\n";  // newline made it, braces didn't
  }
  const std::vector<std::string> lines = read_journal(f.path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"sweep\":0}");
}

// A kill mid-append left the last line without its '\n'. Appending
// straight after it used to glue the next line onto the torn one, and
// the reader then saw one line that was neither; the resumed writer
// now cuts the torn line first, so it reads back as "not written" and
// the new line stands on its own.
TEST(Journal, AppendAfterTornTailStartsANewLine) {
  FileCleaner f(temp_path("torn_append.jsonl"));
  const std::string first = "{\"type\":\"watch\",\"id\":1,\"mode\":3}";
  const std::string second = "{\"type\":\"watch\",\"id\":2,\"mode\":9}";
  const std::string whole = first + "\n";
  const auto append_after = [&](const std::string& text) {
    { std::ofstream(f.path, std::ios::binary | std::ios::trunc) << text; }
    Journal j;
    EXPECT_TRUE(j.open(f.path, /*truncate=*/false));
    j.append(second);
    return read_journal(f.path);
  };
  // The one-record journal cut 5 bytes short.
  EXPECT_EQ(append_after(whole.substr(0, whole.size() - 5)),
            std::vector<std::string>{second});
  // A whole line, then a torn one: the whole line stays.
  EXPECT_EQ(append_after(whole + whole.substr(0, 7)),
            (std::vector<std::string>{first, second}));
  // A line that lost only its '\n' is still torn: it never finished.
  EXPECT_EQ(append_after(whole + first),
            (std::vector<std::string>{first, second}));
  // A whole journal is left as it is.
  EXPECT_EQ(append_after(whole), (std::vector<std::string>{first, second}));
}

TEST(Journal, CutBackToTheDurablePrefix) {
  // A resumed writer cuts the lines from the first unprocessed time on;
  // keep passes over durable lines that share that time, and a line
  // without a "time" field never starts the cut.
  FileCleaner f(temp_path("cut.jsonl"));
  const std::string text =
      "{\"time\":1}\n{\"note\":\"no time\"}\n{\"time\":2,\"k\":\"a\"}\n"
      "{\"time\":2,\"k\":\"b\"}\n{\"time\":4";
  {
    std::ofstream out(f.path, std::ios::binary);
    out << text;
  }
  EXPECT_EQ(cut_journal(f.path, 5), 0u);  // nothing that late: untouched
  EXPECT_EQ(read_journal(f.path).size(), 4u);
  EXPECT_EQ(cut_journal(f.path, 2, 1), 2u);  // the second 2 on, torn tail too
  const std::vector<std::string> kept = read_journal(f.path);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept.back(), "{\"time\":2,\"k\":\"a\"}");
  EXPECT_EQ(cut_journal(f.path, 1), 3u);
  EXPECT_TRUE(read_journal(f.path).empty());
  EXPECT_EQ(cut_journal(temp_path("missing.jsonl"), 0), 0u);
}

TEST(Journal, InteriorCorruptionThrows) {
  FileCleaner f(temp_path("corrupt.jsonl"));
  {
    std::ofstream out(f.path);
    out << "{\"sweep\":0}\nnot json at all\n{\"sweep\":2}\n";
  }
  EXPECT_THROW(read_journal(f.path), JournalError);
}

TEST(Journal, MissingFileThrows) {
  EXPECT_THROW(read_journal(temp_path("never_written.jsonl")), JournalError);
}

TEST(Journal, EmptyFileReadsEmpty) {
  FileCleaner f(temp_path("empty.jsonl"));
  { std::ofstream out(f.path); }
  EXPECT_TRUE(read_journal(f.path).empty());
}

TEST(Journal, UnopenableJournalIsInert) {
  set_log_level(Level::kOff);  // the failed open Warn-logs by design
  Journal j;
  EXPECT_FALSE(j.open(temp_path("no_such_dir/x.jsonl")));
  set_log_level(Level::kInfo);
  EXPECT_FALSE(j.is_open());
  j.append("{\"lost\":true}");  // must be a silent no-op, not a crash
  EXPECT_EQ(j.lines_written(), 0u);
  j.close();  // also a no-op
}

TEST(Journal, ReopenResetsLineCount) {
  FileCleaner f(temp_path("reopen.jsonl"));
  Journal j;
  ASSERT_TRUE(j.open(f.path, /*truncate=*/true));
  j.append("{\"a\":1}");
  j.append("{\"a\":2}");
  EXPECT_EQ(j.lines_written(), 2u);
  ASSERT_TRUE(j.open(f.path, /*truncate=*/false));  // implicit close
  EXPECT_EQ(j.lines_written(), 0u);
  j.append("{\"a\":3}");
  EXPECT_EQ(j.lines_written(), 1u);
  j.close();
  EXPECT_EQ(read_journal(f.path).size(), 3u);
}

// ---------------------------------------------------------------------
// JournalFuzz: the "read or throw" promise of the JSONL framing that
// the sweep journal, the event log and the lineage log share, checked
// the way DatasetIoFuzz checks the dataset decoder. A small journal is
// cut at every byte, damaged by every chaos::Corruption kind across
// seeds, and mutated by seeded edits drawn from the bytes that steer the
// framing. read_journal must return exactly the file's whole lines or
// throw JournalError; a resumed writer's first line must then read back
// as the last line, or the reader must throw for damage inside the file.

/// What read_journal makes of @p text: its '\n'-terminated complete
/// lines, a torn last line dropped; nullopt (JournalError) when an
/// earlier line is not a complete object.
std::optional<std::vector<std::string>> framed_lines(const std::string& text) {
  const auto complete = [](const std::string& line) {
    return line.size() >= 2 && line.front() == '{' && line.back() == '}';
  };
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (!lines.empty() && (text.back() != '\n' || !complete(lines.back()))) {
    lines.pop_back();
  }
  for (const std::string& line : lines) {
    if (!complete(line)) return std::nullopt;
  }
  return lines;
}

/// read_journal's outcome on @p path: its lines, or nullopt when it
/// threw JournalError (any other exception fails the test).
std::optional<std::vector<std::string>> read_or_throw(
    const std::string& path, const std::string& label) {
  try {
    return read_journal(path);
  } catch (const JournalError&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": read_journal threw a non-JournalError: "
                  << e.what();
    return std::nullopt;
  }
}

void expect_reads_or_throws(const std::string& path, const std::string& text,
                            const std::string& label) {
  { std::ofstream(path, std::ios::binary | std::ios::trunc) << text; }
  EXPECT_EQ(read_or_throw(path, label), framed_lines(text)) << label;

  const std::string x = "{\"type\":\"watch\",\"time\":99,\"mode\":9}";
  {
    Journal j;
    ASSERT_TRUE(j.open(path, /*truncate=*/false)) << label;
    j.append(x);
  }
  const auto after = read_or_throw(path, label);
  if (after.has_value()) {
    ASSERT_FALSE(after->empty()) << label;
    EXPECT_EQ(after->back(), x) << label;
  }
  // Exactly: the text's whole lines, then x — unless one of them is
  // damaged, and then the reader throws.
  const std::size_t nl = text.rfind('\n');
  const std::string kept =
      nl == std::string::npos ? std::string() : text.substr(0, nl + 1);
  EXPECT_EQ(after, framed_lines(kept + x + "\n")) << label;
}

TEST(JournalFuzz, MutatedJournalsReadOrThrowAndAppendCleanly) {
  FileCleaner f(temp_path("fuzz.jsonl"));
  const std::string text =
      "{\"type\":\"sweep\",\"sweep\":0,\"coverage\":0.97}\n"
      "{\"type\":\"breaker\",\"sweep\":1,\"target\":3,\"open\":true}\n"
      "{\"seq\":7,\"type\":\"new_mode\",\"detail\":{\"mode\":2}}\n"
      "{\"type\":\"watch\",\"time\":86400,\"mode\":1,\"phi\":0.5}\n";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    expect_reads_or_throws(f.path, text.substr(0, cut),
                           "cut at " + std::to_string(cut));
    if (HasFatalFailure()) return;
  }
  for (const auto kind :
       {chaos::Corruption::kTruncate, chaos::Corruption::kBadMagic,
        chaos::Corruption::kRaggedRows, chaos::Corruption::kFlipValidFlags,
        chaos::Corruption::kBadTimes}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      expect_reads_or_throws(f.path, chaos::corrupt_text(text, kind, seed),
                             std::string(chaos::corruption_name(kind)) +
                                 " seed " + std::to_string(seed));
      if (HasFatalFailure()) return;
    }
  }
  // The bytes that steer the framing, and the rest.
  const std::string alphabet("{}\n\r\" :,x\0", 10);
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  std::uint64_t state = 0x10a1;
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
    expect_reads_or_throws(f.path, bad, "mutant " + std::to_string(mutants));
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(mutants, 500u);
}

}  // namespace
}  // namespace fenrir::obs
