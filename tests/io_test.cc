#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>

#include "io/csv.h"
#include "io/pgm.h"
#include "io/table.h"

namespace fenrir::io {
namespace {

TEST(CsvParse, SimpleRows) {
  const auto rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2", "3"}));
}

TEST(CsvParse, MissingTrailingNewline) {
  const auto rows = parse_csv("a,b");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

TEST(CsvParse, QuotedFieldsWithSeparatorsAndQuotes) {
  const auto rows = parse_csv("\"a,b\",\"say \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"a,b", "say \"hi\""}));
}

TEST(CsvParse, QuotedNewlines) {
  const auto rows = parse_csv("\"line1\nline2\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "line1\nline2");
  EXPECT_EQ(rows[0][1], "x");
}

TEST(CsvParse, CrLfLineEndings) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvParse, EmptyFields) {
  const auto rows = parse_csv(",a,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (CsvRow{"", "a", ""}));
}

TEST(CsvParse, BlankLinesSkipped) {
  const auto rows = parse_csv("a\n\nb\n");
  ASSERT_EQ(rows.size(), 2u);
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv("\"oops\n"), CsvError);
}

TEST(CsvParse, TsvSeparator) {
  const auto rows = parse_csv("a\tb\nc\td\n", '\t');
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
}

// --- the streaming reader: an istream through a bounded buffer. Its rows
// must equal parse_csv's over the whole text (which never refills), for
// any placement of the buffer boundaries. ---

std::vector<CsvRow> stream_rows(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<CsvRow> rows;
  while (reader.next()) {
    rows.emplace_back(reader.row().begin(), reader.row().end());
  }
  return rows;
}

TEST(CsvReader, RowLongerThanTheBuffer) {
  const std::string big(3 * CsvReader::kBufferBytes + 17, 'x');
  const std::string text = "a,b\n" + big + ",tail\nc,d\n";
  const auto rows = stream_rows(text);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1], (CsvRow{big, "tail"}));
  EXPECT_EQ(rows[2], (CsvRow{"c", "d"}));
}

TEST(CsvReader, SplitsExactlyAtTheBufferBoundary) {
  // The first refill ends at byte kBufferBytes. Pad the first row so
  // that every byte of each tricky sequence, in turn, is the first byte
  // past that boundary.
  const std::vector<std::string> tricky = {
      "\"line1\nline2\"",  // a quoted field with an embedded newline
      "\"say \"\"hi\"\"\"",  // "" escapes
      "crlf\r\n",            // CRLF ending the row
      "\"q\"\r\n",           // a closing quote, then CRLF
  };
  for (const std::string& seq : tricky) {
    for (std::size_t shift = 0; shift <= seq.size() + 1; ++shift) {
      const std::size_t pad = CsvReader::kBufferBytes - 3 - shift;
      const std::string end_row = seq.back() == '\n' ? "" : "\n";
      const std::string text =
          std::string(pad, 'p') + "\nf," + seq + end_row + "after,row\n";
      const auto want = parse_csv(text);
      ASSERT_EQ(want.size(), 3u) << seq;
      EXPECT_EQ(stream_rows(text), want) << seq << " shifted " << shift;
    }
  }
}

TEST(CsvReader, StrayCarriageReturnMidField) {
  const std::string text = "ab\rc,d\r\n\r\"q\",x\n";
  const std::vector<CsvRow> want = {{"abc", "d"}, {"q", "x"}};
  EXPECT_EQ(parse_csv(text), want);
  EXPECT_EQ(stream_rows(text), want);
}

TEST(CsvReader, LastRowWithoutNewline) {
  EXPECT_EQ(stream_rows("a,b\nc,d"),
            (std::vector<CsvRow>{{"a", "b"}, {"c", "d"}}));
  EXPECT_EQ(stream_rows("a,\"b\""), (std::vector<CsvRow>{{"a", "b"}}));
  EXPECT_EQ(stream_rows("a,"), (std::vector<CsvRow>{{"a", ""}}));
}

TEST(CsvReader, BlankLinesYieldNoRows) {
  const std::string text = "\n\na\n\n\r\n\r\r\nb\n\n";
  const std::vector<CsvRow> want = {{"a"}, {"b"}};
  EXPECT_EQ(parse_csv(text), want);
  EXPECT_EQ(stream_rows(text), want);
  EXPECT_TRUE(stream_rows("").empty());
  EXPECT_TRUE(stream_rows("\r\n\n").empty());
  // An empty quoted field is content, not a blank line.
  EXPECT_EQ(stream_rows("\"\"\n"), (std::vector<CsvRow>{{""}}));
}

TEST(CsvReader, UnterminatedQuoteNamesTheLastLine) {
  // The quote runs to the end of the input: both readers report the
  // line the input ends on, after the rows before it were read.
  const std::string text = "a,b\n\nc,\"open\nmore\n";
  std::size_t want_line = 0;
  try {
    parse_csv(text);
  } catch (const CsvError& e) {
    want_line = e.line();
  }
  EXPECT_EQ(want_line, 5u);
  std::istringstream in(text);
  CsvReader reader(in);
  ASSERT_TRUE(reader.next());
  EXPECT_EQ(reader.row().size(), 2u);
  try {
    reader.next();
    FAIL() << "unterminated quote accepted";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), want_line);
  }
}

TEST(CsvReader, QuoteIsSpecialOnlyAtFieldStart) {
  // Mid-field quotes are literal; a '\r' swallowed before a quote leaves
  // the field empty, so that quote still opens.
  const std::string text = "a\"b,\"x\"y\"z,\r\"c,d\"\n";
  const std::vector<CsvRow> want = {{"a\"b", "xy\"z", "c,d"}};
  EXPECT_EQ(parse_csv(text), want);
  EXPECT_EQ(stream_rows(text), want);
}

// --- the tokenizer against a frozen byte-at-a-time reference. The
// CsvReader tests above compare stream_rows with parse_csv, which run
// the same tokenizer; this one compares both sources with an
// independent copy of the dialect, read one byte at a time. ---

/// Rows of @p text, or the line an unterminated quote ends on.
struct Parsed {
  std::vector<CsvRow> rows;
  std::size_t error_line = 0;  // 0: no error

  bool operator==(const Parsed&) const = default;
};

Parsed reference_parse(std::string_view text, char sep) {
  Parsed out;
  CsvRow row;
  std::string field;
  bool quoted = false;
  bool started = false;  // the line has content
  std::size_t line = 1;
  const auto end_row = [&] {
    row.push_back(field);
    field.clear();
    if (started) out.rows.push_back(row);
    row.clear();
    started = false;
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        if (c == '\n') ++line;
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"' && field.empty()) {
      quoted = started = true;
    } else if (c == sep) {
      row.push_back(field);
      field.clear();
      started = true;
    } else if (c == '\n') {
      ++line;
      end_row();
    } else if (c != '\r') {
      field += c;
      started = true;
    }
  }
  if (quoted) {
    out.error_line = line;
  } else {
    end_row();  // a last row without a newline is still a row
  }
  return out;
}

Parsed reader_parse(CsvReader& reader) {
  Parsed out;
  try {
    while (reader.next()) {
      out.rows.emplace_back(reader.row().begin(), reader.row().end());
    }
  } catch (const CsvError& e) {
    out.error_line = e.line();
  }
  return out;
}

/// Both sources of the reader against the reference; an in-place text
/// is copied into a heap block of exactly its size first, so a load
/// past its last byte is an out-of-bounds read under ASan.
void expect_matches_reference(const std::string& text, char sep,
                              const std::string& label) {
  const Parsed want = reference_parse(text, sep);
  std::istringstream in(text);
  CsvReader streamed(in, sep);
  EXPECT_EQ(reader_parse(streamed), want) << label << " (istream)";
  const std::unique_ptr<char[]> exact(new char[text.size()]);
  std::copy(text.begin(), text.end(), exact.get());
  CsvReader in_place(std::string_view(exact.get(), text.size()), sep);
  EXPECT_EQ(reader_parse(in_place), want) << label << " (in place)";
}

TEST(CsvReaderFuzz, MatchesAByteAtATimeReference) {
  std::uint64_t state = 0xc5f;
  const auto draw = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  /// Random tokens over the bytes that steer the tokenizer; plain runs
  /// long enough that fields span whole 16- and 64-byte blocks.
  const auto random_text = [&draw](char sep, std::size_t tokens) {
    const std::string other = sep == ',' ? "\t" : ",";
    const std::vector<std::string> alphabet = {
        std::string(1, sep), "\n", "\r", "\"", "a", "xyz", other,
        std::string(1 + draw(70), 'p')};
    std::string text;
    for (std::size_t t = 0; t < tokens; ++t) {
      // Plain bytes and separators dominate, as in a dataset.
      const std::uint64_t pick = draw(16);
      text += pick < 8 ? alphabet[pick] : pick < 12 ? alphabet[0]
                                                    : alphabet[4 + pick % 4];
    }
    return text;
  };
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::seconds(5);
  const auto spent = [&] {
    return std::chrono::steady_clock::now() - start > budget;
  };

  // Short and long random texts, both separators.
  std::size_t texts = 0;
  for (; texts < 3000 && (texts < 300 || !spent()); ++texts) {
    const char sep = texts % 2 == 0 ? ',' : '\t';
    expect_matches_reference(random_text(sep, draw(400)), sep,
                             "text " + std::to_string(texts));
  }

  // Texts whose last field ends on the last byte: a plain run of every
  // length up to two blocks ends the input, so the scan's final loads
  // come right up to the end of the heap block.
  for (std::size_t tail = 0; tail < 140; ++tail) {
    std::string text = random_text(',', 40);
    text += ',';
    text += std::string(tail, 'q');
    expect_matches_reference(text, ',', "tail " + std::to_string(tail));
  }

  // Rows across the first refill at every offset mod 16 (and 64): the
  // pad row moves where the second row's blocks fall against the
  // buffer's end; the random rows after it put every kind of byte there.
  for (std::size_t shift = 0; shift < 64 && (shift < 16 || !spent());
       ++shift) {
    const std::size_t pad = CsvReader::kBufferBytes - 40 - shift;
    const std::string text =
        std::string(pad, 'p') + "\n" + random_text(',', 120);
    const Parsed want = reference_parse(text, ',');
    std::istringstream in(text);
    CsvReader streamed(in);
    EXPECT_EQ(reader_parse(streamed), want) << "refill shift " << shift;
  }
}

TEST(CsvEscape, OnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
  EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\"");
}

TEST(CsvWriter, RoundTripsThroughParser) {
  std::ostringstream out;
  CsvWriter w(out);
  w.write_row({"plain", "a,b", "q\"q", "multi\nline"});
  w.row("n", 42, 2.5);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"plain", "a,b", "q\"q", "multi\nline"}));
  EXPECT_EQ(rows[1][0], "n");
  EXPECT_EQ(rows[1][1], "42");
}

TEST(TextTable, AlignsAndRules) {
  TextTable t;
  t.header({"name", "count"});
  t.row("alpha", 1);
  t.row("b", 22);
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("-----"), std::string::npos);
  // Numeric cells right-aligned: " 1" under "count".
  EXPECT_NE(s.find("    1"), std::string::npos);
}

TEST(TextTable, EmptyPrintsNothing) {
  TextTable t;
  std::ostringstream out;
  t.print(out);
  EXPECT_TRUE(out.str().empty());
}

TEST(Fixed, Formatting) {
  EXPECT_EQ(fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fixed(1.0, 3), "1.000");
  EXPECT_EQ(fixed(-0.5, 1), "-0.5");
}

TEST(GrayImage, PixelAccessAndBounds) {
  GrayImage img(4, 3, 7);
  EXPECT_EQ(img.at(0, 0), 7);
  img.at(3, 2) = 255;
  EXPECT_EQ(img.at(3, 2), 255);
  EXPECT_THROW(img.at(4, 0), std::out_of_range);
  EXPECT_THROW(img.at(0, 3), std::out_of_range);
}

TEST(GrayImage, PgmHeaderAndPayload) {
  GrayImage img(2, 2, 0);
  img.at(1, 0) = 128;
  std::ostringstream out;
  img.write_pgm(out);
  const std::string s = out.str();
  EXPECT_EQ(s.substr(0, 3), "P5\n");
  EXPECT_NE(s.find("2 2\n255\n"), std::string::npos);
  // 4 payload bytes after the header.
  const auto header_end = s.find("255\n") + 4;
  EXPECT_EQ(s.size() - header_end, 4u);
  EXPECT_EQ(static_cast<unsigned char>(s[header_end + 1]), 128);
}

}  // namespace
}  // namespace fenrir::io
