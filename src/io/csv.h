// fenrir::io — CSV reading and writing (RFC 4180 subset).
//
// Fenrir exchanges datasets (routing vectors, distance matrices, stack
// series) as CSV so they can be fed to external plotting. The codec
// supports quoted fields with embedded separators/quotes/newlines, a
// configurable separator (TSV), and header handling.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fenrir::io {

/// Error for malformed CSV input.
class CsvError : public std::runtime_error {
 public:
  CsvError(std::string message, std::size_t line)
      : std::runtime_error("csv:" + std::to_string(line) + ": " +
                           std::move(message)),
        line_(line) {}
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

using CsvRow = std::vector<std::string>;

/// Streaming CSV tokenizer: one row at a time, as views.
///
/// The dialect is an RFC 4180 subset: a quote is special only while its
/// field is still empty, "" inside quotes is a literal quote, quoted
/// fields may hold separators and newlines, '\r' outside quotes is
/// dropped (so CRLF and LF both end a row), and a line with nothing but
/// '\r' yields no row. A last row without a newline is still a row.
///
/// An istream source is read through a kBufferBytes buffer that grows
/// only to hold the longest row, so memory is bounded by the row, not
/// the file. Plain fields are views into that buffer; a field that was
/// quoted or held a '\r' is unescaped into a per-row scratch string.
///
/// A plain field's end is found on a bit mask of the separator, '\n',
/// '\r' and '"' bytes of a 64-byte block, compared 16 bytes at a time
/// (SSE2, which every x86-64 has). The mask is carried from field to
/// field across the row, so a field costs one mask bit rather than a
/// branch per byte. The bytes short of a whole block at the end of the
/// input read so far, and targets without SSE2, take a byte loop over
/// the same four bytes. No load reaches past the bytes read.
class CsvReader {
 public:
  static constexpr std::size_t kBufferBytes = std::size_t{1} << 20;

  /// Reads @p in, which must outlive the reader.
  explicit CsvReader(std::istream& in, char sep = ',');
  /// Tokenizes @p text in place; the text must outlive the reader.
  explicit CsvReader(std::string_view text, char sep = ',');
  // The row's views point into this reader's own buffer.
  CsvReader(const CsvReader&) = delete;
  CsvReader& operator=(const CsvReader&) = delete;

  /// Advances to the next row; false at the end of input. Throws
  /// CsvError on an unterminated quote, naming the last line (the
  /// quote runs to the end of the input).
  bool next();

  /// The current row's fields, valid until the next call to next().
  std::span<const std::string_view> row() const noexcept {
    return {fields_.data(), row_size_};
  }

 private:
  enum class Step { kRow, kEnd, kNeedMore };
  /// How a field ended: at a separator, a newline, the end of input, or
  /// the end of the bytes read so far (the row is parsed again after
  /// refill()).
  enum class Stop { kSep, kNewline, kEof, kNeedMore };
  /// Where unescape() left its field: the byte after it, how it ended,
  /// the newlines it held and whether it had content.
  struct SlowField {
    const char* next;
    Stop stop;
    std::size_t newlines;
    bool content;
  };
  Step parse_row();
  /// Reads field @p index from @p p, its first byte, the slow way: it
  /// opens with a quote or holds a '\r'. @p line is the line @p p is on.
  SlowField unescape(const char* p, std::size_t line, std::size_t index);
  void refill();
  void mark_special();

  std::istream* in_ = nullptr;
  char sep_;
  /// The bytes a plain field's scan stops at: the separator, '\n' and
  /// '\r', which end it or need unescaping, and '"', special only as
  /// the field's first byte.
  std::array<bool, 256> special_{};
  std::vector<char> buffer_;
  const char* data_ = nullptr;  // buffer_.data(), or the text source
  std::size_t pos_ = 0;         // start of the row being read
  std::size_t end_ = 0;         // end of the bytes read so far
  bool eof_ = false;            // no bytes beyond end_
  std::size_t line_ = 1;        // line on which pos_ lies
  /// The row's views are its first row_size_ entries; the vector only
  /// grows, so a row writes its views without a size check per field.
  std::vector<std::string_view> fields_;
  std::size_t row_size_ = 0;
  std::string scratch_;
  /// (field index, scratch offset, length) of the unescaped fields —
  /// their views are made once the row is done, since scratch_ may
  /// reallocate while it grows.
  struct Unescaped {
    std::size_t field, offset, size;
  };
  std::vector<Unescaped> unescaped_;
};

/// Parses an entire CSV document (a loop over CsvReader). Throws
/// CsvError on an unterminated quote.
std::vector<CsvRow> parse_csv(std::string_view text, char sep = ',');

/// Escapes a single field for CSV output if needed.
std::string csv_escape(std::string_view field, char sep = ',');

/// Streaming CSV writer.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out, char sep = ',')
      : out_(out), sep_(sep) {}

  void write_row(const std::vector<std::string>& fields);

  /// Variadic convenience: write_row("a", 3, 2.5).
  template <typename... Ts>
  void row(const Ts&... fields) {
    std::vector<std::string> out;
    out.reserve(sizeof...(fields));
    (out.push_back(to_field(fields)), ...);
    write_row(out);
  }

 private:
  static std::string to_field(const std::string& s) { return s; }
  static std::string to_field(const char* s) { return s; }
  static std::string to_field(std::string_view s) { return std::string(s); }
  template <typename T>
  static std::string to_field(const T& v) {
    return std::to_string(v);
  }

  std::ostream& out_;
  char sep_;
};

}  // namespace fenrir::io
