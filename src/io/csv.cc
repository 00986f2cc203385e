#include "io/csv.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace fenrir::io {

namespace {

/// Hands out one row's special bytes (the separator, '\n', '\r' and
/// '"') in order. Where a whole 64-byte block fits before the end, its
/// bytes are compared 16 at a time into one 64-bit mask, and each pop()
/// takes the mask's lowest bit: the next field's end is found from the
/// mask alone, not from where the last field ended. Fewer than 64 bytes
/// before the end take the byte loop.
class SpecialScan {
 public:
  static constexpr std::ptrdiff_t kBlock = 64;

  SpecialScan(const char* from, const char* end, char sep,
              const std::array<bool, 256>& special) noexcept
      : end_(end), block_(from), next_(from), special_(special) {
#if defined(__SSE2__)
    sep_ = _mm_set1_epi8(sep);
#else
    (void)sep;
#endif
  }

  /// The first special byte past the last one popped (or skipped to),
  /// or the end.
  const char* pop() noexcept {
#if defined(__SSE2__)
    while (mask_ == 0) {
      if (end_ - next_ < kBlock) return pop_byte();
      block_ = next_;
      next_ += kBlock;
      mask_ = lanes(block_) | lanes(block_ + 16) << 16 |
              lanes(block_ + 32) << 32 | lanes(block_ + 48) << 48;
    }
    const char* const q = block_ + std::countr_zero(mask_);
    mask_ &= mask_ - 1;
    return q;
#else
    return pop_byte();
#endif
  }

  /// Drops the special bytes before @p p, which lies past the last one
  /// popped: the next pop() starts there.
  void skip_to(const char* p) noexcept {
    if (p < next_) {
      mask_ &= ~std::uint64_t{0} << (p - block_);  // p is inside the block
    } else {
      mask_ = 0;
      next_ = p;
    }
  }

 private:
  const char* pop_byte() noexcept {
    const char* q = next_;
    while (q != end_ && !special_[static_cast<unsigned char>(*q)]) ++q;
    next_ = q == end_ ? q : q + 1;
    return q;
  }

#if defined(__SSE2__)
  /// Bit k set when p[k] is special, for the 16 bytes at @p p.
  std::uint64_t lanes(const char* p) const noexcept {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(v, sep_),
                     _mm_cmpeq_epi8(v, _mm_set1_epi8('\n'))),
        _mm_or_si128(_mm_cmpeq_epi8(v, _mm_set1_epi8('\r')),
                     _mm_cmpeq_epi8(v, _mm_set1_epi8('"'))));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(hit));
  }
#endif

  const char* const end_;
  const char* block_;  // the block mask_ covers, bit k for block_[k]
  const char* next_;   // where the next block load (or byte loop) starts
  std::uint64_t mask_ = 0;  // the block's special bytes not yet popped
  const std::array<bool, 256>& special_;
#if defined(__SSE2__)
  __m128i sep_;
#endif
};

}  // namespace

CsvReader::CsvReader(std::istream& in, char sep)
    : in_(&in), sep_(sep), buffer_(kBufferBytes), data_(buffer_.data()) {
  mark_special();
}

CsvReader::CsvReader(std::string_view text, char sep)
    : sep_(sep), data_(text.data()), end_(text.size()), eof_(true) {
  mark_special();
}

void CsvReader::mark_special() {
  special_[static_cast<unsigned char>(sep_)] = true;
  special_['\n'] = true;
  special_['\r'] = true;
  special_['"'] = true;
}

bool CsvReader::next() {
  for (;;) {
    switch (parse_row()) {
      case Step::kRow:
        return true;
      case Step::kEnd:
        return false;
      case Step::kNeedMore:
        refill();
        break;
    }
  }
}

void CsvReader::refill() {
  // Only the unfinished row is kept: it slides to the front, and the
  // buffer grows only when that one row fills it.
  const std::size_t keep = end_ - pos_;
  if (pos_ != 0) std::memmove(buffer_.data(), buffer_.data() + pos_, keep);
  pos_ = 0;
  end_ = keep;
  if (end_ == buffer_.size()) buffer_.resize(buffer_.size() * 2);
  data_ = buffer_.data();
  in_->read(buffer_.data() + end_,
            static_cast<std::streamsize>(buffer_.size() - end_));
  end_ += static_cast<std::size_t>(in_->gcount());
  if (!*in_) eof_ = true;  // a short read: nothing more will come
}

CsvReader::Step CsvReader::parse_row() {
  const char* const end = data_ + end_;
  SpecialScan scan(data_ + pos_, end, sep_, special_);
  // Each pass reads one line from its first byte; a blank line loops.
  for (;;) {
    scratch_.clear();
    unescaped_.clear();
    const char* p = data_ + pos_;
    std::size_t line = line_;
    bool started = false;  // the line has content (a blank line has none)
    std::string_view* field = fields_.data();  // the next field's slot
    std::string_view* room = field + fields_.size();
    Stop stop;
    do {
      if (field == room) {
        const std::size_t used = fields_.size();
        fields_.resize(std::max<std::size_t>(16, 2 * used));
        field = fields_.data() + used;
        room = fields_.data() + fields_.size();
      }
      const char* const start = p;
      // A plain field: a view into the buffer unless it opens with a
      // quote or a '\r' turns up. A later quote is a literal byte.
      const char* q = scan.pop();
      while (q != end && *q == '"' && q != start) q = scan.pop();
      if (q == end && !eof_) return Step::kNeedMore;
      if (q != end && (*q == '"' || *q == '\r')) {
        const SlowField slow = unescape(
            start, line, static_cast<std::size_t>(field - fields_.data()));
        *field++ = {};  // the view is made once the row is done
        p = slow.next;
        scan.skip_to(p);
        stop = slow.stop;
        line += slow.newlines;
        started = started || slow.content;
        continue;
      }
      *field++ = std::string_view(start, static_cast<std::size_t>(q - start));
      p = q;
      if (p != start) started = true;
      if (p == end) {
        stop = Stop::kEof;
      } else if (*p++ == '\n') {
        ++line;
        stop = Stop::kNewline;
      } else {
        started = true;
        stop = Stop::kSep;
      }
    } while (stop == Stop::kSep);
    if (stop == Stop::kNeedMore) return Step::kNeedMore;
    pos_ = static_cast<std::size_t>(p - data_);
    line_ = line;
    if (started) {
      row_size_ = static_cast<std::size_t>(field - fields_.data());
      for (const Unescaped& u : unescaped_) {
        fields_[u.field] = std::string_view(scratch_.data() + u.offset, u.size);
      }
      return Step::kRow;
    }
    if (stop == Stop::kEof) {
      row_size_ = 0;
      return Step::kEnd;
    }
  }
}

CsvReader::SlowField CsvReader::unescape(const char* p, std::size_t line,
                                         std::size_t index) {
  // One byte at a time into the scratch, from the field's first byte.
  // A quote opens only while the field is still empty, so a '\r' before
  // it still lets it open.
  const char* const end = data_ + end_;
  const std::size_t offset = scratch_.size();
  std::size_t newlines = 0;
  bool content = false;
  bool quoted = false;
  Stop stop;
  for (;;) {
    if (p == end) {
      if (!eof_) return {p, Stop::kNeedMore, newlines, content};
      if (quoted) throw CsvError("unterminated quoted field", line + newlines);
      stop = Stop::kEof;
      break;
    }
    const char c = *p++;
    if (quoted) {
      if (c != '"') {
        if (c == '\n') ++newlines;
        scratch_.push_back(c);
        continue;
      }
      if (p == end && !eof_) {  // "" or a close?
        return {p, Stop::kNeedMore, newlines, content};
      }
      if (p != end && *p == '"') {
        scratch_.push_back('"');
        ++p;
      } else {
        quoted = false;
      }
      continue;
    }
    if (c == '"' && scratch_.size() == offset) {
      quoted = true;
      content = true;
    } else if (c == sep_) {
      content = true;
      stop = Stop::kSep;
      break;
    } else if (c == '\n') {
      ++newlines;
      stop = Stop::kNewline;
      break;
    } else if (c != '\r') {
      scratch_.push_back(c);
      content = true;
    }
  }
  unescaped_.push_back({index, offset, scratch_.size() - offset});
  return {p, stop, newlines, content};
}

std::vector<CsvRow> parse_csv(std::string_view text, char sep) {
  CsvReader reader(text, sep);
  std::vector<CsvRow> rows;
  while (reader.next()) {
    rows.emplace_back(reader.row().begin(), reader.row().end());
  }
  return rows;
}

std::string csv_escape(std::string_view field, char sep) {
  const bool needs_quotes =
      field.find_first_of(std::string{sep} + "\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << sep_;
    out_ << csv_escape(fields[i], sep_);
  }
  out_ << '\n';
}

}  // namespace fenrir::io
