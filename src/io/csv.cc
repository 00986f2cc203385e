#include "io/csv.h"

#include <cstring>
#include <istream>
#include <ostream>

namespace fenrir::io {

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
  // Each pass reads one line from its first byte; a blank line loops.
  for (;;) {
    fields_.clear();
    scratch_.clear();
    unescaped_.clear();
    const char* p = data_ + pos_;
    std::size_t line = line_;
    bool started = false;  // the line has content (a blank line has none)
    Stop stop;
    do {
      const char* const start = p;
      if (p != end && *p == '"') {
        stop = unescape(p, line, started);
        continue;
      }
      // A plain field: a view into the buffer unless a '\r' turns up.
      while (p != end && !special_[static_cast<unsigned char>(*p)]) ++p;
      if (p == end && !eof_) return Step::kNeedMore;
      if (p != end && *p == '\r') {
        p = start;
        stop = unescape(p, line, started);
        continue;
      }
      fields_.emplace_back(start, static_cast<std::size_t>(p - start));
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
      for (const Unescaped& u : unescaped_) {
        fields_[u.field] = std::string_view(scratch_.data() + u.offset, u.size);
      }
      return Step::kRow;
    }
    if (stop == Stop::kEof) return Step::kEnd;
  }
}

CsvReader::Stop CsvReader::unescape(const char*& p, std::size_t& line,
                                    bool& started) {
  // One byte at a time into the scratch, from the field's first byte.
  // A quote opens only while the field is still empty, so a '\r' before
  // it still lets it open.
  const char* const end = data_ + end_;
  const std::size_t offset = scratch_.size();
  bool quoted = false;
  Stop stop;
  for (;;) {
    if (p == end) {
      if (!eof_) return Stop::kNeedMore;
      if (quoted) throw CsvError("unterminated quoted field", line);
      stop = Stop::kEof;
      break;
    }
    const char c = *p++;
    if (quoted) {
      if (c != '"') {
        if (c == '\n') ++line;
        scratch_.push_back(c);
        continue;
      }
      if (p == end && !eof_) return Stop::kNeedMore;  // "" or a close?
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
      started = true;
    } else if (c == sep_) {
      started = true;
      stop = Stop::kSep;
      break;
    } else if (c == '\n') {
      ++line;
      stop = Stop::kNewline;
      break;
    } else if (c != '\r') {
      scratch_.push_back(c);
      started = true;
    }
  }
  unescaped_.push_back({fields_.size(), offset, scratch_.size() - offset});
  fields_.emplace_back();  // the view is made once the row is done
  return stop;
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
