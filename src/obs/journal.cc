#include "obs/journal.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <string_view>

#include "obs/health.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace fenrir::obs {

namespace {

Counter& lines_counter() {
  static Counter& c = registry().counter("fenrir_journal_lines_total",
                                         "journal lines appended");
  return c;
}

Counter& write_errors_counter() {
  static Counter& c = registry().counter(
      "fenrir_journal_write_errors_total",
      "journal appends that failed to reach the stream");
  return c;
}

/// The journal's integrity check: a complete single-line JSON object.
/// (Full JSON validation would need a parser the repo deliberately does
/// not carry; brace framing catches every torn write, which is the
/// failure mode the journal defends against.)
bool looks_complete(std::string_view line) {
  return line.size() >= 2 && line.front() == '{' && line.back() == '}';
}

/// A kill mid-append leaves an unterminated last line, and appending
/// straight after it would glue the next line onto it — losing both.
/// Cuts @p path back to just past its last '\n' (to empty when there is
/// none), so the torn line reads as "not written", which is what
/// read_journal already makes of it, and the next line starts clean. A
/// file that ends in '\n', or cannot be read, is left alone.
void drop_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return;
  std::streamoff end = in.tellg();
  if (end <= 0) return;
  char last = '\0';
  in.seekg(end - 1);
  if (!in.get(last) || last == '\n') return;
  // Walk back a block at a time to the last '\n'.
  std::streamoff keep = 0;
  char block[4096];
  while (end > 0 && keep == 0) {
    const std::streamoff begin = std::max<std::streamoff>(
        0, end - static_cast<std::streamoff>(sizeof block));
    in.seekg(begin);
    if (!in.read(block, end - begin)) return;
    for (std::streamoff k = end - begin; k > 0 && keep == 0; --k) {
      if (block[k - 1] == '\n') keep = begin + k;
    }
    end = begin;
  }
  in.close();
  std::error_code ec;
  std::filesystem::resize_file(path, static_cast<std::uintmax_t>(keep), ec);
  if (ec) {
    FENRIR_LOG(Warn).field("path", path)
        << "journal: cannot cut a torn last line: " << ec.message();
  }
}

/// The integer after the first "time": key of @p line, if any.
std::optional<std::int64_t> time_field(std::string_view line) {
  constexpr std::string_view kKey = "\"time\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) return std::nullopt;
  const char* first = line.data() + at + kKey.size();
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, line.data() + line.size(), value);
  if (ec != std::errc{}) return std::nullopt;
  return value;
}

}  // namespace

Journal::~Journal() { close(); }

bool Journal::open(const std::string& path, bool truncate) {
  close();
  if (!truncate) drop_torn_tail(path);
  out_.open(path, truncate ? std::ios::out | std::ios::trunc
                           : std::ios::out | std::ios::app);
  if (!out_) {
    FENRIR_LOG(Warn).field("path", path) << "journal disabled: cannot open file";
    return false;
  }
  path_ = path;
  lines_ = 0;
  write_failed_ = false;
  return true;
}

void Journal::append(std::string_view json_object) {
  if (!out_.is_open()) return;
  out_ << json_object << '\n';
  out_.flush();  // a kill after this point never loses the entry
  if (!out_) {
    // Disk full, file yanked, fd revoked: the record is now incomplete.
    // Keep running (observability never stops the work) but degrade
    // /healthz so operators stop trusting the artifact. Report once —
    // a dead stream fails every subsequent append too.
    write_errors_counter().inc();
    if (!write_failed_) {
      write_failed_ = true;
      report_degraded("journal", "write error on " + path_);
      FENRIR_LOG(Warn).field("path", path_)
          << "journal write failed; /healthz now reports degraded";
    }
    out_.clear();  // keep the stream pollable; later appends may recover bytes
    return;
  }
  ++lines_;
  lines_counter().inc();
}

void Journal::close() {
  if (out_.is_open()) out_.close();
  path_.clear();
}

std::vector<std::string> read_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JournalError("cannot open journal: " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  // std::getline strips '\n'; detect an unterminated final line (a torn
  // append) from the raw last byte of the file.
  bool last_terminated = true;
  if (!lines.empty()) {
    std::ifstream raw(path, std::ios::binary | std::ios::ate);
    if (raw && raw.tellg() > std::streampos(0)) {
      raw.seekg(-1, std::ios::end);
      char last = '\0';
      raw.get(last);
      last_terminated = (last == '\n');
    }
  }
  if (!lines.empty()) {
    const bool last_ok = last_terminated && looks_complete(lines.back());
    if (!last_ok) lines.pop_back();  // torn tail: the truth is "not written"
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!looks_complete(lines[i])) {
      throw JournalError("journal " + path + " corrupt at line " +
                         std::to_string(i + 1));
    }
  }
  return lines;
}

std::size_t cut_journal(const std::string& path, std::int64_t from,
                        std::size_t keep) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uintmax_t offset = 0;  // where the current line starts
  std::optional<std::uintmax_t> cut;
  std::size_t lines_cut = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!cut) {
      const auto time = time_field(line);
      if (time && *time >= from) {
        if (keep == 0) {
          cut = offset;
        } else {
          --keep;
        }
      }
    }
    if (cut) ++lines_cut;
    offset += line.size() + (in.eof() ? 0 : 1);
  }
  in.close();
  if (!cut) return 0;
  std::error_code ec;
  std::filesystem::resize_file(path, *cut, ec);
  if (ec) {
    FENRIR_LOG(Warn).field("path", path)
        << "journal: cannot cut back to the durable prefix: " << ec.message();
    return 0;
  }
  return lines_cut;
}

}  // namespace fenrir::obs
