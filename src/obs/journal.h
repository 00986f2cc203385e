// fenrir::obs — append-only JSONL sweep journal.
//
// A measurement campaign that dies mid-run (chaos kill, OOM, operator
// Ctrl-C) should leave behind a truthful record of every sweep it
// *finished*, not a corrupt half-artifact. The journal is the classic
// write-ahead answer: one JSON object per line, appended and flushed as
// each sweep completes, never rewritten. Recovery is then a read
// problem, not a repair problem:
//
//   * every fully written line is valid on its own;
//   * a process killed mid-append leaves at most one torn final line,
//     which the reader silently drops (the sweep it described never
//     finished reporting, so dropping it is the truth) and a resumed
//     writer cuts before its first append;
//   * a malformed line in the *interior* means real corruption (disk,
//     truncation, editing) and throws JournalError — silently skipping
//     would fabricate a gap the campaign never had.
//
// Under the repo's determinism invariant this gives the journal
// prefix property the chaos tests pin down: a journal written by a
// killed campaign is a bit-identical line prefix of the journal the
// uninterrupted campaign writes.
//
// Writers: measure::Campaign (one line per sweep, see DESIGN.md §9 for
// the schema) and fenrirctl watch (one line per poll). Reader:
// `fenrirctl journal <file>` replays and summarizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace fenrir::obs {

/// Interior corruption in a journal file (torn final lines are not
/// errors; they are dropped).
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Journal {
 public:
  Journal() = default;
  ~Journal();  // closes; never throws

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens @p path for appending (@p truncate drops prior content —
  /// fresh campaigns truncate, resumed ones append). Appending first
  /// cuts a torn last line, one a kill left without its '\n', so the
  /// next append starts a line of its own instead of being glued onto
  /// it. Returns false when the file cannot be opened; the journal is
  /// then inert and append() is a no-op, so callers need not guard every
  /// write.
  bool open(const std::string& path, bool truncate = false);

  /// Appends one JSON object as a line and flushes, so a kill after
  /// append() returns never loses the entry. @p json_object must be a
  /// complete single-line JSON object ("{...}", no newlines) — the
  /// caller formats, the journal only guarantees line atomicity.
  void append(std::string_view json_object);

  void close();

  bool is_open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }
  std::size_t lines_written() const { return lines_; }

  /// True once any append failed to reach the stream (disk full, file
  /// yanked). The first failure reports the process degraded
  /// (health.h) so /healthz answers 503 — the run continues, but its
  /// record is no longer complete and the operator should know.
  bool write_failed() const { return write_failed_; }

 private:
  std::ofstream out_;
  std::string path_;
  std::size_t lines_ = 0;
  bool write_failed_ = false;
};

/// Reads a journal back as one string per line, in file order. Drops a
/// torn final line (unterminated or not a complete JSON object); throws
/// JournalError on an interior line that is not a complete JSON object,
/// and on an unreadable file.
std::vector<std::string> read_journal(const std::string& path);

/// Cuts the JSONL file at @p path back to a resumed writer's durable
/// prefix: it ends before the first line whose "time" field is at or
/// after @p from, passing over the first @p keep such lines (durable
/// entries that share that time). A kill between a writer's periodic
/// flushes leaves lines past the prefix its resume rewrites; cutting
/// them keeps each entry once. Lines without a "time" field never start
/// the cut. Returns the number of lines cut; a missing or unreadable
/// file is left alone.
std::size_t cut_journal(const std::string& path, std::int64_t from,
                        std::size_t keep = 0);

}  // namespace fenrir::obs
