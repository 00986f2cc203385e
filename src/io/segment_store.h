// fenrir::io — FENRSEG1: a segmented, spill-as-you-go history store.
//
// The one way Fenrir persists a Φ history (`fenrirctl watch --store`,
// `analyze --matrix-cache`). Rewriting the whole Φ stack on every save
// would cost O(history) bytes per interval, however little changed;
// the store is instead an append-only directory of immutable *sealed*
// segments plus one *active tail* segment:
//
//   <dir>/MANIFEST            crash-atomic index (tmp + rename)
//   <dir>/seg-<id>.fenrseg    sealed, mmap-adopted
//   <dir>/tail-<id>.fenrseg   active tail, appended in place
//
// Each observation is spilled as one self-contained record — validity,
// time, the packed assignment row, and the row's Φ values — so a save
// interval writes O(new rows) bytes and one manifest, never the history.
// A spill copies the row the matrix has already packed; it never reads
// the observation's site ids. A row whose Φ columns are still pending
// (core::SimilarityMatrix settles them in batches) is queued with a
// pointer to its matrix, and the next flush settles the matrix and
// encodes the queue in order. When the tail reaches `seal_rows` records
// it is sealed (its header rewritten with the final counts, renamed
// seg-<id>) and a fresh tail starts.
//
// Resume mmaps the sealed segments and *adopts* their pages directly
// into PackedSeries / TriangleStore storage (SimilarityMatrix::
// adopt_rows) — warm-start cost is flat in history length. The store
// runs on little-endian hosts only (the static_assert in
// compare_kernels.h), where packed rows and Φ doubles are the same
// bytes in memory as on disk, so the copy fallback (append_precomputed)
// is one memcpy per row for tail records and a widening
// convert_packed_row for mixed-width segment runs. No record is rewritten
// once encoded, so each keeps the width the matrix had then.
//
// Segment file layout (all integers little-endian, doubles as IEEE-754
// bit patterns; everything 8-aligned so doubles map directly):
//
//   header, 128 bytes:
//     magic "FENRSEG1" (8), u32 version (4), u32 flags (bit0 sealed),
//     u64 segment_id, u64 base_row (global row of record 0), u64 rows,
//     u64 networks, u64 width (bits per element: 4|8|16|32), u64
//     tri_base (global row the Φ spans start at), u64 payload_bytes,
//     i64 min_time, i64 max_time, 40 bytes reserved
//   per record, for global row g = base_row + r:
//     u64 meta (bit0 valid, bits 32..63 the record's checksum), i64
//     time, u64 reserved (written ~0, never read; stores from builds
//     that patched rows from a predecessor hold that row's id), the
//     packed row —
//     packed_row_bytes(networks, width) bytes, two 4-bit ids to a byte
//     (low nibble first, an odd row's last high nibble 0) or 8/16/32-bit
//     little-endian ids — padded to a multiple of 8, (g − tri_base + 1)
//     × f64 Φ columns for global rows tri_base..g
//
// The checksum is wire::payload_checksum over every other byte of the
// record, padding included: meta's low half, then everything from time
// on (the two hashes XORed). Sealed or tail, every record checks
// itself; there is no per-segment checksum and no trailer, so a sealed
// file is exactly 128 + payload_bytes long. A tail's header holds only
// what is fixed when it opens (rows, payload_bytes and the times stay
// 0); the seal rewrites it with the final counts.
//
// Record offsets are pure arithmetic in (base_row, tri_base, networks,
// width) — no per-record index is stored or needed. The manifest
// decoder derives every entry's payload from the same arithmetic
// (overflow-checked) and refuses an entry whose payload_bytes disagree
// as "inconsistent", before any record is read.
// One check (check_segment in segment_store.cc) then holds a segment
// file to its manifest entry — magic, version, every header byte, the
// size (exact for a sealed file) — and each record to its checksum as
// it walks them; load(), verify() and the roll-forward of a crashed
// seal all go through it.
//
// tri_base is the retention lever: a tail created after retention
// advanced the store's base omits the dead Φ prefix entirely. A sealed
// segment keeps the Φ prefix it was sealed with until retention retires
// it.
//
// Durability protocol (what the chaos killpoints exercise):
//   spill():  queue the row (its Φ is pending), or, with nothing queued
//             and the row settled, encode it at once
//   flush():  settle the queued rows' matrix and encode each queued
//             record into a pending buffer (a width change first seals
//             the tail, as below, under the previous flush's book);
//             once the buffer holds ≥ 1 MiB, pwrite it past the
//             durable payload → [segment_tail_write] — written ahead,
//             not yet durable; pwrite the rest → fsync(tail) →
//             [segment_tail_flush] → atomic manifest write with this
//             flush's book (tmp + fsync + rename + directory fsync;
//             FENRIR_CHAOS_KILL_SAVE kills it at a byte offset)
//   seal:     after a flush, rewrite the tail's header with its final
//             counts, fsync, rename tail→seg → [segment_seal_rename] →
//             manifest; retention retires whole front segments,
//             manifest first, unlink after
// The manifest is the single source of truth: a tail longer than the
// manifest says (written-ahead records of a session that died before
// its next flush) is truncated back on open; a torn tail is dropped
// whole (sealed history survives — `segment_tail_salvaged` event); a
// seal interrupted after its header write or its rename is rolled
// forward once the file checks out as that tail sealed; every file the
// manifest does not list is collected.
//
// Identity: a store created by a live session records a header hash
// (network keys and weights) and a names hash (the site names its rows
// use); a store driven by append_raw() alone (benches) records neither.
// Both hashes are wire::IdentityHash — the checksum's four
// multiply–rotate lanes fed 64-bit words by value, so they are the same
// on every host. Rows carry no hash: resume checks each retained record
// exactly against the dataset — validity, time, and the dataset's row
// packed at the record's width, compared byte for byte — so it verifies
// only the retained window (flat). The record checksums run first: a
// damaged record is "checksum mismatch", a record that is intact but
// holds another dataset's row is "row mismatch".
//
// The manifest (version 8) holds the store's flags, identity hashes,
// network count, weights and row counters, then u64 sealed count, u8 1
// when a tail follows, and one entry per sealed segment in row order
// and one for the tail, each in SegmentInfo's field order (a tail's rows
// and payload are its durable ones). One loop decodes every entry, and
// the entries must tile the retained window. The optional modebook
// section and a u32 wire::payload_checksum close the file.
//
// The modebook section carries the watch's ModeBook. Every
// representative is a row of the book's one PackedSeries, so the
// section holds u64 width in bits, u64 networks and u64 mode count
// once, then each representative's packed row (padded to 8), then u64
// history count and one u64 mode per observation. flush(&book) encodes
// the rows straight from the book's packed storage, so a paper-scale
// book of five modes costs about 12.5 MB of manifest at half a byte per
// network, not 100 MB of u32 site ids. The decoder refuses a width that
// is not 4, 8, 16 or 32 bits, representatives whose network count is
// not the store's, and a history entry past the last mode.
// Segment files are version 5 and the manifest version 8; any other
// version of either is refused with "version skew" — there is no read
// path for older stores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/distance_matrix.h"
#include "core/modebook.h"
#include "core/vector.h"

namespace fenrir::io {

inline constexpr char kSegmentMagic[8] = {'F', 'E', 'N', 'R',
                                          'S', 'E', 'G', '1'};
inline constexpr char kManifestMagic[8] = {'F', 'E', 'N', 'R',
                                           'M', 'A', 'N', 'I'};
inline constexpr std::uint32_t kSegmentVersion = 5;
inline constexpr std::uint32_t kManifestVersion = 8;
inline constexpr std::size_t kSegmentHeaderBytes = 128;
/// What every record's reserved word holds as written.
inline constexpr std::uint64_t kNoAnchor = ~std::uint64_t{0};

struct SegmentStoreConfig {
  /// Tail records before seal + rotate.
  std::size_t seal_rows = 256;
  /// Keep at least this many newest observations (0 = keep everything).
  std::uint64_t retain_obs = 0;
  /// Keep observations whose time is within this many seconds of the
  /// newest observation time (0 = keep everything). Observation time,
  /// not wall clock — retention stays deterministic.
  std::int64_t retain_seconds = 0;
  /// Threads for the restored matrix (parallel_for semantics: 0 =
  /// hardware, 1 = serial).
  unsigned threads = 1;
  /// Ignored: the store merges no segments and starts no thread. Kept
  /// only because e2ebench/e2e_bench.cpp assigns it.
  bool background_compaction = true;
};

/// One segment as the manifest records it: a sealed one (also the
/// `segment ls` row) or the tail's durable rows.
struct SegmentInfo {
  std::uint64_t id = 0;
  std::uint64_t base_row = 0;
  std::uint64_t rows = 0;
  std::uint64_t tri_base = 0;
  std::uint64_t bits = 4;  // packed width: bits per element
  std::uint64_t payload_bytes = 0;
  std::int64_t min_time = 0;
  std::int64_t max_time = 0;
};

class SegmentStore {
 public:
  /// Opens (or creates) the store at @p dir, replaying the manifest and
  /// rolling interrupted lifecycle steps forward: truncates an
  /// over-long tail, salvages a torn one, completes a crashed seal
  /// rename, and collects every file the manifest does not reference
  /// (orphaned seg-*/tail-* files, a dead MANIFEST.tmp.*, the cmp-* output
  /// of an older build's interrupted compaction).
  /// Throws DatasetIoError on a corrupt manifest, or when @p dir is not
  /// (and cannot become) a directory.
  SegmentStore(std::filesystem::path dir, SegmentStoreConfig cfg);
  ~SegmentStore();
  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// True iff @p path is a directory holding a segment-store MANIFEST —
  /// how `segment ls|verify` tell a store from a stray directory.
  static bool looks_like_store(const std::filesystem::path& path);

  /// Live-session identity source: header/name hashes come from here,
  /// and load() checks retained rows against the dataset it is given.
  /// Optional — a store driven by append_raw() (benches) never attaches
  /// one.
  void attach(const core::Dataset* dataset);

  /// Spills the newest matrix row (matrix.size()-1, global row
  /// processed()). A row whose Φ columns are pending — or any row while
  /// earlier ones wait — is queued: the store keeps @p matrix's address
  /// until the next flush(), the way attach() keeps the dataset, so the
  /// matrix must stay alive and in place until then. Otherwise the
  /// record is encoded into the pending buffer at once, and a buffer
  /// past 1 MiB is written through to the tail (not yet durable). Of
  /// @p v only time and validity are read; the packed row and the
  /// largest site id come from the matrix when the record is encoded, at
  /// the width the matrix has then (rotating the tail first when that
  /// width changed).
  void spill(const core::RoutingVector& v,
             const core::SimilarityMatrix& matrix);

  /// spill() for an arbitrary matrix row: records @p row (whose global
  /// row must be processed(), i.e. rows are spilled in order) from a
  /// matrix that may already hold later rows — how `analyze
  /// --matrix-cache` persists the rows it appended in one batch.
  void spill_row(const core::RoutingVector& v,
                 const core::SimilarityMatrix& matrix, std::size_t row);

  /// Raw spill for callers without a live matrix (benches, tests):
  /// @p packed is one packed row of @p networks @p bits-bit elements
  /// (4, 8, 16 or 32; core::packed_row_bytes(networks, bits) bytes in
  /// PackedSeries layout, std::invalid_argument otherwise), @p phi the Φ
  /// columns for global rows base..processed() where base is the store's
  /// current base_row — exactly processed() − base_row() + 1 values.
  void append_raw(bool valid, std::int64_t time, std::size_t networks,
                  std::size_t bits,
                  std::span<const std::byte> packed,
                  std::span<const double> phi);

  /// Makes everything spilled so far durable: settles and encodes the
  /// queued rows in order (rotating the tail where the packed width
  /// changed), tail pwrite + fsync, then the manifest (with @p book's
  /// modebook state when given), then any due seal/rotate/retention.
  /// @p book is stored only once the queue is encoded: a manifest that a
  /// rotation writes on the way makes only earlier rows durable, and
  /// keeps the previous flush's book, never one ahead of its rows.
  void flush(const core::ModeBook* book = nullptr);

  /// Seals the current tail regardless of size (benches, tests).
  /// Includes a flush.
  void seal_active();

  /// Everything a resumed session needs; matrix rows are the retained
  /// window [base_row, processed).
  struct Loaded {
    core::SimilarityMatrix matrix;
    std::uint64_t base_row = 0;
    std::uint64_t processed = 0;
    bool has_modebook = false;
    /// The book's representatives, row m for mode m, at the width they
    /// were flushed with — what ModeBook::restore takes.
    core::PackedSeries representatives;
    std::vector<std::size_t> history;
  };

  /// Maps every segment file, checks it against the manifest and each
  /// record against its checksum (fenrir_segment_checksum_verified_total
  /// counts the records), verifies identity against @p dataset when
  /// given (null skips — `segment ls` and round-trip tests): the header
  /// and names hashes, then every retained record against its dataset
  /// row, exactly. Builds the matrix by page adoption (uniform sealed
  /// width) or per-record copy. Throws DatasetIoError on corruption or
  /// identity mismatch.
  Loaded load(const core::Dataset* dataset) const;

  /// Runs load(nullptr)'s checks without building a matrix: every
  /// segment file against the manifest, every record against its
  /// checksum. Returns false and fills @p error on the first problem —
  /// exactly when load(nullptr) would throw.
  bool verify(std::string* error) const;

  /// Observations spilled so far, queued ones included.
  std::uint64_t processed() const;
  std::uint64_t base_row() const;
  std::uint64_t tail_rows() const;
  std::uint64_t cold_bytes() const;
  bool empty() const;
  core::UnknownPolicy policy() const;
  const std::vector<double>& weights() const;
  std::vector<SegmentInfo> segments() const;

  /// Sets policy/weights on a store that has no rows yet (a fresh
  /// watch, benches; spill() derives them from the matrix instead).
  void configure(core::UnknownPolicy policy, std::vector<double> weights);

 private:
  struct TailState {
    /// What the manifest records of the tail: its durable rows and
    /// payload, and the times of every row appended.
    SegmentInfo info;
    std::uint64_t rows = 0;           // durable + pending
    std::uint64_t written_ahead = 0;  // pwritten past info.payload_bytes,
                                      // not yet fsynced or in the manifest
    int fd = -1;
  };

  std::filesystem::path manifest_path() const;
  std::filesystem::path segment_path(std::uint64_t id) const;
  std::filesystem::path tail_path(std::uint64_t id) const;

  // All private helpers below assume state_mutex_ is held.
  void write_manifest_locked();
  std::string encode_manifest_locked() const;
  void decode_manifest(const std::string& bytes);
  void open_tail_locked(std::uint64_t bits);
  void ensure_tail_locked(std::size_t networks, std::uint64_t bits);
  /// A spilled row waiting for its Φ: what its record needs besides
  /// the Φ columns and the packed bytes, which are read from *matrix at
  /// encode.
  struct QueuedRow {
    const core::SimilarityMatrix* matrix = nullptr;
    std::size_t row = 0;              // local row in *matrix
    std::uint64_t session_base = 0;   // global row of matrix row 0
    bool valid = false;
    std::int64_t time = 0;
  };

  /// Encodes @p q's record into the pending buffer at the matrix's
  /// current packed width.
  void encode_locked(const QueuedRow& q);
  /// Encodes every queued row, in order, and empties the queue.
  void drain_locked();
  void append_record_locked(bool valid, std::int64_t time,
                            std::size_t networks, std::uint64_t bits,
                            std::span<const std::byte> packed,
                            std::span<const double> phi);
  void write_pending_locked();
  void flush_locked(bool force_seal);
  void seal_tail_locked();
  void apply_retention_locked(std::vector<std::filesystem::path>& retired);
  void refresh_names_hash_locked();
  void publish_status_locked() const;

  std::filesystem::path dir_;
  SegmentStoreConfig cfg_;
  const core::Dataset* dataset_ = nullptr;

  mutable std::mutex state_mutex_;
  core::UnknownPolicy policy_ = core::UnknownPolicy::kPessimistic;
  std::vector<double> weights_;
  bool configured_ = false;
  // 0 = none (raw/bench stores), 1 = header/names hashes plus exact
  // row checks at load (live sessions).
  std::uint8_t identity_mode_ = 0;
  std::uint64_t header_hash_ = 0;
  std::uint64_t names_hash_ = 0;
  std::uint64_t max_site_seen_ = 0;
  bool names_hash_stale_ = false;
  std::size_t networks_ = 0;
  bool has_modebook_ = false;
  /// The manifest's modebook section, encoded (what every manifest
  /// write appends verbatim until the next flush(&book) replaces it).
  std::string modebook_;

  std::uint64_t base_row_ = 0;
  std::uint64_t processed_ = 0;  // encoded rows; queued_ follow them
  std::uint64_t next_segment_id_ = 0;
  std::int64_t max_time_seen_ = 0;
  std::vector<SegmentInfo> sealed_;
  std::optional<TailState> tail_;
  std::vector<QueuedRow> queued_;  // spilled, not yet encoded
  std::string pending_;  // encoded records not yet written to the tail;
                         // written through at kWriteThroughBytes
};

}  // namespace fenrir::io
