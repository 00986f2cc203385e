#include "io/segment_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "chaos/killpoint.h"
#include "core/dataset_io.h"
#include "io/wire.h"
#include "obs/events.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/status_board.h"

namespace fenrir::io {

namespace {

using core::DatasetIoError;
using wire::IdentityHash;
using wire::patch_u64;
using wire::payload_checksum;
using wire::put_i64;
using wire::put_u32;
using wire::put_u64;
using wire::put_u64_array;
using wire::put_u8;
using wire::Reader;

constexpr std::uint8_t kIdentityNone = 0;
constexpr std::uint8_t kIdentityRows = 1;
constexpr std::uint32_t kFlagSealed = 1u;
// spill() writes the encoded records through to the tail file once this
// many bytes are buffered, so the buffer stays O(one record) however
// wide a record is; flush() still owns the fsync and the manifest.
constexpr std::size_t kWriteThroughBytes = std::size_t{1} << 20;

struct SegMetrics {
  obs::Counter& sealed;
  obs::Counter& retired;
  obs::Counter& mmap_bytes;
  obs::Counter& tail_flush;
  obs::Counter& tail_bytes;
  obs::Counter& checksum_verified;
};

SegMetrics& seg_metrics() {
  static SegMetrics m{
      obs::registry().counter("fenrir_segment_sealed_total",
                              "tail segments sealed and rotated"),
      obs::registry().counter(
          "fenrir_segment_retired_total",
          "sealed segments retired by the retention policy"),
      obs::registry().counter(
          "fenrir_segment_mmap_bytes_total",
          "sealed segment bytes mapped for page adoption at load"),
      obs::registry().counter("fenrir_segment_tail_flush_total",
                              "tail flushes (pwrite + fsync + manifest)"),
      obs::registry().counter("fenrir_segment_tail_bytes_total",
                              "record bytes made durable in tail segments"),
      obs::registry().counter(
          "fenrir_segment_checksum_verified_total",
          "segment records whose checksum was verified (load, verify and "
          "a crashed seal's roll-forward check each record they read once; "
          "saves check none)")};
  return m;
}

DatasetIoError store_corrupt(const std::string& what) {
  obs::event_bus().emit(obs::Severity::kAlert, "segment_store_corrupt",
                        "\"error\":\"" + obs::json_escape(what) + "\"");
  return DatasetIoError(what);
}

std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Bytes of a record's fixed fields: meta, time, the reserved word.
constexpr std::size_t kRecordHeaderBytes = 24;

/// Record byte size for global row @p g in a segment with @p tri_base.
std::size_t record_bytes(std::uint64_t g, std::uint64_t tri_base,
                         std::size_t networks, std::size_t bits) {
  return kRecordHeaderBytes + pad8(core::packed_row_bytes(networks, bits)) +
         8 * static_cast<std::size_t>(g - tri_base + 1);
}

bool valid_bits(std::uint64_t bits) {
  return bits == 4 || bits == 8 || bits == 16 || bits == 32;
}

/// The payload bytes of @p rows records from global row @p base_row on,
/// in a segment of @p networks @p bits-bit elements whose Φ columns start
/// at @p tri_base ≤ @p base_row — exactly what record_bytes() sums to.
/// Record r holds 24 + pad8(row) + 8·(base_row − tri_base + 1 + r) bytes,
/// so the sum is rows·(24 + pad8(row) + 8·first) + 4·rows·(rows − 1).
/// Nullopt when any step overflows, or when the segment file's size
/// (header + payload) would: such a segment cannot exist, and the
/// decoder refuses it before a record is read.
std::optional<std::uint64_t> derived_payload(std::uint64_t base_row,
                                             std::uint64_t rows,
                                             std::uint64_t tri_base,
                                             std::uint64_t networks,
                                             std::uint64_t bits) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::size_t>::max();
  std::uint64_t end = 0, first = 0, per = 0, sum = 0, tri = 0;
  if (networks > kMax / 32 || __builtin_add_overflow(base_row, rows, &end) ||
      __builtin_add_overflow(base_row - tri_base, 1, &first) ||
      __builtin_mul_overflow(first, 8, &per) ||
      __builtin_add_overflow(per,
                             kRecordHeaderBytes +
                                 pad8(core::packed_row_bytes(networks, bits)),
                             &per) ||
      __builtin_mul_overflow(rows, per, &sum) ||
      __builtin_mul_overflow(rows, rows == 0 ? 0 : rows - 1, &tri) ||
      __builtin_mul_overflow(tri, 4, &tri) ||
      __builtin_add_overflow(sum, tri, &sum) ||
      sum > kMax - kSegmentHeaderBytes) {
    return std::nullopt;
  }
  return sum;
}

std::uint64_t load_u64le(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Appends one packed row of @p networks @p bits-bit elements, padded to
/// a multiple of 8. Packed rows are little-endian in memory as on disk,
/// so the row is one copy.
void put_packed_row(std::string& out, const std::byte* src,
                    std::size_t networks, std::size_t bits) {
  const std::size_t bytes = core::packed_row_bytes(networks, bits);
  out.append(reinterpret_cast<const char*>(src), bytes);
  out.append(pad8(bytes) - bytes, '\0');
}

/// A segment file's 128-byte header for @p s. A tail's (@p sealed
/// false) records only what is fixed when the tail opens — rows,
/// payload_bytes and the times stay 0 — and the seal rewrites it whole.
std::string encode_segment_header(const SegmentInfo& s, bool sealed,
                                  std::uint64_t networks) {
  std::string h;
  h.append(kSegmentMagic, sizeof(kSegmentMagic));
  put_u32(h, kSegmentVersion);
  put_u32(h, sealed ? kFlagSealed : 0);
  put_u64(h, s.id);
  put_u64(h, s.base_row);
  put_u64(h, sealed ? s.rows : 0);
  put_u64(h, networks);
  put_u64(h, s.bits);
  put_u64(h, s.tri_base);
  put_u64(h, sealed ? s.payload_bytes : 0);
  put_i64(h, sealed ? s.min_time : 0);
  put_i64(h, sealed ? s.max_time : 0);
  h.resize(kSegmentHeaderBytes, '\0');
  return h;
}

/// A record's checksum, what bits 32..63 of its meta word hold:
/// wire::payload_checksum over every other byte of the record — meta's
/// low half, and everything from time on — the two hashes XORed.
std::uint32_t record_checksum(const std::byte* rec, std::size_t size) {
  return payload_checksum(rec, 4) ^ payload_checksum(rec + 8, size - 8);
}

/// Appends one record to @p out — meta, time, the reserved word
/// (kNoAnchor), the packed row of @p networks @p bits-bit elements, then
/// the Φ columns @p phi — and signs it.
void put_record(std::string& out, bool valid, std::int64_t time,
                const std::byte* packed, std::size_t networks,
                std::size_t bits, std::span<const double> phi) {
  const std::size_t at = out.size();
  put_u64(out, valid ? 1 : 0);
  put_i64(out, time);
  put_u64(out, kNoAnchor);
  put_packed_row(out, packed, networks, bits);
  put_u64_array(out, phi.data(), phi.size());
  const std::uint32_t crc = record_checksum(
      reinterpret_cast<const std::byte*>(out.data() + at), out.size() - at);
  patch_u64(out, at, (valid ? 1 : 0) | std::uint64_t{crc} << 32);
}

// --- POSIX helpers (EINTR-safe, DatasetIoError on failure) --------------

int open_or_throw(const std::filesystem::path& path, int flags, mode_t mode) {
  const int fd = ::open(path.c_str(), flags, mode);
  if (fd < 0) {
    throw DatasetIoError("cannot open " + path.string() + ": " +
                         std::strerror(errno));
  }
  return fd;
}

void pwrite_all(int fd, const void* data, std::size_t len, off_t off,
                const std::filesystem::path& path) {
  const char* p = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, p + done, len - done,
                               off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DatasetIoError("cannot write " + path.string() + ": " +
                           std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, void* data, std::size_t len, off_t off,
               const std::filesystem::path& path) {
  char* p = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, p + done, len - done, off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw DatasetIoError("cannot read " + path.string() + ": " +
                           std::strerror(errno));
    }
    if (n == 0) {
      throw store_corrupt("segment " + path.filename().string() +
                          ": truncated — the file ends before its recorded "
                          "payload");
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::filesystem::path& path) {
  if (::fsync(fd) != 0) {
    throw DatasetIoError("cannot fsync " + path.string() + ": " +
                         std::strerror(errno));
  }
}

void fsync_dir(const std::filesystem::path& dir) {
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

/// Writes @p bytes to @p path atomically — the manifest's only writer:
/// temp file in the same directory, fsync, rename, fsync of the
/// directory. Calls chaos::maybe_kill_during_save() as it goes so a
/// scheduled mid-save kill lands between chunks and leaves the old file
/// intact.
void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes) {
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const std::string tmp =
      path.string() + ".tmp." + std::to_string(::getpid());
  const auto fail = [&](const std::string& stage, int fd) -> DatasetIoError {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    return DatasetIoError("cannot " + stage + " " + tmp + ": " +
                          std::strerror(err));
  };
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw fail("create", -1);
  chaos::maybe_kill_during_save(0);  // a 0-byte schedule kills before data
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t chunk = std::min<std::size_t>(4096, bytes.size() - off);
    const ssize_t wrote = ::write(fd, bytes.data() + off, chunk);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throw fail("write", fd);
    }
    off += static_cast<std::size_t>(wrote);
    chaos::maybe_kill_during_save(off);
  }
  if (::fsync(fd) != 0) throw fail("fsync", fd);
  if (::close(fd) != 0) throw fail("close", -1);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw DatasetIoError("cannot rename " + tmp + " over " + path.string() +
                         ": " + std::strerror(err));
  }
  fsync_dir(dir);  // make the rename durable
}

std::string read_whole_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DatasetIoError("cannot open " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw DatasetIoError("cannot read " + path.string());
  }
  return std::move(buffer).str();
}

/// One read-only mapping of a whole segment file, alive as long as any
/// matrix adopted pages from it.
struct Mapping {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  Mapping(Mapping&& o) noexcept : data(o.data), size(o.size) {
    o.data = nullptr;
    o.size = 0;
  }
  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<std::byte*>(data), size);
    }
  }
};

/// Maps all of @p path; an empty file maps to an empty Mapping.
Mapping map_file(const std::filesystem::path& path) {
  const int fd = open_or_throw(path, O_RDONLY, 0);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw DatasetIoError("cannot stat " + path.string() + ": " +
                         std::strerror(err));
  }
  Mapping m;
  if (st.st_size == 0) {
    ::close(fd);
    return m;
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);
  if (addr == MAP_FAILED) {
    throw DatasetIoError("cannot mmap " + path.string() + ": " +
                         std::strerror(err));
  }
  m.data = static_cast<const std::byte*>(addr);
  m.size = size;
  return m;
}

struct RecordView {
  bool valid = false;
  std::int64_t time = 0;
  const std::byte* packed = nullptr;
  const double* phi = nullptr;  // Φ columns for global rows tri_base..g
};

RecordView parse_record(const std::byte* rec, std::size_t networks,
                        std::size_t bits) {
  RecordView v;
  v.valid = (load_u64le(rec) & 1) != 0;
  v.time = static_cast<std::int64_t>(load_u64le(rec + 8));
  // rec + 16 is the reserved word: a row id in stores written while
  // rows could patch from one another, never read.
  v.packed = rec + kRecordHeaderBytes;
  v.phi = reinterpret_cast<const double*>(
      v.packed + pad8(core::packed_row_bytes(networks, bits)));
  return v;
}

/// The one check of a segment file, whoever reads it — load(), verify(),
/// the roll-forward of a crashed seal. Maps @p path and
/// holds it to @p want, what the manifest records of it: magic and
/// version, every header byte (a sealed file's or a tail's, see
/// encode_segment_header), a size of exactly 128 + payload_bytes for a
/// sealed file and at least that for a tail (records written ahead of
/// the manifest may follow). Then walks the records, refusing the first
/// whose checksum disagrees and handing each verified one to
/// @p take(record, global row). decode_manifest() derived
/// want.payload_bytes from its rows, so the walk stays inside the map.
template <class Take>
Mapping check_segment(const std::filesystem::path& path,
                      const SegmentInfo& want, bool sealed,
                      std::size_t networks, Take&& take) {
  Mapping m = map_file(path);
  const std::string name = "segment " + path.filename().string() + ": ";
  if (m.size < kSegmentHeaderBytes ||
      std::memcmp(m.data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    throw store_corrupt(name +
                        "bad magic — not a fenrir segment file (expected it "
                        "to start with FENRSEG1)");
  }
  const auto version = static_cast<std::uint32_t>(
      load_u64le(m.data + sizeof(kSegmentMagic)));
  if (version != kSegmentVersion) {
    throw store_corrupt(name + "version skew — file is v" +
                        std::to_string(version) + ", this build reads v" +
                        std::to_string(kSegmentVersion));
  }
  if (std::memcmp(m.data, encode_segment_header(want, sealed, networks).data(),
                  kSegmentHeaderBytes) != 0) {
    throw store_corrupt(name +
                        "inconsistent — the header disagrees with the "
                        "manifest");
  }
  const std::size_t need =
      kSegmentHeaderBytes + static_cast<std::size_t>(want.payload_bytes);
  if (m.size < need) {
    throw store_corrupt(name +
                        "truncated — the file ends before its recorded "
                        "payload");
  }
  if (sealed && m.size > need) {
    throw store_corrupt(name + "trailing bytes after the recorded payload");
  }
  const auto bits = static_cast<std::size_t>(want.bits);
  const std::byte* rec = m.data + kSegmentHeaderBytes;
  for (std::uint64_t g = want.base_row; g < want.base_row + want.rows; ++g) {
    const std::size_t size = record_bytes(g, want.tri_base, networks, bits);
    if (record_checksum(rec, size) != load_u64le(rec) >> 32) {
      throw store_corrupt(name + "checksum mismatch at observation " +
                          std::to_string(g) +
                          " — the record is corrupt (bit rot or a partial "
                          "copy)");
    }
    take(rec, g);
    rec += size;
  }
  seg_metrics().checksum_verified.inc(want.rows);
  return m;
}

/// check_segment()'s @p take for a reader that only checks.
void skip_record(const std::byte*, std::uint64_t) {}

/// A modebook section's representatives: the section's width and
/// network count, and the mode count's packed rows, each padded to 8.
struct BookRows {
  std::size_t bits = 4;
  std::size_t networks = 0;
  std::size_t modes = 0;
  std::size_t stride = 0;  // bytes per padded row
  const unsigned char* rows = nullptr;
};

/// Reads the representatives that open a modebook section, refusing a
/// width that is not 4, 8, 16 or 32 bits and counts the rest of @p r
/// cannot hold. A row of no networks takes no bytes, so the mode count
/// is capped as if each row took one.
BookRows get_book_rows(Reader& r) {
  BookRows b;
  const std::uint64_t bits = r.get_u64();
  if (!valid_bits(bits)) {
    throw store_corrupt(
        "segment manifest: inconsistent — the modebook has packed width " +
        std::to_string(bits) + " bits, not 4, 8, 16, or 32");
  }
  b.bits = static_cast<std::size_t>(bits);
  const std::uint64_t networks = r.get_u64();
  if (networks > (r.size - r.off) * 8 / bits) {
    throw DatasetIoError(
        "segment manifest: malformed section — a count exceeds the recorded "
        "payload");
  }
  b.networks = static_cast<std::size_t>(networks);
  b.stride = pad8(core::packed_row_bytes(b.networks, b.bits));
  b.modes = r.get_count(std::max<std::size_t>(b.stride, 1));
  b.rows = r.take(b.modes * b.stride);
  return b;
}

/// Steps @p r over a modebook section, checking what restore() and the
/// first observe() would otherwise trip over: the representatives cover
/// the store's @p networks networks, and the history names only their
/// modes.
void check_modebook(Reader& r, std::size_t networks) {
  const BookRows b = get_book_rows(r);
  if (b.modes > 0 && b.networks != networks) {
    throw store_corrupt("segment manifest: inconsistent — the modebook "
                        "covers " +
                        std::to_string(b.networks) + " networks, the store " +
                        std::to_string(networks));
  }
  const std::size_t entries = r.get_count(8);
  for (std::size_t k = 0; k < entries; ++k) {
    if (r.get_u64() >= b.modes) {
      throw store_corrupt(
          "segment manifest: inconsistent — history entry " +
          std::to_string(k) + " names a mode past the " +
          std::to_string(b.modes) + " representatives");
    }
  }
}

/// Rebuilds the representatives and history from a modebook section
/// check_modebook() accepted.
void read_modebook(const std::string& section, core::PackedSeries& reps,
                   std::vector<std::size_t>& history) {
  Reader r{reinterpret_cast<const unsigned char*>(section.data()),
           section.size(), 0, "segment manifest"};
  const BookRows b = get_book_rows(r);
  if (b.modes > 0) reps.adopt_rows(b.networks, b.bits, {}, nullptr);
  for (std::size_t m = 0; m < b.modes; ++m) {
    if (b.networks == 0) {
      reps.append(core::RoutingVector{});
    } else {
      reps.append_packed(
          reinterpret_cast<const std::byte*>(b.rows + m * b.stride), b.bits);
    }
  }
  history.resize(r.get_count(8));
  for (std::size_t& h : history) h = static_cast<std::size_t>(r.get_u64());
}

std::uint64_t dataset_header_hash(const core::Dataset& dataset) {
  IdentityHash h;
  h.add(dataset.networks.size());
  h.add_words(dataset.networks.size(), [&](std::size_t id) {
    return dataset.networks.key(static_cast<core::NetId>(id));
  });
  h.add(dataset.weights.size());
  h.add_words(dataset.weights.size(), [&](std::size_t i) {
    return std::bit_cast<std::uint64_t>(dataset.weights[i]);
  });
  return h.finish();
}

std::uint64_t dataset_names_hash(const core::Dataset& dataset,
                                 std::uint64_t max_site) {
  IdentityHash h;
  h.add(max_site + 1);
  for (core::SiteId s = 0; s <= max_site; ++s) {
    const std::string& name = dataset.sites.name(s);
    h.add(name.size());
    h.add_bytes(name.data(), name.size());
  }
  return h.finish();
}

}  // namespace

// SegmentCodec is the segment store's window into SimilarityMatrix and
// PackedSeries private state: it reads rows out for spilling without
// widening either class's public API.
class SegmentCodec {
 public:
  static std::size_t networks(const core::SimilarityMatrix& m) {
    return m.packed_.networks_;
  }
  static std::size_t packed_bits(const core::SimilarityMatrix& m) {
    return m.packed_.bits_;
  }
  static const std::byte* packed_row(const core::SimilarityMatrix& m,
                                     std::size_t row) {
    return m.packed_.row_ptr(row);
  }
  /// The largest site id the matrix's rows were packed from — what the
  /// names hash must cover, without a pass over the vector.
  static core::SiteId max_packed_id(const core::SimilarityMatrix& m) {
    return m.packed_.max_id_;
  }
  /// Row @p row's Φ columns, settling the matrix's pending rows first.
  static const double* phi_row(const core::SimilarityMatrix& m,
                               std::size_t row) {
    m.settle();
    return m.values_.row(row);
  }
  /// Whether row @p row still waits for its Φ columns.
  static bool pending(const core::SimilarityMatrix& m, std::size_t row) {
    return row >= m.settle_.settled.load();
  }
  /// @p book's manifest section, encoded straight from its packed rows:
  /// u64 width in bits, u64 networks, u64 mode count, each packed row
  /// padded to 8; u64 history count, u64 per entry.
  static std::string encode_modebook(const core::ModeBook& book) {
    const core::PackedSeries& rows = book.packed_;
    std::string out;
    out.reserve(24 + rows.rows() * pad8(rows.row_bytes()) +
                8 * (1 + book.history().size()));
    put_u64(out, rows.bits_);
    put_u64(out, rows.networks_);
    put_u64(out, rows.rows());
    for (std::size_t m = 0; m < rows.rows(); ++m) {
      put_packed_row(out, rows.row_ptr(m), rows.networks_, rows.bits_);
    }
    put_u64(out, book.history().size());
    for (const std::size_t m : book.history()) put_u64(out, m);
    return out;
  }
};

// --- construction / recovery --------------------------------------------

SegmentStore::SegmentStore(std::filesystem::path dir, SegmentStoreConfig cfg)
    : dir_(std::move(dir)), cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw DatasetIoError("cannot open segment store " + dir_.string() +
                         ": " + (ec ? ec.message() : "not a directory"));
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  bool dirty = false;
  if (std::filesystem::exists(manifest_path())) {
    const std::string bytes = read_whole_file(manifest_path());
    decode_manifest(bytes);

    // Roll an interrupted lifecycle step forward. The manifest is the
    // source of truth; files only ever run *ahead* of it.
    if (tail_.has_value()) {
      const std::filesystem::path tp = tail_path(tail_->info.id);
      const std::filesystem::path sp = segment_path(tail_->info.id);
      const auto salvage = [&] {
        const SegmentInfo& t = tail_->info;
        obs::event_bus().emit(obs::Severity::kWarn, "segment_tail_salvaged",
                              "\"id\":" + std::to_string(t.id) +
                                  ",\"dropped_rows\":" +
                                  std::to_string(t.rows));
        FENRIR_LOG(Warn).field("id", t.id).field("dropped_rows", t.rows)
            << "torn tail dropped; sealed history retained";
        processed_ = t.base_row;
        std::error_code ec;
        std::filesystem::remove(tp, ec);
        tail_.reset();
        dirty = true;
      };
      // A seal interrupted after its header write (the file is still
      // tail-<id>) or after its rename (seg-<id>): the manifest still
      // lists the tail. Adopt the file once it checks out as that tail,
      // sealed — its rows the manifest's durable rows.
      const auto adopt_sealed = [&](const std::filesystem::path& p) {
        check_segment(p, tail_->info, true, networks_, skip_record);
        if (p != sp) {
          if (::rename(p.c_str(), sp.c_str()) != 0) {
            throw DatasetIoError("cannot rename " + p.string() + ": " +
                                 std::strerror(errno));
          }
          fsync_dir(dir_);
        }
        sealed_.push_back(tail_->info);
        tail_.reset();
        dirty = true;
      };
      if (std::filesystem::exists(tp)) {
        const int fd = open_or_throw(tp, O_RDWR, 0);
        struct stat st{};
        ::fstat(fd, &st);
        const std::size_t need =
            kSegmentHeaderBytes + tail_->info.payload_bytes;
        const bool torn = static_cast<std::size_t>(st.st_size) < need;
        std::byte head[16]{};  // magic, version, flags
        if (!torn) pread_all(fd, head, sizeof(head), 0, tp);
        if (torn) {
          ::close(fd);
          salvage();  // the protocol was violated below us — drop the tail
        } else if ((load_u64le(head + 8) >> 32 & kFlagSealed) != 0) {
          ::close(fd);
          adopt_sealed(tp);
        } else {
          // Drop any appended-but-unmanifested suffix.
          if (static_cast<std::size_t>(st.st_size) > need) {
            if (::ftruncate(fd, static_cast<off_t>(need)) != 0) {
              const int err = errno;
              ::close(fd);
              throw DatasetIoError("cannot truncate " + tp.string() + ": " +
                                   std::strerror(err));
            }
          }
          tail_->fd = fd;
        }
      } else if (std::filesystem::exists(sp)) {
        adopt_sealed(sp);
      } else {
        salvage();  // the tail vanished entirely
      }
    }
  }

  // Collect leftovers no committed state references: crashed atomic
  // writes, orphaned tails and segments, and the cmp-* merge output an
  // older build's compaction left when killed.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name == "MANIFEST") continue;
    bool referenced = false;
    if (tail_.has_value() && entry.path() == tail_path(tail_->info.id)) {
      referenced = true;
    }
    for (const SegmentInfo& s : sealed_) {
      if (entry.path() == segment_path(s.id)) referenced = true;
    }
    if (!referenced) {
      std::error_code ec;
      std::filesystem::remove(entry.path(), ec);
    }
  }
  if (dirty) write_manifest_locked();
  publish_status_locked();
}

SegmentStore::~SegmentStore() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (tail_.has_value() && tail_->fd >= 0) ::close(tail_->fd);
}

bool SegmentStore::looks_like_store(const std::filesystem::path& path) {
  return std::filesystem::is_directory(path) &&
         std::filesystem::exists(path / "MANIFEST");
}

std::filesystem::path SegmentStore::manifest_path() const {
  return dir_ / "MANIFEST";
}

std::filesystem::path SegmentStore::segment_path(std::uint64_t id) const {
  return dir_ / ("seg-" + std::to_string(id) + ".fenrseg");
}

std::filesystem::path SegmentStore::tail_path(std::uint64_t id) const {
  return dir_ / ("tail-" + std::to_string(id) + ".fenrseg");
}

// --- manifest -----------------------------------------------------------

std::string SegmentStore::encode_manifest_locked() const {
  std::string out;
  out.append(kManifestMagic, sizeof(kManifestMagic));
  put_u32(out, kManifestVersion);
  const std::size_t length_at = out.size();
  put_u64(out, 0);  // total length, patched below
  put_u8(out, identity_mode_);
  put_u8(out, policy_ == core::UnknownPolicy::kKnownOnly ? 1 : 0);
  put_u8(out, has_modebook_ ? 1 : 0);
  put_u8(out, configured_ ? 1 : 0);
  put_u64(out, header_hash_);
  put_u64(out, names_hash_);
  put_u64(out, max_site_seen_);
  put_u64(out, networks_);
  put_u64(out, weights_.size());
  put_u64_array(out, weights_.data(), weights_.size());
  put_u64(out, base_row_);
  put_u64(out, processed_);
  put_u64(out, next_segment_id_);
  put_i64(out, max_time_seen_);
  put_u64(out, sealed_.size());
  put_u8(out, tail_.has_value() ? 1 : 0);
  const auto put_entry = [&](const SegmentInfo& s) {
    put_u64(out, s.id);
    put_u64(out, s.base_row);
    put_u64(out, s.rows);
    put_u64(out, s.tri_base);
    put_u64(out, s.bits);
    put_u64(out, s.payload_bytes);
    put_i64(out, s.min_time);
    put_i64(out, s.max_time);
  };
  for (const SegmentInfo& s : sealed_) put_entry(s);
  if (tail_.has_value()) put_entry(tail_->info);
  if (has_modebook_) out.append(modebook_);
  patch_u64(out, length_at, out.size() + 4);  // the CRC trailer follows
  put_u32(out, payload_checksum(out.data(), out.size()));
  return out;
}

void SegmentStore::decode_manifest(const std::string& bytes) {
  if (bytes.size() < sizeof(kManifestMagic) ||
      std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) !=
          0) {
    throw store_corrupt(
        "segment manifest: bad magic — not a fenrir segment-store manifest "
        "(expected it to start with FENRMANI)");
  }
  if (bytes.size() < 24) {
    throw store_corrupt(
        "segment manifest: truncated — the file ends inside the header");
  }
  Reader r{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size(),
           sizeof(kManifestMagic), "segment manifest"};
  const std::uint32_t version = r.get_u32();
  if (version != kManifestVersion) {
    throw store_corrupt("segment manifest: version skew — file is v" +
                        std::to_string(version) + ", this build reads v" +
                        std::to_string(kManifestVersion));
  }
  const std::uint64_t total = r.get_u64();
  if (total > bytes.size()) {
    throw store_corrupt(
        "segment manifest: truncated — the file is shorter than its "
        "recorded length");
  }
  if (total < bytes.size()) {
    throw store_corrupt(
        "segment manifest: trailing bytes after the recorded length");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (stored_crc != payload_checksum(bytes.data(), bytes.size() - 4)) {
    throw store_corrupt(
        "segment manifest: checksum mismatch — the file is corrupt (bit "
        "rot or a partial copy)");
  }
  r.size = bytes.size() - 4;

  identity_mode_ = r.get_u8();
  if (identity_mode_ != kIdentityNone && identity_mode_ != kIdentityRows) {
    throw store_corrupt("segment manifest: inconsistent — identity mode " +
                        std::to_string(identity_mode_) + " is not 0 or 1");
  }
  policy_ = r.get_u8() != 0 ? core::UnknownPolicy::kKnownOnly
                            : core::UnknownPolicy::kPessimistic;
  has_modebook_ = r.get_u8() != 0;
  configured_ = r.get_u8() != 0;
  header_hash_ = r.get_u64();
  names_hash_ = r.get_u64();
  max_site_seen_ = r.get_u64();
  networks_ = static_cast<std::size_t>(r.get_u64());
  const std::size_t weight_count = r.get_count(8);
  weights_.resize(weight_count);
  r.get_u64_array(weights_.data(), weight_count);
  base_row_ = r.get_u64();
  processed_ = r.get_u64();
  next_segment_id_ = r.get_u64();
  max_time_seen_ = r.get_i64();
  // The entries — the sealed segments, then the tail — must tile the
  // retained window, and every payload is derived from its rows before
  // any record is read, so each record walk (load, verify, the seal
  // roll-forward) stays inside bytes the manifest accounts for.
  const std::size_t sealed_count = r.get_count(64);
  const bool has_tail = r.get_u8() != 0;
  std::uint64_t expect_base = base_row_;
  sealed_.clear();
  tail_.reset();
  for (std::size_t k = 0; k < sealed_count + (has_tail ? 1 : 0); ++k) {
    SegmentInfo s;
    s.id = r.get_u64();
    s.base_row = r.get_u64();
    s.rows = r.get_u64();
    s.tri_base = r.get_u64();
    s.bits = r.get_u64();
    s.payload_bytes = r.get_u64();
    s.min_time = r.get_i64();
    s.max_time = r.get_i64();
    const std::string what =
        k == sealed_count ? "the tail" : "segment " + std::to_string(s.id);
    if (s.base_row != expect_base || s.tri_base > base_row_ ||
        !valid_bits(s.bits)) {
      throw store_corrupt("segment manifest: inconsistent — " + what +
                          " does not continue the retained window");
    }
    const std::optional<std::uint64_t> want =
        derived_payload(s.base_row, s.rows, s.tri_base, networks_, s.bits);
    if (want != s.payload_bytes) {
      throw store_corrupt(
          "segment manifest: inconsistent — " + what + "'s payload of " +
          std::to_string(s.payload_bytes) + " bytes disagrees with its " +
          std::to_string(s.rows) + " rows of " + std::to_string(networks_) +
          " networks at " + std::to_string(s.bits) + " bits (" +
          (want ? std::to_string(*want) + " bytes" : "an impossible size") +
          ")");
    }
    expect_base = s.base_row + s.rows;
    if (k == sealed_count) {
      tail_ = TailState{s, s.rows};
    } else {
      sealed_.push_back(s);
    }
  }
  if (processed_ != expect_base) {
    throw store_corrupt(
        "segment manifest: inconsistent — processed count disagrees with "
        "the segment rows");
  }
  modebook_.clear();
  if (has_modebook_) {
    const std::size_t at = r.off;
    check_modebook(r, networks_);
    modebook_.assign(bytes, at, r.off - at);
  }
}

void SegmentStore::write_manifest_locked() {
  atomic_write_file(manifest_path(), encode_manifest_locked());
}

// --- identity / configuration ------------------------------------------

void SegmentStore::attach(const core::Dataset* dataset) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  dataset_ = dataset;
  if (dataset != nullptr && identity_mode_ == kIdentityNone) {
    identity_mode_ = kIdentityRows;
    header_hash_ = dataset_header_hash(*dataset);
    names_hash_stale_ = true;
  }
}

void SegmentStore::configure(core::UnknownPolicy policy,
                             std::vector<double> weights) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (processed_ != 0) {
    throw std::logic_error("SegmentStore::configure: store has rows");
  }
  policy_ = policy;
  weights_ = std::move(weights);
  configured_ = true;
}

void SegmentStore::refresh_names_hash_locked() {
  if (!names_hash_stale_ || dataset_ == nullptr) return;
  names_hash_ = dataset_names_hash(*dataset_, max_site_seen_);
  names_hash_stale_ = false;
}

// --- tail lifecycle -----------------------------------------------------

void SegmentStore::open_tail_locked(std::uint64_t bits) {
  TailState t;
  t.info.id = next_segment_id_++;
  t.info.base_row = processed_;
  t.info.tri_base = base_row_;
  t.info.bits = bits;
  const std::filesystem::path tp = tail_path(t.info.id);
  t.fd = open_or_throw(tp, O_RDWR | O_CREAT | O_TRUNC, 0644);
  const std::string header = encode_segment_header(t.info, false, networks_);
  pwrite_all(t.fd, header.data(), header.size(), 0, tp);
  fsync_or_throw(t.fd, tp);
  tail_ = t;
}

void SegmentStore::ensure_tail_locked(std::size_t networks,
                                      std::uint64_t bits) {
  if (networks_ == 0) networks_ = networks;
  if (networks != networks_) {
    throw std::invalid_argument("SegmentStore: network count mismatch");
  }
  if (tail_.has_value() && tail_->info.bits != bits) {
    if (tail_->rows > 0) {
      // The series widened mid-tail: records in one segment share one
      // width, so seal what we have and start a fresh tail.
      flush_locked(true);
    } else {
      ::close(tail_->fd);
      std::error_code ec;
      std::filesystem::remove(tail_path(tail_->info.id), ec);
      tail_.reset();
    }
  }
  if (tail_.has_value() && tail_->fd < 0) {
    tail_->fd = open_or_throw(tail_path(tail_->info.id), O_RDWR, 0);
  }
  if (!tail_.has_value()) open_tail_locked(bits);
}

void SegmentStore::append_record_locked(bool valid, std::int64_t time,
                                        std::size_t networks,
                                        std::uint64_t bits,
                                        std::span<const std::byte> packed,
                                        std::span<const double> phi) {
  if (!valid_bits(bits) ||
      packed.size() !=
          core::packed_row_bytes(networks, static_cast<std::size_t>(bits))) {
    throw std::invalid_argument(
        "SegmentStore: packed row is not networks elements of 4, 8, 16 or "
        "32 bits");
  }
  ensure_tail_locked(networks, bits);
  const std::uint64_t g = processed_;
  SegmentInfo& t = tail_->info;
  if (phi.size() != static_cast<std::size_t>(g - t.tri_base + 1)) {
    throw std::invalid_argument(
        "SegmentStore: phi span does not cover the retained window");
  }
  put_record(pending_, valid, time, packed.data(), networks,
             static_cast<std::size_t>(bits), phi);
  t.min_time = tail_->rows == 0 ? time : std::min(t.min_time, time);
  t.max_time = tail_->rows == 0 ? time : std::max(t.max_time, time);
  tail_->rows += 1;
  max_time_seen_ = std::max(max_time_seen_, time);
  processed_ += 1;
  // The record is accounted for first: if the write-through fails, the
  // bytes stay in pending_ and the next flush writes them at the same
  // offset.
  if (pending_.size() >= kWriteThroughBytes) {
    write_pending_locked();
    chaos::maybe_kill_at("segment_tail_write");
  }
}

void SegmentStore::write_pending_locked() {
  pwrite_all(tail_->fd, pending_.data(), pending_.size(),
             static_cast<off_t>(kSegmentHeaderBytes +
                                tail_->info.payload_bytes +
                                tail_->written_ahead),
             tail_path(tail_->info.id));
  tail_->written_ahead += pending_.size();
  pending_.clear();
}

void SegmentStore::spill(const core::RoutingVector& v,
                         const core::SimilarityMatrix& matrix) {
  if (matrix.size() == 0) {
    throw std::logic_error("SegmentStore::spill: matrix is empty");
  }
  spill_row(v, matrix, matrix.size() - 1);
}

void SegmentStore::spill_row(const core::RoutingVector& v,
                             const core::SimilarityMatrix& matrix,
                             std::size_t row) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (!configured_) {
    policy_ = matrix.policy();
    weights_ = matrix.weights();
    configured_ = true;
  }
  if (row >= matrix.size()) {
    throw std::logic_error("SegmentStore::spill_row: row out of range");
  }
  const std::uint64_t g = processed_ + queued_.size();
  if (g < row) {
    throw std::logic_error(
        "SegmentStore::spill: matrix is longer than the store's history");
  }
  const QueuedRow q{&matrix, row, g - row, v.valid, v.time};
  if (queued_.empty() && !SegmentCodec::pending(matrix, row)) {
    encode_locked(q);
  } else {
    queued_.push_back(q);
  }
}

void SegmentStore::encode_locked(const QueuedRow& q) {
  const core::SimilarityMatrix& matrix = *q.matrix;
  const std::size_t networks = SegmentCodec::networks(matrix);
  const std::size_t bits = SegmentCodec::packed_bits(matrix);
  // A rotation here writes a manifest for the rows before this one, so
  // the row's sites are counted only after it.
  ensure_tail_locked(networks, bits);
  const std::uint64_t top = SegmentCodec::max_packed_id(matrix);
  if (top > max_site_seen_) {
    max_site_seen_ = top;
    names_hash_stale_ = true;
  }
  // The tail stores Φ columns from its tri_base on; the matrix row holds
  // columns from the session base on. tri_base >= session_base always
  // (the base only advances), so the slice below is in range.
  const std::uint64_t tri_base = tail_->info.tri_base;
  const double* phi =
      SegmentCodec::phi_row(matrix, q.row) + (tri_base - q.session_base);
  const auto phi_count = static_cast<std::size_t>(processed_ - tri_base + 1);
  append_record_locked(q.valid, q.time, networks, bits,
                       {SegmentCodec::packed_row(matrix, q.row),
                        core::packed_row_bytes(networks, bits)},
                       {phi, phi_count});
}

void SegmentStore::drain_locked() {
  const std::uint64_t start = processed_;
  try {
    for (const QueuedRow& q : queued_) encode_locked(q);
  } catch (...) {
    // Every row counted in processed_ has its record encoded; the rest
    // stay queued for the next flush.
    queued_.erase(queued_.begin(),
                  queued_.begin() +
                      static_cast<std::ptrdiff_t>(processed_ - start));
    throw;
  }
  queued_.clear();
}

void SegmentStore::append_raw(bool valid, std::int64_t time,
                              std::size_t networks, std::size_t bits,
                              std::span<const std::byte> packed,
                              std::span<const double> phi) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  drain_locked();
  append_record_locked(valid, time, networks, bits, packed, phi);
}

void SegmentStore::flush(const core::ModeBook* book) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  // The book covers every row spilled so far. A width change inside the
  // queue rotates the tail, and the manifests of that rotation make only
  // earlier rows durable: they keep the previous flush's book, and this
  // one is stored once the queue is encoded.
  drain_locked();
  if (book != nullptr) {
    has_modebook_ = true;
    modebook_ = SegmentCodec::encode_modebook(*book);
  }
  flush_locked(false);
}

void SegmentStore::seal_active() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  drain_locked();
  flush_locked(true);
}

void SegmentStore::flush_locked(bool force_seal) {
  refresh_names_hash_locked();
  if (tail_.has_value() && tail_->info.rows < tail_->rows) {
    write_pending_locked();
    fsync_or_throw(tail_->fd, tail_path(tail_->info.id));
    SegMetrics& m = seg_metrics();
    m.tail_flush.inc();
    m.tail_bytes.inc(tail_->written_ahead);
    tail_->info.payload_bytes += tail_->written_ahead;
    tail_->written_ahead = 0;
    tail_->info.rows = tail_->rows;
    chaos::maybe_kill_at("segment_tail_flush");
  }
  write_manifest_locked();
  if (tail_.has_value() && tail_->info.rows > 0 &&
      (force_seal || tail_->info.rows >= cfg_.seal_rows)) {
    seal_tail_locked();
    std::vector<std::filesystem::path> retired;
    apply_retention_locked(retired);
    write_manifest_locked();
    for (const std::filesystem::path& p : retired) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
  publish_status_locked();
}

void SegmentStore::seal_tail_locked() {
  TailState& t = *tail_;
  const SegmentInfo info = t.info;
  const std::filesystem::path tp = tail_path(info.id);
  // Every record already carries its checksum: the seal is one header
  // write, so it reads nothing back, and a kill before the rename leaves
  // a complete sealed file the next open rolls forward.
  const std::string header = encode_segment_header(info, true, networks_);
  pwrite_all(t.fd, header.data(), header.size(), 0, tp);
  fsync_or_throw(t.fd, tp);
  ::close(t.fd);
  const std::filesystem::path sp = segment_path(info.id);
  if (::rename(tp.c_str(), sp.c_str()) != 0) {
    throw DatasetIoError("cannot rename " + tp.string() + " over " +
                         sp.string() + ": " + std::strerror(errno));
  }
  fsync_dir(dir_);
  chaos::maybe_kill_at("segment_seal_rename");
  sealed_.push_back(info);
  tail_.reset();
  seg_metrics().sealed.inc();
  obs::event_bus().emit(obs::Severity::kInfo, "segment_sealed",
                        "\"id\":" + std::to_string(info.id) +
                            ",\"rows\":" + std::to_string(info.rows) +
                            ",\"bytes\":" +
                            std::to_string(info.payload_bytes));
}

void SegmentStore::apply_retention_locked(
    std::vector<std::filesystem::path>& retired) {
  while (!sealed_.empty()) {
    const SegmentInfo& front = sealed_.front();
    bool retire = false;
    if (cfg_.retain_obs > 0 && processed_ > cfg_.retain_obs &&
        front.base_row + front.rows <= processed_ - cfg_.retain_obs) {
      retire = true;
    }
    if (!retire && cfg_.retain_seconds > 0 &&
        front.max_time < max_time_seen_ - cfg_.retain_seconds) {
      retire = true;
    }
    if (!retire) break;
    retired.push_back(segment_path(front.id));
    seg_metrics().retired.inc();
    sealed_.erase(sealed_.begin());
  }
  base_row_ = !sealed_.empty()
                  ? sealed_.front().base_row
                  : (tail_.has_value() ? tail_->info.base_row : processed_);
}

// --- accessors ----------------------------------------------------------

std::uint64_t SegmentStore::processed() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return processed_ + queued_.size();
}

std::uint64_t SegmentStore::base_row() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return base_row_;
}

std::uint64_t SegmentStore::tail_rows() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return tail_.has_value() ? tail_->rows : 0;
}

std::uint64_t SegmentStore::cold_bytes() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::uint64_t total = 0;
  for (const SegmentInfo& s : sealed_) {
    total += kSegmentHeaderBytes + s.payload_bytes;
  }
  return total;
}

bool SegmentStore::empty() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return processed_ == base_row_ && sealed_.empty() && queued_.empty() &&
         (!tail_.has_value() || tail_->rows == 0);
}

core::UnknownPolicy SegmentStore::policy() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return policy_;
}

const std::vector<double>& SegmentStore::weights() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return weights_;
}

std::vector<SegmentInfo> SegmentStore::segments() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return sealed_;
}

void SegmentStore::publish_status_locked() const {
  std::uint64_t cold = 0;
  for (const SegmentInfo& s : sealed_) {
    cold += kSegmentHeaderBytes + s.payload_bytes;
  }
  std::ostringstream os;
  os << "{\"segments\":" << sealed_.size()
     << ",\"tail_rows\":" << (tail_.has_value() ? tail_->rows : 0)
     << ",\"cold_bytes\":" << cold << ",\"base_row\":" << base_row_
     << ",\"processed\":" << processed_ << "}";
  obs::status_board().publish("storage", os.str());
}

// --- load ---------------------------------------------------------------

SegmentStore::Loaded SegmentStore::load(const core::Dataset* dataset) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  Loaded out{core::SimilarityMatrix(policy_, weights_, cfg_.threads),
             base_row_, processed_, has_modebook_, {}, {}};
  if (has_modebook_) {
    read_modebook(modebook_, out.representatives, out.history);
  }
  const std::uint64_t S = base_row_;
  const std::size_t retained = static_cast<std::size_t>(processed_ - S);

  if (dataset != nullptr && retained > 0) {
    if (processed_ > dataset->series.size()) {
      throw DatasetIoError(
          "segment store: state is ahead of the dataset — " +
          std::to_string(processed_) + " observations recorded, " +
          std::to_string(dataset->series.size()) +
          " present; pass the full dataset or start fresh");
    }
    if (identity_mode_ == kIdentityRows) {
      bool names_ok = true;
      try {
        names_ok =
            header_hash_ == dataset_header_hash(*dataset) &&
            names_hash_ == dataset_names_hash(*dataset, max_site_seen_);
      } catch (const std::out_of_range&) {
        names_ok = false;  // the store references sites the dataset lacks
      }
      if (!names_ok) {
        throw DatasetIoError(
            "segment store: identity mismatch — the dataset's networks, "
            "weights, or site names disagree with the ones this store "
            "was built from");
      }
    }
  }

  // What load() keeps alive behind the matrix: the sealed mappings.
  auto keep = std::make_shared<std::vector<Mapping>>();
  // Sealed pages are adopted in place when they share one width; tail
  // records, and every record of a mixed-width run, are copied after
  // them.
  const bool zero_copy =
      std::all_of(sealed_.begin(), sealed_.end(), [&](const SegmentInfo& s) {
        return s.bits == sealed_.front().bits;
      });
  core::SimilarityMatrix& matrix = out.matrix;
  const std::size_t adopt_bits = static_cast<std::size_t>(
      !sealed_.empty() ? sealed_.front().bits
                       : (tail_.has_value() ? tail_->info.bits : 4));
  std::vector<core::SimilarityMatrix::AdoptedRow> adopted;
  if (zero_copy) {
    adopted.reserve(retained);
  } else {
    matrix.adopt_rows(networks_, adopt_bits, {}, keep);
  }
  // Identity, exactly: a retained record must hold the dataset row it
  // stands for — its validity, its time, and that row packed at the
  // record's width into one reused scratch row, byte for byte. A row
  // whose ids do not fit the record's width cannot be in it. The record
  // has passed its checksum by now, so this refuses only intact records
  // of another dataset.
  std::vector<std::byte> scratch;
  const auto row_differs = [&](const RecordView& rec,
                               const core::RoutingVector& want,
                               std::size_t bits) -> const char* {
    if (rec.valid != want.valid) return "validity differs";
    if (rec.time != want.time) return "time differs";
    if (want.assignment.size() != networks_) return "network count differs";
    const std::size_t bytes = core::packed_row_bytes(networks_, bits);
    if (scratch.size() < bytes) scratch.resize(bytes);
    const core::SiteId top =
        core::pack_row(want.assignment.data(), networks_, bits,
                       scratch.data());
    if (core::packed_bits_for(top) > bits ||
        (bytes != 0 && std::memcmp(scratch.data(), rec.packed, bytes) != 0)) {
      return "site ids differ";
    }
    return nullptr;
  };
  const bool check_rows =
      dataset != nullptr && identity_mode_ == kIdentityRows;
  const auto take_record = [&](const std::byte* rec, std::uint64_t g,
                               const SegmentInfo& seg, bool in_tail) {
    const auto bits = static_cast<std::size_t>(seg.bits);
    const RecordView v = parse_record(rec, networks_, bits);
    if (check_rows) {
      if (const char* field = row_differs(
              v, dataset->series[static_cast<std::size_t>(g)], bits)) {
        throw DatasetIoError(
            "segment store: row mismatch at observation " +
            std::to_string(g) + " (its " + field +
            ") — the dataset is not the one this store was built from");
      }
    }
    core::SimilarityMatrix::AdoptedRow row;
    row.valid = v.valid;
    // The record's Φ span starts at the segment's tri_base; the matrix
    // row starts at the store's base. tri_base <= S always.
    const std::size_t skip = static_cast<std::size_t>(S - seg.tri_base);
    row.packed = v.packed;
    row.phi = v.phi + skip;
    if (zero_copy && !in_tail) {
      adopted.push_back(row);
    } else {
      matrix.append_precomputed(row, bits);
    }
  };

  for (const SegmentInfo& s : sealed_) {
    Mapping m = check_segment(
        segment_path(s.id), s, true, networks_,
        [&](const std::byte* rec, std::uint64_t g) {
          take_record(rec, g, s, false);
        });
    seg_metrics().mmap_bytes.inc(m.size);
    keep->push_back(std::move(m));
  }
  if (zero_copy && retained > 0) {
    matrix.adopt_rows(networks_, adopt_bits, adopted, keep);
  }
  if (tail_.has_value()) {
    // Tail records are copied, so the tail's mapping ends here.
    const SegmentInfo& t = tail_->info;
    check_segment(tail_path(t.id), t, false, networks_,
                  [&](const std::byte* rec, std::uint64_t g) {
                    take_record(rec, g, t, true);
                  });
  }
  if (matrix.size() != retained) {
    throw store_corrupt(
        "segment store: inconsistent — reconstructed " +
        std::to_string(matrix.size()) + " rows, manifest promised " +
        std::to_string(retained));
  }
  FENRIR_LOG(Debug)
          .field("rows", retained)
          .field("segments", sealed_.size())
          .field("zero_copy", zero_copy ? 1 : 0)
      << "segment store loaded";
  return out;
}

// --- verify -------------------------------------------------------------

bool SegmentStore::verify(std::string* error) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  try {
    for (const SegmentInfo& s : sealed_) {
      check_segment(segment_path(s.id), s, true, networks_, skip_record);
    }
    if (tail_.has_value()) {
      check_segment(tail_path(tail_->info.id), tail_->info, false, networks_,
                    skip_record);
    }
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace fenrir::io
