#include "core/dataset_io.h"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <string_view>

#include "io/csv.h"
#include "io/table.h"
#include "obs/log.h"

namespace fenrir::core {

namespace {

constexpr const char* kMagic = "#fenrir-dataset";
constexpr const char* kVersion = "v1";

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw DatasetIoError("bad network key: " + std::string(text));
  }
  return out;
}

double parse_double(std::string_view view) {
  const std::string text(view);
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) throw DatasetIoError("bad weight: " + text);
    return v;
  } catch (const std::exception&) {
    throw DatasetIoError("bad weight: " + text);
  }
}

/// Site ids by name for one load, in front of the SiteTable. A name of
/// up to 7 bytes ("unknown", an IATA code) packs with its length into
/// one 8-byte key, so a lookup is a multiply and a compare rather than
/// a string hash. Longer names, and a slot's first use, go to the table.
class SiteCache {
 public:
  explicit SiteCache(SiteTable& sites) : sites_(sites) {}

  SiteId intern(std::string_view name) {
    const std::size_t n = name.size();
    if (n > 7) return sites_.intern(name);
    // Both packings are computed, from loads that stay inside the name
    // or read kZeros, and masks on the length pick one: a branch there
    // would mispredict, as cells alternate between 3 bytes ("LAX") and
    // 7 ("unknown").
    static constexpr unsigned char kZeros[4] = {};
    const std::uint64_t wide = 0 - std::uint64_t{n >= 4};
    const std::uint64_t some = 0 - std::uint64_t{n != 0};
    const auto zeros = reinterpret_cast<std::uintptr_t>(kZeros);
    const auto bytes = reinterpret_cast<std::uintptr_t>(name.data());
    // 4-7 bytes: two 4-byte loads that overlap inside the name; shifted
    // into place, the shared bytes coincide, so the key holds the
    // name's bytes in order (hosts are little-endian, compare_kernels.h).
    const auto* w =
        reinterpret_cast<const unsigned char*>(zeros ^ ((zeros ^ bytes) & wide));
    const std::size_t shift = (n - 4) & wide;
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, w, 4);
    std::memcpy(&hi, w + shift, 4);
    const std::uint64_t four = lo | std::uint64_t{hi} << (8 * shift);
    // 1-3 bytes: the first, middle and last byte are all of them.
    const auto* t =
        reinterpret_cast<const unsigned char*>(zeros ^ ((zeros ^ bytes) & some));
    const std::size_t last = (n - 1) & some;
    const std::uint64_t three =
        t[0] | std::uint64_t{t[n / 2]} << 8 | std::uint64_t{t[last]} << 16;
    const std::uint64_t key =
        std::uint64_t{n} << 56 | (four & wide) | (three & ~wide);
    Slot& slot = slots_[(key * 0x9E3779B97F4A7C15ull) >> 56];
    if (slot.key != key) slot = {key, sites_.intern(name)};
    return slot.id;
  }

 private:
  struct Slot {
    std::uint64_t key = ~std::uint64_t{0};  // no name packs to this
    SiteId id = 0;
  };
  SiteTable& sites_;
  std::array<Slot, 256> slots_{};
};

}  // namespace

void save_dataset(const Dataset& dataset, std::ostream& out) {
  try {
    dataset.check_consistent();
  } catch (const std::invalid_argument& e) {
    throw DatasetIoError(std::string("refusing to save: ") + e.what());
  }
  io::CsvWriter csv(out);
  csv.row(kMagic, kVersion);
  csv.row("name", dataset.name);
  if (!dataset.weights.empty()) {
    std::vector<std::string> row{"weights"};
    for (const double w : dataset.weights) row.push_back(io::fixed(w, 6));
    csv.write_row(row);
  }
  {
    std::vector<std::string> head{"time", "valid"};
    for (NetId n = 0; n < dataset.networks.size(); ++n) {
      head.push_back(std::to_string(dataset.networks.key(n)));
    }
    csv.write_row(head);
  }
  for (const RoutingVector& v : dataset.series) {
    std::vector<std::string> row{format_time(v.time), v.valid ? "1" : "0"};
    for (const SiteId s : v.assignment) {
      row.push_back(dataset.sites.name(s));
    }
    csv.write_row(row);
  }
}

Dataset load_dataset(std::istream& in, const LoadOptions& options,
                     LoadStats* stats) {
  // One pass from bytes to site ids: each row is checked where it lies
  // in the reader's buffer and its cells are interned from their views,
  // so the file is never held whole and no cell becomes a std::string.
  io::CsvReader csv(in);
  std::span<const std::string_view> row;
  std::size_t line = 0;  // rows read so far; the current row's number
  // An unterminated quote runs to the end of the input, so it can only
  // be the last row, and it is reported where it stands in file order.
  const auto next = [&] {
    try {
      if (!csv.next()) return false;
    } catch (const io::CsvError&) {
      throw DatasetIoError("unterminated quoted field at line " +
                           std::to_string(line + 1));
    }
    row = csv.row();
    ++line;
    return true;
  };

  if (!next() || row.size() < 2 || row[0] != kMagic) {
    throw DatasetIoError("not a fenrir dataset (bad magic)");
  }
  const std::string version(row[1]);
  if (!next()) throw DatasetIoError("not a fenrir dataset (bad magic)");
  if (version != kVersion) {
    throw DatasetIoError("unsupported dataset version " + version);
  }

  LoadStats local;
  Dataset d;
  bool more = true;
  if (row[0] == "name") {
    if (row.size() != 2) throw DatasetIoError("malformed name row");
    d.name = row[1];
    more = next();
  }
  if (more && row[0] == "weights") {
    try {
      for (std::size_t i = 1; i < row.size(); ++i) {
        d.weights.push_back(parse_double(row[i]));
      }
    } catch (const DatasetIoError&) {
      if (!options.lenient) throw;
      d.weights.clear();
      local.weights_dropped = true;
    }
    more = next();
  }
  if (!more || row.size() < 2 || row[0] != "time" || row[1] != "valid") {
    throw DatasetIoError("missing header row");
  }
  const std::size_t columns = row.size();
  // The columns whose cells are kept: a repeated network key is dropped
  // leniently (first wins); strict mode interns duplicates and lets
  // check_consistent reject the resulting size mismatch, preserving the
  // historical behavior.
  std::vector<std::size_t> kept;
  for (std::size_t i = 2; i < columns; ++i) {
    const std::uint64_t key = parse_u64(row[i]);
    if (options.lenient && d.networks.find(key)) {
      ++local.duplicate_networks;
      continue;
    }
    d.networks.intern(key);
    kept.push_back(i);
  }
  if (options.lenient && !d.weights.empty() &&
      d.weights.size() != d.networks.size()) {
    d.weights.clear();
    local.weights_dropped = true;
  }

  SiteCache sites(d.sites);

  for (;;) {
    try {
      if (!next()) break;
    } catch (const DatasetIoError&) {
      // The file was cut inside a quoted field: the rows before it stand.
      if (!options.lenient) throw;
      ++local.ragged_rows;
      break;
    }
    if (row.size() != columns) {
      if (options.lenient) {
        ++local.ragged_rows;
        continue;
      }
      throw DatasetIoError("ragged row at line " + std::to_string(line));
    }
    RoutingVector v;
    const auto t = parse_time(row[0]);
    if (!t) {
      if (options.lenient) {
        ++local.bad_times;
        continue;
      }
      throw DatasetIoError("bad time: " + std::string(row[0]));
    }
    v.time = *t;
    if (options.lenient && !d.series.empty() && v.time < d.series.back().time) {
      ++local.out_of_order_rows;
      continue;
    }
    if (row[1] != "0" && row[1] != "1") {
      if (options.lenient) {
        ++local.bad_valid_flags;
        continue;
      }
      throw DatasetIoError("bad valid flag: " + std::string(row[1]));
    }
    v.valid = row[1] == "1";
    v.assignment.resize(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
      v.assignment[k] = sites.intern(row[kept[k]]);
    }
    d.series.push_back(std::move(v));
  }
  local.rows_kept = d.series.size();

  // One warning per damage category, not per row — a damaged multi-year
  // archive must not produce a million-line log.
  if (local.ragged_rows != 0) {
    FENRIR_LOG(Warn).field("count", local.ragged_rows)
        << "lenient load: skipped ragged rows";
  }
  if (local.bad_times != 0) {
    FENRIR_LOG(Warn).field("count", local.bad_times)
        << "lenient load: skipped rows with unparsable times";
  }
  if (local.out_of_order_rows != 0) {
    FENRIR_LOG(Warn).field("count", local.out_of_order_rows)
        << "lenient load: skipped out-of-order rows";
  }
  if (local.bad_valid_flags != 0) {
    FENRIR_LOG(Warn).field("count", local.bad_valid_flags)
        << "lenient load: skipped rows with bad valid flags";
  }
  if (local.duplicate_networks != 0) {
    FENRIR_LOG(Warn).field("count", local.duplicate_networks)
        << "lenient load: dropped duplicate network-key columns";
  }
  if (local.weights_dropped) {
    FENRIR_LOG(Warn) << "lenient load: dropped unusable weights row";
  }
  if (stats != nullptr) *stats = local;

  try {
    d.check_consistent();
  } catch (const std::invalid_argument& e) {
    throw DatasetIoError(std::string("inconsistent dataset: ") + e.what());
  }
  return d;
}

void save_dataset_file(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw DatasetIoError("cannot open " + path + " for writing");
  save_dataset(dataset, out);
  if (!out) throw DatasetIoError("write failed: " + path);
}

Dataset load_dataset_file(const std::string& path, const LoadOptions& options,
                          LoadStats* stats) {
  std::ifstream in(path);
  if (!in) throw DatasetIoError("cannot open " + path);
  return load_dataset(in, options, stats);
}

}  // namespace fenrir::core
