#include "io/csv.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string_view>
#include <type_traits>

#include "obs/trace.h"

namespace stpt::io {
namespace {

// Readers pull the stream in blocks of this size, so a file of any size
// costs at most one block of buffer memory.
constexpr size_t kBlockBytes = size_t{1} << 20;

// Splits a stream into rows: one memchr per row over the current block, the
// partial last row carried over into the next block. One trailing '\r' is
// stripped, so CRLF files read the same.
class RowScanner {
 public:
  explicit RowScanner(std::istream& in) : in_(in), buf_(new char[kBlockBytes]) {}

  // Stores the next row in *row, skipping empty ones when `skip_blank`. False
  // at the end of the input, or with too_long() set at a row (newline
  // included) that does not fit in one block.
  bool Next(std::string_view* row, bool skip_blank = true) {
    for (;;) {
      char* const first = buf_.get() + begin_;
      const size_t avail = end_ - begin_;
      const auto* nl = static_cast<const char*>(std::memchr(first, '\n', avail));
      if (nl != nullptr || (eof_ && avail > 0)) {
        const size_t len = nl != nullptr ? static_cast<size_t>(nl - first) : avail;
        begin_ += len + (nl != nullptr);
        ++line_no_;
        if (len == 0 && skip_blank) continue;
        *row = std::string_view(first, len - (len > 0 && first[len - 1] == '\r'));
        return true;
      }
      if (eof_ || (too_long_ = avail == kBlockBytes)) return false;
      std::memmove(buf_.get(), first, avail);
      in_.read(buf_.get() + avail, static_cast<std::streamsize>(kBlockBytes - avail));
      begin_ = 0;
      end_ = avail + static_cast<size_t>(in_.gcount());
      eof_ = end_ < kBlockBytes;
    }
  }

  // A failure at the current row (or at the overlong row the scan stopped at).
  Status Error(const char* what, StatusCode code = StatusCode::kInvalidArgument) const {
    return Status(code, std::string(what) + " at line " +
                            std::to_string(line_no_ + too_long_));
  }
  // Why the last Next() returned false, if not the end of the input.
  Status status(const char* what) const { return too_long_ ? Error(what) : Status::OK(); }

 private:
  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  size_t begin_ = 0, end_ = 0, line_no_ = 0;
  bool eof_ = false, too_long_ = false;
};

// Parses one field starting at *p; it must end exactly at ',' (or, for the
// last field, at the end of the row). Doubles round as strtod does, and
// values strtod flags ERANGE (overflow, underflow, subnormal) are refused,
// so every accepted file reads the same under std::stod.
template <typename T>
bool ParseField(const char*& p, const char* end, T& value, bool last) {
  const auto [q, ec] = std::from_chars(p, end, value);
  if (ec != std::errc() || (last ? q != end : (q == end || *q != ','))) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (std::fpclassify(value) == FP_SUBNORMAL) return false;
  }
  p = q + 1;
  return true;
}

template <typename... T>
bool ParseRow(std::string_view row, T&... values) {
  const char* p = row.data();
  size_t left = sizeof...(T);
  return (ParseField(p, row.data() + row.size(), values, --left == 0) && ...);
}

size_t Commas(std::string_view row) { return std::count(row.begin(), row.end(), ','); }

// Formats one number: doubles as %.17g (the same text as an ostream at
// setprecision(17)), integers in decimal; 32 bytes fit either.
char* Put(char* p, double v) {
  return std::to_chars(p, p + 32, v, std::chars_format::general, 17).ptr;
}
char* Put(char* p, std::integral auto v) { return std::to_chars(p, p + 32, v).ptr; }

template <typename... T>
void PutRow(std::ostream& out, const T&... values) {
  char row[32 * sizeof...(T)];
  char* p = row;
  ((p = Put(p, values), *p++ = ','), ...);
  p[-1] = '\n';
  out.write(row, p - row);
}

}  // namespace

Status WriteMatrixCsv(const grid::ConsumptionMatrix& matrix,
                      const std::string& path) {
  obs::Span span("io/write_matrix_csv");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("WriteMatrixCsv: cannot open " + path);
  out << "x,y,t,value\n";
  const grid::Dims& dims = matrix.dims();
  for (int x = 0; x < dims.cx; ++x) {
    for (int y = 0; y < dims.cy; ++y) {
      for (int t = 0; t < dims.ct; ++t) {
        PutRow(out, x, y, t, matrix.at(x, y, t));
      }
    }
  }
  out.flush();
  if (!out) return Status::Internal("WriteMatrixCsv: write failed for " + path);
  return Status::OK();
}

StatusOr<grid::ConsumptionMatrix> ReadMatrixCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("ReadMatrixCsv: cannot open " + path);
  return ReadMatrixCsv(in);
}

StatusOr<grid::ConsumptionMatrix> ReadMatrixCsv(std::istream& in) {
  obs::Span span("io/read_matrix_csv");
  RowScanner rows(in);
  std::string_view row;
  if (!rows.Next(&row, false) || Commas(row) != 3) {
    return Status::InvalidArgument("ReadMatrixCsv: missing x,y,t,value header");
  }
  struct Cell {
    int x, y, t;
    double v;
  };
  std::vector<Cell> cells;
  int max_x = -1, max_y = -1, max_t = -1;
  while (rows.Next(&row)) {
    Cell c{};
    if (!ParseRow(row, c.x, c.y, c.t, c.v)) return rows.Error("ReadMatrixCsv: parse error");
    if (c.x < 0 || c.y < 0 || c.t < 0) return rows.Error("ReadMatrixCsv: negative index");
    if (c.x >= kMaxCsvAxis || c.y >= kMaxCsvAxis || c.t >= kMaxCsvAxis) {
      return rows.Error("ReadMatrixCsv: index exceeds axis limit");
    }
    if (!std::isfinite(c.v)) return rows.Error("ReadMatrixCsv: non-finite value");
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
    max_t = std::max(max_t, c.t);
    cells.push_back(c);
  }
  STPT_RETURN_IF_ERROR(rows.status("ReadMatrixCsv: row longer than the read block"));
  if (cells.empty()) return Status::InvalidArgument("ReadMatrixCsv: no data rows");
  // Check that the rows fill the inferred dims *before* allocating the
  // matrix: a single hostile row like "999999,999999,999999,1" must not
  // drive an allocation sized by its indices. Indices are < kMaxCsvAxis,
  // so the product fits in int64 with no overflow.
  const int64_t expected = int64_t{max_x + 1} * int64_t{max_y + 1} * int64_t{max_t + 1};
  if (static_cast<int64_t>(cells.size()) != expected) {
    return Status::InvalidArgument("ReadMatrixCsv: cell count does not fill matrix");
  }
  auto matrix_or = grid::ConsumptionMatrix::Create({max_x + 1, max_y + 1, max_t + 1});
  STPT_RETURN_IF_ERROR(matrix_or.status());
  grid::ConsumptionMatrix matrix = std::move(matrix_or).value();
  // Count matching dims does not imply coverage: a duplicated cell plus a
  // missing one has the right count but silently corrupts the release.
  std::vector<uint8_t> seen(matrix.size(), 0);
  for (const Cell& c : cells) {
    const size_t idx =
        (static_cast<size_t>(c.x) * (max_y + 1) + c.y) * (max_t + 1) + c.t;
    if (seen[idx]) {
      return Status::InvalidArgument("ReadMatrixCsv: duplicate cell (" +
                                     std::to_string(c.x) + "," + std::to_string(c.y) +
                                     "," + std::to_string(c.t) + ")");
    }
    seen[idx] = 1;
    matrix.set(c.x, c.y, c.t, c.v);
  }
  return matrix;
}

Status WriteDatasetCsv(const datagen::SyntheticDataset& dataset,
                       const std::string& path) {
  obs::Span span("io/write_dataset_csv");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("WriteDatasetCsv: cannot open " + path);
  const auto& s = dataset.spec;
  out << "# " << s.name << ',';
  PutRow(out, s.num_households, s.mean_kwh, s.std_kwh, s.max_kwh, s.clip_factor,
         dataset.grid_x, dataset.grid_y, dataset.hours);
  out << "household,cell_x,cell_y,hour,kwh\n";
  for (size_t h = 0; h < dataset.households.size(); ++h) {
    const auto& house = dataset.households[h];
    for (int t = 0; t < dataset.hours; ++t) {
      PutRow(out, h, house.cell_x, house.cell_y, t, house.series[t]);
    }
  }
  out.flush();
  if (!out) return Status::Internal("WriteDatasetCsv: write failed for " + path);
  return Status::OK();
}

StatusOr<datagen::SyntheticDataset> ReadDatasetCsv(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("ReadDatasetCsv: cannot open " + path);
  return ReadDatasetCsv(in);
}

StatusOr<datagen::SyntheticDataset> ReadDatasetCsv(std::istream& in) {
  obs::Span span("io/read_dataset_csv");
  RowScanner rows(in);
  std::string_view row;
  if (!rows.Next(&row, false) || row.size() < 3 || row[0] != '#') {
    return Status::InvalidArgument("ReadDatasetCsv: missing spec comment line");
  }
  // `# name,num_households,mean,std,max,clip,grid_x,grid_y,hours`
  row.remove_prefix(2);
  const size_t name_end = row.find(',');
  if (name_end == std::string_view::npos || Commas(row) != 8) {
    return Status::InvalidArgument("ReadDatasetCsv: bad spec line");
  }
  datagen::SyntheticDataset ds;
  ds.spec.name = std::string(row.substr(0, name_end));
  if (!ParseRow(row.substr(name_end + 1), ds.spec.num_households, ds.spec.mean_kwh,
                ds.spec.std_kwh, ds.spec.max_kwh, ds.spec.clip_factor, ds.grid_x,
                ds.grid_y, ds.hours)) {
    return Status::InvalidArgument("ReadDatasetCsv: spec parse error");
  }
  if (ds.spec.num_households <= 0 || ds.hours <= 0) {
    return Status::InvalidArgument("ReadDatasetCsv: non-positive spec values");
  }
  if (ds.grid_x <= 0 || ds.grid_y <= 0) {
    return Status::InvalidArgument("ReadDatasetCsv: non-positive grid dimensions");
  }
  if (ds.grid_x > kMaxCsvAxis || ds.grid_y > kMaxCsvAxis || ds.hours > kMaxCsvAxis) {
    return Status::InvalidArgument("ReadDatasetCsv: spec dimensions exceed axis limit");
  }
  if (!std::isfinite(ds.spec.mean_kwh) || !std::isfinite(ds.spec.std_kwh) ||
      !std::isfinite(ds.spec.max_kwh) || !std::isfinite(ds.spec.clip_factor)) {
    return Status::InvalidArgument("ReadDatasetCsv: non-finite spec statistics");
  }
  // Cap the header-declared sizes before the resize below: this allocation
  // is driven entirely by a line of untrusted text.
  if (ds.spec.num_households > kMaxCsvHouseholds ||
      int64_t{ds.spec.num_households} * int64_t{ds.hours} > kMaxCsvReadings) {
    return Status::InvalidArgument(
        "ReadDatasetCsv: households x hours exceeds reader limit");
  }
  try {
    ds.households.resize(ds.spec.num_households);
    for (auto& h : ds.households) h.series.assign(ds.hours, 0.0);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("ReadDatasetCsv: cannot allocate dataset");
  }

  if (!rows.Next(&row, false) || Commas(row) != 4) {
    return Status::InvalidArgument("ReadDatasetCsv: missing data header");
  }
  while (rows.Next(&row)) {
    int h = 0, cx = 0, cy = 0, t = 0;
    double kwh = 0;
    if (!ParseRow(row, h, cx, cy, t, kwh)) return rows.Error("ReadDatasetCsv: parse error");
    if (h < 0 || h >= ds.spec.num_households || t < 0 || t >= ds.hours) {
      return rows.Error("ReadDatasetCsv: index out of range", StatusCode::kOutOfRange);
    }
    if (cx < 0 || cx >= ds.grid_x || cy < 0 || cy >= ds.grid_y) {
      return rows.Error("ReadDatasetCsv: cell outside grid", StatusCode::kOutOfRange);
    }
    if (!std::isfinite(kwh)) return rows.Error("ReadDatasetCsv: non-finite reading");
    ds.households[h].cell_x = cx;
    ds.households[h].cell_y = cy;
    ds.households[h].series[t] = kwh;
  }
  STPT_RETURN_IF_ERROR(rows.status("ReadDatasetCsv: row longer than the read block"));
  return ds;
}

Status WriteTableCsv(const std::vector<std::string>& headers,
                     const std::vector<std::vector<double>>& rows,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("WriteTableCsv: cannot open " + path);
  for (size_t i = 0; i < headers.size(); ++i) {
    out << (i > 0 ? "," : "") << headers[i];
  }
  out << '\n';
  for (const auto& row : rows) {
    if (row.size() != headers.size()) {
      return Status::InvalidArgument("WriteTableCsv: row width mismatch");
    }
    for (size_t i = 0; i < row.size(); ++i) {
      char cell[32];
      if (i > 0) out << ',';
      out.write(cell, Put(cell, row[i]) - cell);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::Internal("WriteTableCsv: write failed for " + path);
  return Status::OK();
}

}  // namespace stpt::io
