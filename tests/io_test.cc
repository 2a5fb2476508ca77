#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/flags.h"
#include "common/rng.h"
#include "datagen/dataset.h"
#include "fuzz/fuzz_util.h"
#include "gtest/gtest.h"
#include "io/csv.h"

namespace stpt {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("stpt_io_test_" + name))
      .string();
}

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : created_) std::remove(p.c_str());
  }
  std::string Make(const std::string& name) {
    const std::string p = TempPath(name);
    created_.push_back(p);
    return p;
  }
  std::vector<std::string> created_;
};

// --------------------------- Matrix CSV ---------------------------

TEST_F(CsvTest, MatrixRoundTrip) {
  Rng rng(1);
  auto m = grid::ConsumptionMatrix::Create({3, 4, 5});
  ASSERT_TRUE(m.ok());
  for (auto& v : m->mutable_data()) v = rng.Uniform(0, 100);
  const std::string path = Make("matrix.csv");
  ASSERT_TRUE(io::WriteMatrixCsv(*m, path).ok());
  auto back = io::ReadMatrixCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dims(), m->dims());
  for (size_t i = 0; i < m->data().size(); ++i) {
    EXPECT_NEAR(back->data()[i], m->data()[i], 1e-9);
  }
}

TEST_F(CsvTest, ReadMatrixRejectsMissingFile) {
  EXPECT_EQ(io::ReadMatrixCsv(TempPath("nonexistent.csv")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(CsvTest, ReadMatrixRejectsBadHeader) {
  const std::string path = Make("badheader.csv");
  std::ofstream(path) << "a,b\n0,0,0,1\n";
  EXPECT_FALSE(io::ReadMatrixCsv(path).ok());
}

TEST_F(CsvTest, ReadMatrixRejectsIncompleteGrid) {
  const std::string path = Make("incomplete.csv");
  // Max indices imply 2x1x1 but only one row present.
  std::ofstream(path) << "x,y,t,value\n1,0,0,3.5\n";
  EXPECT_FALSE(io::ReadMatrixCsv(path).ok());
}

TEST_F(CsvTest, ReadMatrixRejectsGarbageValues) {
  const std::string path = Make("garbage.csv");
  std::ofstream(path) << "x,y,t,value\n0,0,0,notanumber\n";
  EXPECT_FALSE(io::ReadMatrixCsv(path).ok());
}

TEST_F(CsvTest, ReadMatrixRejectsNegativeIndex) {
  const std::string path = Make("negative.csv");
  std::ofstream(path) << "x,y,t,value\n-1,0,0,1.0\n";
  EXPECT_FALSE(io::ReadMatrixCsv(path).ok());
}

TEST_F(CsvTest, MatrixHugeDimsRejectedWithoutAllocation) {
  // Regression for fuzz/corpus/csv/crash-matrix-huge-dims.csv: a single
  // hostile row used to size the matrix from its max indices (~1e18
  // cells) before checking the row count, aborting on bad_alloc. The
  // count-vs-dims check must fire before any allocation.
  std::istringstream in("x,y,t,value\n999999,999999,999999,1\n");
  auto m = io::ReadMatrixCsv(in);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, MatrixIndexAboveAxisCapRejected) {
  std::istringstream in("x,y,t,value\n1048576,0,0,1\n");  // kMaxCsvAxis
  auto m = io::ReadMatrixCsv(in);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("axis limit"), std::string::npos);
}

TEST_F(CsvTest, MatrixDuplicateCellRejected) {
  // Two rows for cell (1,0,0) and none for (0,0,0): the count matches the
  // inferred 2x1x1 dims, so only the duplicate bitmap catches the corruption.
  std::istringstream in("x,y,t,value\n1,0,0,1\n1,0,0,2\n");
  auto m = io::ReadMatrixCsv(in);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("duplicate"), std::string::npos);
}

TEST_F(CsvTest, MatrixNanValueRejected) {
  std::istringstream in("x,y,t,value\n0,0,0,nan\n");
  auto m = io::ReadMatrixCsv(in);
  ASSERT_FALSE(m.ok());
  EXPECT_NE(m.status().message().find("non-finite"), std::string::npos);
}

TEST_F(CsvTest, MatrixStreamAndPathReadersAgree) {
  Rng rng(9);
  auto m = grid::ConsumptionMatrix::Create({2, 3, 4});
  ASSERT_TRUE(m.ok());
  for (auto& v : m->mutable_data()) v = rng.Uniform(-5, 5);
  const std::string path = Make("stream_agree.csv");
  ASSERT_TRUE(io::WriteMatrixCsv(*m, path).ok());
  auto from_path = io::ReadMatrixCsv(path);
  std::ifstream file(path);
  std::stringstream buf;
  buf << file.rdbuf();
  std::istringstream stream_in(buf.str());
  auto from_stream = io::ReadMatrixCsv(stream_in);
  ASSERT_TRUE(from_path.ok());
  ASSERT_TRUE(from_stream.ok());
  EXPECT_EQ(from_path->dims(), from_stream->dims());
  EXPECT_EQ(0, std::memcmp(from_path->data().data(), from_stream->data().data(),
                           from_path->size() * sizeof(double)));
}

// --------------------------- Dataset CSV ---------------------------

TEST_F(CsvTest, DatasetRoundTrip) {
  Rng rng(2);
  datagen::DatasetSpec spec = datagen::CaSpec();
  spec.num_households = 12;
  datagen::GenerateOptions opts;
  opts.grid_x = 4;
  opts.grid_y = 4;
  opts.hours = 48;
  auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kUniform,
                                     opts, rng);
  ASSERT_TRUE(ds.ok());
  const std::string path = Make("dataset.csv");
  ASSERT_TRUE(io::WriteDatasetCsv(*ds, path).ok());
  auto back = io::ReadDatasetCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->spec.name, "CA");
  EXPECT_EQ(back->spec.num_households, 12);
  EXPECT_EQ(back->hours, 48);
  EXPECT_EQ(back->grid_x, 4);
  ASSERT_EQ(back->households.size(), ds->households.size());
  for (size_t i = 0; i < ds->households.size(); ++i) {
    EXPECT_EQ(back->households[i].cell_x, ds->households[i].cell_x);
    ASSERT_EQ(back->households[i].series.size(), ds->households[i].series.size());
    for (size_t t = 0; t < ds->households[i].series.size(); ++t) {
      EXPECT_NEAR(back->households[i].series[t], ds->households[i].series[t], 1e-12);
    }
  }
}

TEST_F(CsvTest, DatasetRoundTripPreservesMatrix) {
  // The consumption matrix built from the round-tripped dataset must match.
  Rng rng(3);
  datagen::DatasetSpec spec = datagen::MiSpec();
  spec.num_households = 20;
  datagen::GenerateOptions opts;
  opts.grid_x = 4;
  opts.grid_y = 4;
  opts.hours = 24 * 4;
  auto ds = datagen::GenerateDataset(spec, datagen::SpatialDistribution::kNormal,
                                     opts, rng);
  ASSERT_TRUE(ds.ok());
  const std::string path = Make("dataset2.csv");
  ASSERT_TRUE(io::WriteDatasetCsv(*ds, path).ok());
  auto back = io::ReadDatasetCsv(path);
  ASSERT_TRUE(back.ok());
  auto m1 = datagen::BuildConsumptionMatrix(*ds, 24);
  auto m2 = datagen::BuildConsumptionMatrix(*back, 24);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  for (size_t i = 0; i < m1->data().size(); ++i) {
    EXPECT_NEAR(m1->data()[i], m2->data()[i], 1e-4);
  }
}

TEST_F(CsvTest, ReadDatasetRejectsMissingSpecLine) {
  const std::string path = Make("nospec.csv");
  std::ofstream(path) << "household,cell_x,cell_y,hour,kwh\n0,0,0,0,1.0\n";
  EXPECT_FALSE(io::ReadDatasetCsv(path).ok());
}

TEST_F(CsvTest, ReadDatasetRejectsOutOfRangeIndices) {
  const std::string path = Make("oob.csv");
  std::ofstream(path) << "# X,1,0.5,1.0,10.0,2.0,4,4,2\n"
                      << "household,cell_x,cell_y,hour,kwh\n"
                      << "5,0,0,0,1.0\n";  // household 5 of 1
  EXPECT_EQ(io::ReadDatasetCsv(path).status().code(), StatusCode::kOutOfRange);
}

TEST_F(CsvTest, DatasetHugeHeaderRejected) {
  // Regression for fuzz/corpus/csv/crash-dataset-huge-header.csv: a spec
  // line declaring 2e9 households used to reach the households resize
  // unguarded and abort on bad_alloc.
  std::istringstream in(
      "# x,2000000000,1,1,1,1,4,4,1000000\n"
      "household,cell_x,cell_y,hour,kwh\n");
  auto ds = io::ReadDatasetCsv(in);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CsvTest, DatasetBadGridRejected) {
  // grid_x = 0 used to be accepted, yielding households whose cells can
  // never be placed on the grid.
  std::istringstream in(
      "# X,1,0.5,1.0,10.0,2.0,0,4,2\n"
      "household,cell_x,cell_y,hour,kwh\n"
      "0,0,0,0,1.0\n");
  auto ds = io::ReadDatasetCsv(in);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("grid"), std::string::npos);
}

TEST_F(CsvTest, DatasetCellOutsideGridRejected) {
  // cell_x = 7 on a 4x4 grid used to round-trip silently and then index
  // out of bounds in BuildConsumptionMatrix.
  std::istringstream in(
      "# X,1,0.5,1.0,10.0,2.0,4,4,2\n"
      "household,cell_x,cell_y,hour,kwh\n"
      "0,7,0,0,1.0\n");
  auto ds = io::ReadDatasetCsv(in);
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kOutOfRange);
}

TEST_F(CsvTest, DatasetNonFiniteReadingRejected) {
  std::istringstream in(
      "# X,1,0.5,1.0,10.0,2.0,4,4,2\n"
      "household,cell_x,cell_y,hour,kwh\n"
      "0,0,0,0,inf\n");
  auto ds = io::ReadDatasetCsv(in);
  ASSERT_FALSE(ds.ok());
  EXPECT_NE(ds.status().message().find("non-finite"), std::string::npos);
}

// --------------------------- Table CSV ---------------------------

TEST_F(CsvTest, TableCsvWritesHeaderAndRows) {
  const std::string path = Make("table.csv");
  ASSERT_TRUE(io::WriteTableCsv({"a", "b"}, {{1.0, 2.0}, {3.5, 4.5}}, path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST_F(CsvTest, TableCsvRejectsRowWidthMismatch) {
  const std::string path = Make("badtable.csv");
  EXPECT_FALSE(io::WriteTableCsv({"a", "b"}, {{1.0}}, path).ok());
}

// --------------------------- Row scanner ---------------------------

const char kSpec[] = "# X,2,0.5,1.0,10.0,2.0,4,4,3\n";
const char kDataHeader[] = "household,cell_x,cell_y,hour,kwh\n";

StatusOr<datagen::SyntheticDataset> ReadDataset(const std::string& text) {
  std::istringstream in(text);
  return io::ReadDatasetCsv(in);
}

TEST(CsvScannerTest, CrlfAndMissingFinalNewlineReadLikeLf) {
  const std::string lf = std::string(kSpec) + kDataHeader +
                         "0,1,2,0,1.5\n\n1,3,0,2,-0.25\n";
  std::string crlf;
  for (const char c : lf) crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
  crlf.erase(crlf.find("\r\n\r\n") + 2, 1);  // a blank line is "\n" only
  auto a = ReadDataset(lf);
  auto b = ReadDataset(crlf);
  auto c = ReadDataset(lf.substr(0, lf.size() - 1));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  for (const auto* ds : {&*b, &*c}) {
    ASSERT_EQ(ds->households.size(), 2u);
    EXPECT_EQ(ds->households[0].cell_x, 1);
    EXPECT_EQ(ds->households[1].cell_x, 3);
    EXPECT_EQ(ds->households[1].series, a->households[1].series);
  }
}

TEST(CsvScannerTest, RejectsWhatFromCharsCannotConsumeExactly) {
  // Each row was accepted by the stoi/stod reader (as 0, 0, 12, 1, 0, 1):
  // leading '+' or space and trailing junk are now parse errors.
  for (const char* row : {"+0,0,0,0,1\n", " 0,0,0,0,1\n", "0,0,0,12abc,1\n",
                          "0,0,0,0,1x\n", "0,0,0,0, 1\n", "0,0,0,0,0x1p0\n"}) {
    auto ds = ReadDataset(std::string(kSpec) + kDataHeader + row);
    ASSERT_FALSE(ds.ok()) << row;
    EXPECT_EQ(ds.status().code(), StatusCode::kInvalidArgument) << row;
    EXPECT_NE(ds.status().message().find("parse error at line 3"), std::string::npos)
        << ds.status().message();
  }
  // Out-of-range numbers stay rejected, as stoi/stod threw on them.
  for (const char* row : {"99999999999,0,0,0,1\n", "0,0,0,0,1e-400\n",
                          "0,0,0,0,1e400\n", "0,0,0,0,1e-310\n"}) {
    EXPECT_FALSE(ReadDataset(std::string(kSpec) + kDataHeader + row).ok()) << row;
  }
}

TEST(CsvScannerTest, RowStraddlingBlockBoundaryIsRead) {
  // Blank lines push the data row across the 1 MiB block boundary.
  std::string text = "x,y,t,value\n";
  text.append((size_t{1} << 20) - text.size() - 4, '\n');
  text += "0,0,0,2.5\n1,0,0,-7\n";
  std::istringstream in(text);
  auto m = io::ReadMatrixCsv(in);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->at(0, 0, 0), 2.5);
  EXPECT_EQ(m->at(1, 0, 0), -7.0);
}

TEST(CsvScannerTest, RowLongerThanBlockIsRejected) {
  // The stod reader buffered the whole line; the scanner keeps one block.
  std::string text = "x,y,t,value\n0,0,0,1.";
  text.append(size_t{1} << 20, '0');
  text += "\n";
  std::istringstream in(text);
  auto m = io::ReadMatrixCsv(in);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(m.status().message().find("longer than the read block at line 2"),
            std::string::npos)
      << m.status().message();
}

// --------------------------- Differential oracle ---------------------------

// Frozen copy of the getline + SplitCsvLine + stoi/stod readers that the
// block scanner replaced. Wherever the scanner accepts a file, this reader
// must accept it too and produce a bitwise-equal result.
namespace legacy {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) out.push_back(field);
  if (!line.empty() && line.back() == ',') out.push_back("");
  return out;
}

StatusOr<grid::ConsumptionMatrix> ReadMatrixCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || SplitCsvLine(line).size() != 4) {
    return Status::InvalidArgument("header");
  }
  struct Cell {
    int x, y, t;
    double v;
  };
  std::vector<Cell> cells;
  int max_x = -1, max_y = -1, max_t = -1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 4) return Status::InvalidArgument("field count");
    try {
      Cell c{std::stoi(fields[0]), std::stoi(fields[1]), std::stoi(fields[2]),
             std::stod(fields[3])};
      if (c.x < 0 || c.y < 0 || c.t < 0) return Status::InvalidArgument("negative");
      if (c.x >= io::kMaxCsvAxis || c.y >= io::kMaxCsvAxis || c.t >= io::kMaxCsvAxis) {
        return Status::InvalidArgument("axis");
      }
      if (!std::isfinite(c.v)) return Status::InvalidArgument("non-finite");
      max_x = std::max(max_x, c.x);
      max_y = std::max(max_y, c.y);
      max_t = std::max(max_t, c.t);
      cells.push_back(c);
    } catch (const std::exception&) {
      return Status::InvalidArgument("parse");
    }
  }
  if (cells.empty()) return Status::InvalidArgument("empty");
  const int64_t expected = int64_t{max_x + 1} * int64_t{max_y + 1} * int64_t{max_t + 1};
  if (static_cast<int64_t>(cells.size()) != expected) {
    return Status::InvalidArgument("count");
  }
  auto matrix_or = grid::ConsumptionMatrix::Create({max_x + 1, max_y + 1, max_t + 1});
  STPT_RETURN_IF_ERROR(matrix_or.status());
  grid::ConsumptionMatrix matrix = std::move(matrix_or).value();
  std::vector<uint8_t> seen(matrix.size(), 0);
  for (const Cell& c : cells) {
    const size_t idx =
        (static_cast<size_t>(c.x) * (max_y + 1) + c.y) * (max_t + 1) + c.t;
    if (seen[idx]) return Status::InvalidArgument("duplicate");
    seen[idx] = 1;
    matrix.set(c.x, c.y, c.t, c.v);
  }
  return matrix;
}

StatusOr<datagen::SyntheticDataset> ReadDatasetCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line.size() < 3 || line[0] != '#') {
    return Status::InvalidArgument("spec");
  }
  const auto meta = SplitCsvLine(line.substr(2));
  if (meta.size() != 9) return Status::InvalidArgument("spec");
  datagen::SyntheticDataset ds;
  try {
    ds.spec.name = meta[0];
    ds.spec.num_households = std::stoi(meta[1]);
    ds.spec.mean_kwh = std::stod(meta[2]);
    ds.spec.std_kwh = std::stod(meta[3]);
    ds.spec.max_kwh = std::stod(meta[4]);
    ds.spec.clip_factor = std::stod(meta[5]);
    ds.grid_x = std::stoi(meta[6]);
    ds.grid_y = std::stoi(meta[7]);
    ds.hours = std::stoi(meta[8]);
  } catch (const std::exception&) {
    return Status::InvalidArgument("spec parse");
  }
  if (ds.spec.num_households <= 0 || ds.hours <= 0 || ds.grid_x <= 0 ||
      ds.grid_y <= 0 || ds.grid_x > io::kMaxCsvAxis || ds.grid_y > io::kMaxCsvAxis ||
      ds.hours > io::kMaxCsvAxis || !std::isfinite(ds.spec.mean_kwh) ||
      !std::isfinite(ds.spec.std_kwh) || !std::isfinite(ds.spec.max_kwh) ||
      !std::isfinite(ds.spec.clip_factor) ||
      ds.spec.num_households > io::kMaxCsvHouseholds ||
      int64_t{ds.spec.num_households} * int64_t{ds.hours} > io::kMaxCsvReadings) {
    return Status::InvalidArgument("spec values");
  }
  ds.households.resize(ds.spec.num_households);
  for (auto& h : ds.households) h.series.assign(ds.hours, 0.0);
  if (!std::getline(in, line) || SplitCsvLine(line).size() != 5) {
    return Status::InvalidArgument("data header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = SplitCsvLine(line);
    if (fields.size() != 5) return Status::InvalidArgument("field count");
    try {
      const int h = std::stoi(fields[0]);
      const int t = std::stoi(fields[3]);
      if (h < 0 || h >= ds.spec.num_households || t < 0 || t >= ds.hours) {
        return Status::OutOfRange("index");
      }
      const int cx = std::stoi(fields[1]);
      const int cy = std::stoi(fields[2]);
      if (cx < 0 || cx >= ds.grid_x || cy < 0 || cy >= ds.grid_y) {
        return Status::OutOfRange("cell");
      }
      const double kwh = std::stod(fields[4]);
      if (!std::isfinite(kwh)) return Status::InvalidArgument("non-finite");
      ds.households[h].cell_x = cx;
      ds.households[h].cell_y = cy;
      ds.households[h].series[t] = kwh;
    } catch (const std::exception&) {
      return Status::InvalidArgument("parse");
    }
  }
  return ds;
}

}  // namespace legacy

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Runs both readers over one input; fails the test if the scanner accepts
// something the legacy reader rejects or reads differently. Returns whether
// the scanner accepted (matrix, dataset) as a 2-bit mask.
int CompareWithLegacy(const std::string& text, const std::string& label) {
  int accepted = 0;
  {
    std::istringstream in_new(text), in_old(text);
    auto now = io::ReadMatrixCsv(in_new);
    if (now.ok()) {
      accepted |= 1;
      auto old = legacy::ReadMatrixCsv(in_old);
      EXPECT_TRUE(old.ok()) << label << ": scanner accepted a matrix the old reader rejects";
      if (old.ok()) {
        EXPECT_EQ(now->dims(), old->dims()) << label;
        EXPECT_TRUE(BitwiseEqual(now->data(), old->data())) << label;
      }
    }
  }
  {
    std::istringstream in_new(text), in_old(text);
    auto now = io::ReadDatasetCsv(in_new);
    if (now.ok()) {
      accepted |= 2;
      auto old = legacy::ReadDatasetCsv(in_old);
      EXPECT_TRUE(old.ok()) << label << ": scanner accepted a dataset the old reader rejects";
      if (old.ok()) {
        const auto &a = now->spec, &b = old->spec;
        EXPECT_EQ(a.name, b.name) << label;
        EXPECT_EQ(a.num_households, b.num_households) << label;
        EXPECT_TRUE(BitwiseEqual(a.mean_kwh, b.mean_kwh) && BitwiseEqual(a.std_kwh, b.std_kwh) &&
                    BitwiseEqual(a.max_kwh, b.max_kwh) &&
                    BitwiseEqual(a.clip_factor, b.clip_factor))
            << label;
        EXPECT_EQ(now->grid_x, old->grid_x) << label;
        EXPECT_EQ(now->grid_y, old->grid_y) << label;
        EXPECT_EQ(now->hours, old->hours) << label;
        EXPECT_EQ(now->households.size(), old->households.size()) << label;
        for (size_t h = 0; h < std::min(now->households.size(), old->households.size()); ++h) {
          EXPECT_EQ(now->households[h].cell_x, old->households[h].cell_x) << label;
          EXPECT_EQ(now->households[h].cell_y, old->households[h].cell_y) << label;
          EXPECT_TRUE(BitwiseEqual(now->households[h].series, old->households[h].series))
              << label << " household " << h;
        }
      }
    }
  }
  return accepted;
}

// Replaces one to three fields of `text` with a token that probes the number
// grammar (signs, spaces, exponents, hex, ERANGE edges, junk) or with a
// random double printed at a random precision. Most mutants stay readable,
// so the comparison covers the value path and not only the rejections.
std::string TokenMutant(const std::string& text, Rng& rng) {
  static const char* const kTokens[] = {
      "0", "-0", "007", "+1", " 1", "1 ", "1.", ".5", "-.5", "1e5", "1E-5", "1e",
      "nan", "inf", "-inf", "0x1p3", "1e-400", "1e400", "4.9e-324",
      "2.2250738585072011e-308", "2.2250738585072014e-308", "99999999999",
      "2147483647", "2147483648", "-2147483648", "12abc", "", "1\r", "3"};
  std::string out = text;
  const int edits = static_cast<int>(rng.UniformInt(1, 3));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const size_t at = static_cast<size_t>(rng.UniformInt(0, out.size() - 1));
    const size_t begin = out.find_last_of(",\n", at) == std::string::npos
                             ? 0
                             : out.find_last_of(",\n", at) + 1;
    const size_t end = std::min(out.find_first_of(",\n", begin), out.size());
    std::string token;
    if (rng.UniformInt(0, 1) == 0) {
      token = kTokens[rng.UniformInt(0, std::size(kTokens) - 1)];
    } else {
      char buf[64];
      const double v = rng.UniformInt(0, 1) == 0 ? rng.Uniform(-50, 50)
                                                 : std::ldexp(rng.NextDouble(), -1030);
      std::snprintf(buf, sizeof buf, "%.*g", static_cast<int>(rng.UniformInt(1, 19)), v);
      token = buf;
    }
    out.replace(begin, end - begin, token);
  }
  return out;
}

TEST(CsvDifferentialTest, ScannerAcceptsOnlyWhatTheLegacyReaderAcceptedBitwise) {
  const auto corpus =
      fuzz::LoadCorpus(std::string(STPT_SOURCE_DIR) + "/fuzz/corpus/csv");
  ASSERT_FALSE(corpus.empty());
  int matrices = 0, datasets = 0;
  for (const auto& entry : corpus) {
    const auto run = [&](const std::vector<uint8_t>& bytes, const std::string& label) {
      const int mask =
          CompareWithLegacy(std::string(bytes.begin(), bytes.end()), label);
      matrices += mask & 1;
      datasets += (mask >> 1) & 1;
    };
    run(entry.bytes, entry.name);
    // Block-sized seeds keep their full length (so mutants still straddle
    // the read block) but get fewer mutants, to bound the run time.
    const bool large = entry.bytes.size() > (size_t{1} << 16);
    const size_t max_size = std::max(entry.bytes.size() + 64, size_t{1} << 16);
    Rng rng(fuzz::Fnv1a(entry.name) ^ 0xD1FFULL);
    for (int m = 0; m < (large ? 8 : 256); ++m) {
      run(fuzz::Mutate(entry.bytes, rng, max_size),
          entry.name + " mutant " + std::to_string(m));
    }
    for (int m = 0; m < (large ? 0 : 512); ++m) {
      const std::string text(entry.bytes.begin(), entry.bytes.end());
      const auto mutant = TokenMutant(text, rng);
      run(std::vector<uint8_t>(mutant.begin(), mutant.end()),
          entry.name + " token mutant " + std::to_string(m) + ": " + mutant);
    }
    if (::testing::Test::HasFailure()) return;
  }
  // The comparison only means something if plenty of inputs are accepted.
  EXPECT_GE(matrices, 100);
  EXPECT_GE(datasets, 100);
}

// --------------------------- Writer oracle ---------------------------

// Doubles that stress %.17g: random bit patterns (every exponent, NaNs and
// subnormals included) plus hand-picked edge values.
std::vector<double> EdgeDoubles(size_t random_count) {
  std::vector<double> out = {0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, 4.9406564584124654e-324,
                             2.2250738585072009e-308, 1.7976931348623157e308, -1e22,
                             123456789012345680.0, 1e16, 9007199254740993.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  Rng rng(77);
  for (size_t i = 0; i < random_count; ++i) {
    const uint64_t bits = rng.NextUint64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    out.push_back(v);
    out.push_back(rng.Uniform(0, 10));  // typical kWh readings
  }
  return out;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(CsvTest, WritersAreByteIdenticalToOstreamFormatting) {
  const std::vector<double> values = EdgeDoubles(40000);

  // Dataset: the pre-to_chars writer body, kept as the oracle.
  datagen::SyntheticDataset ds;
  ds.spec.name = "CER";
  ds.spec.num_households = 2000;
  ds.spec.mean_kwh = values[6];
  ds.spec.std_kwh = -0.0;
  ds.spec.max_kwh = 1e308;
  ds.spec.clip_factor = 0.1;
  ds.grid_x = 7;
  ds.grid_y = 9;
  ds.hours = static_cast<int>(values.size() / 2000);
  for (int h = 0; h < ds.spec.num_households; ++h) {
    datagen::Household house;
    house.cell_x = h % 7;
    house.cell_y = h % 9;
    house.series.assign(values.begin() + h * ds.hours, values.begin() + (h + 1) * ds.hours);
    ds.households.push_back(std::move(house));
  }
  std::ostringstream want;
  want << std::setprecision(17);
  const auto& s = ds.spec;
  want << "# " << s.name << ',' << s.num_households << ',' << s.mean_kwh << ','
       << s.std_kwh << ',' << s.max_kwh << ',' << s.clip_factor << ',' << ds.grid_x
       << ',' << ds.grid_y << ',' << ds.hours << '\n';
  want << "household,cell_x,cell_y,hour,kwh\n";
  for (size_t h = 0; h < ds.households.size(); ++h) {
    const auto& house = ds.households[h];
    for (int t = 0; t < ds.hours; ++t) {
      want << h << ',' << house.cell_x << ',' << house.cell_y << ',' << t << ','
           << house.series[t] << '\n';
    }
  }
  const std::string ds_path = Make("oracle_dataset.csv");
  ASSERT_TRUE(io::WriteDatasetCsv(ds, ds_path).ok());
  const std::string got = FileBytes(ds_path);
  ASSERT_GT(got.size(), size_t{1} << 20);  // spans several writer blocks
  EXPECT_TRUE(got == want.str()) << "dataset CSV differs from the ostream oracle";

  // Matrix.
  auto m = grid::ConsumptionMatrix::Create({5, 4, 3});
  ASSERT_TRUE(m.ok());
  for (size_t i = 0; i < m->size(); ++i) m->mutable_data()[i] = values[i * 7];
  std::ostringstream want_m;
  want_m << std::setprecision(17) << "x,y,t,value\n";
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 4; ++y) {
      for (int t = 0; t < 3; ++t) want_m << x << ',' << y << ',' << t << ',' << m->at(x, y, t) << '\n';
    }
  }
  const std::string m_path = Make("oracle_matrix.csv");
  ASSERT_TRUE(io::WriteMatrixCsv(*m, m_path).ok());
  EXPECT_EQ(FileBytes(m_path), want_m.str());

  // Table, including an empty header list and an empty row.
  const std::vector<std::vector<double>> rows = {
      {values[0], values[1], values[2]}, {values[20], values[21], values[22]}};
  std::ostringstream want_t;
  want_t << std::setprecision(17) << "a,b,c\n";
  for (const auto& row : rows) want_t << row[0] << ',' << row[1] << ',' << row[2] << '\n';
  const std::string t_path = Make("oracle_table.csv");
  ASSERT_TRUE(io::WriteTableCsv({"a", "b", "c"}, rows, t_path).ok());
  EXPECT_EQ(FileBytes(t_path), want_t.str());
  ASSERT_TRUE(io::WriteTableCsv({}, {{}}, t_path).ok());
  EXPECT_EQ(FileBytes(t_path), "\n\n");
}

// --------------------------- FlagSet ---------------------------

Status ParseArgs(FlagSet& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, PositionalAndProvided) {
  FlagSet flags;
  flags.DefineInt("grid", 32, "cells per side");
  flags.DefineBool("verbose", false, "chatty output");
  ASSERT_TRUE(ParseArgs(flags, {"generate", "--grid=16", "--verbose"}).ok());
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "generate");
  EXPECT_TRUE(flags.Provided("grid"));
  EXPECT_TRUE(flags.Provided("verbose"));
  EXPECT_EQ(flags.GetInt("grid"), 16);
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagSetTest, TypedGettersReturnDefaultsWhenAbsent) {
  FlagSet flags;
  flags.DefineInt("n", 7, "");
  flags.DefineDouble("x", 2.5, "");
  flags.DefineString("name", "dft", "");
  flags.DefineBool("b", false, "");
  ASSERT_TRUE(ParseArgs(flags, {}).ok());
  EXPECT_FALSE(flags.Provided("n"));
  EXPECT_EQ(flags.GetInt("n"), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x"), 2.5);
  EXPECT_EQ(flags.GetString("name"), "dft");
  EXPECT_FALSE(flags.GetBool("b"));
}

TEST(FlagSetTest, UnknownFlagRejected) {
  FlagSet flags;
  flags.DefineInt("n", 0, "");
  const Status st = ParseArgs(flags, {"--n=1", "--bogus=2"});
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bogus"), std::string::npos);
}

TEST(FlagSetTest, MalformedNumbersRejected) {
  {
    FlagSet flags;
    flags.DefineInt("n", 0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--n=abc"}).ok());
  }
  {
    FlagSet flags;
    flags.DefineInt("n", 0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--n=12x"}).ok());
  }
  {
    FlagSet flags;
    flags.DefineDouble("x", 0.0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--x=1.5oops"}).ok());
  }
}

TEST(FlagSetTest, OutOfRangeNumbersRejected) {
  // Found by fuzz_flags: strtoll/strtod used to saturate silently on
  // overflow (errno was never checked), so --n=99999999999999999999
  // parsed as INT64_MAX instead of failing.
  {
    FlagSet flags;
    flags.DefineInt("n", 0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--n=99999999999999999999"}).ok());
  }
  {
    FlagSet flags;
    flags.DefineInt("n", 0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--n=-99999999999999999999"}).ok());
  }
  {
    FlagSet flags;
    flags.DefineDouble("x", 0.0, "");
    EXPECT_FALSE(ParseArgs(flags, {"--x=1e999"}).ok());
  }
}

TEST(FlagSetTest, BoolValueWithHighBytesRejectedNotUb) {
  // Found by fuzz_flags: ::tolower on a negative signed char (bytes
  // >= 0x80 in a bool value) was undefined behaviour. Such values must
  // now be rejected cleanly.
  FlagSet flags;
  flags.DefineBool("e", false, "");
  EXPECT_FALSE(ParseArgs(flags, {"--e=\xff\xfe"}).ok());
}

TEST(FlagSetTest, ValueRequiredForNonBoolFlags) {
  FlagSet flags;
  flags.DefineInt("n", 0, "");
  flags.DefineString("s", "", "");
  EXPECT_FALSE(ParseArgs(flags, {"--n"}).ok());
  FlagSet flags2;
  flags2.DefineString("s", "", "");
  EXPECT_FALSE(ParseArgs(flags2, {"--s"}).ok());
}

TEST(FlagSetTest, BoolSemantics) {
  FlagSet flags;
  flags.DefineBool("a", false, "");
  flags.DefineBool("b", false, "");
  flags.DefineBool("c", true, "");
  flags.DefineBool("d", true, "");
  ASSERT_TRUE(ParseArgs(flags, {"--a", "--b=YES", "--c=0", "--d=off"}).ok());
  EXPECT_TRUE(flags.GetBool("a"));  // bare bool means true
  EXPECT_TRUE(flags.GetBool("b"));
  EXPECT_FALSE(flags.GetBool("c"));
  EXPECT_FALSE(flags.GetBool("d"));

  FlagSet bad;
  bad.DefineBool("e", false, "");
  EXPECT_FALSE(ParseArgs(bad, {"--e=maybe"}).ok());
}

TEST(FlagSetTest, RepeatedFlagLastWins) {
  FlagSet flags;
  flags.DefineInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(flags, {"--n=1", "--n=9"}).ok());
  EXPECT_EQ(flags.GetInt("n"), 9);
}

TEST(FlagSetTest, RejectsEmptyOptionName) {
  FlagSet flags;
  EXPECT_FALSE(ParseArgs(flags, {"--=x"}).ok());
}

TEST(FlagSetTest, IgnorePrefixPassesForeignOptionsThrough) {
  FlagSet flags;
  flags.DefineInt("n", 3, "");
  flags.IgnorePrefix("benchmark_");
  ASSERT_TRUE(
      ParseArgs(flags, {"--benchmark_filter=all", "--n=5", "--benchmark_repetitions"})
          .ok());
  EXPECT_EQ(flags.GetInt("n"), 5);
}

TEST(FlagSetTest, UsageListsFlagsInDefinitionOrder) {
  FlagSet flags;
  flags.DefineString("out", "data.csv", "output path");
  flags.DefineInt("seed", 1, "rng seed");
  const std::string usage = flags.Usage();
  const size_t out_pos = usage.find("--out");
  const size_t seed_pos = usage.find("--seed");
  ASSERT_NE(out_pos, std::string::npos);
  ASSERT_NE(seed_pos, std::string::npos);
  EXPECT_LT(out_pos, seed_pos);
  EXPECT_NE(usage.find("output path"), std::string::npos);
}

}  // namespace
}  // namespace stpt
