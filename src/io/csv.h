#ifndef STPT_IO_CSV_H_
#define STPT_IO_CSV_H_

#include <cstdint>
#include <istream>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/dataset.h"
#include "grid/consumption_matrix.h"

namespace stpt::io {

/// Hard limits the readers enforce on untrusted input before allocating
/// anything from header-declared sizes. A hostile or corrupted file can
/// therefore cost at most bounded memory, never an uncaught bad_alloc.
inline constexpr int kMaxCsvAxis = 1 << 20;             ///< per-axis index bound
inline constexpr int kMaxCsvHouseholds = 1 << 22;       ///< dataset household bound
inline constexpr int64_t kMaxCsvReadings = int64_t{1} << 26;  ///< households × hours

/// Writes a consumption matrix as CSV with header `x,y,t,value`, one row per
/// cell, in (x, y, t) order.
Status WriteMatrixCsv(const grid::ConsumptionMatrix& matrix,
                      const std::string& path);

/// Reads a matrix written by WriteMatrixCsv. Dimensions are inferred from
/// the maximum indices; every cell must be present exactly once (duplicates
/// and gaps are rejected), every value must be finite, and indices are
/// bounded by kMaxCsvAxis. Arbitrary input yields a Status, never a crash.
StatusOr<grid::ConsumptionMatrix> ReadMatrixCsv(const std::string& path);

/// Stream-based core of ReadMatrixCsv (also the fuzzing entry point: it
/// parses untrusted bytes without touching the filesystem).
StatusOr<grid::ConsumptionMatrix> ReadMatrixCsv(std::istream& in);

/// Writes a dataset as CSV with header `household,cell_x,cell_y,hour,kwh`.
/// Spec metadata goes into a leading comment line
/// `# name,num_households,mean,std,max,clip,grid_x,grid_y,hours`.
Status WriteDatasetCsv(const datagen::SyntheticDataset& dataset,
                       const std::string& path);

/// Reads a dataset written by WriteDatasetCsv. The spec line is validated
/// before any allocation: grid dimensions and hours must be in
/// [1, kMaxCsvAxis], households in [1, kMaxCsvHouseholds], and
/// households × hours <= kMaxCsvReadings; data rows must reference
/// households/hours declared by the spec, cells inside the grid, and finite
/// readings. Arbitrary input yields a Status, never a crash.
StatusOr<datagen::SyntheticDataset> ReadDatasetCsv(const std::string& path);

/// Stream-based core of ReadDatasetCsv (also the fuzzing entry point).
StatusOr<datagen::SyntheticDataset> ReadDatasetCsv(std::istream& in);

/// Writes rows of doubles with the given column headers.
Status WriteTableCsv(const std::vector<std::string>& headers,
                     const std::vector<std::vector<double>>& rows,
                     const std::string& path);

}  // namespace stpt::io

#endif  // STPT_IO_CSV_H_
