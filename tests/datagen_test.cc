#include <cmath>
#include <set>

#include "common/rng.h"
#include "datagen/dataset.h"
#include "gtest/gtest.h"

namespace stpt::datagen {

// Prints a spec by its name. gtest's default byte dump of the struct
// includes the std::string's heap pointer, which puts a per-process
// address into the test names that ctest discovers.
void PrintTo(const DatasetSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

GenerateOptions SmallOptions() {
  GenerateOptions o;
  o.grid_x = 16;
  o.grid_y = 16;
  o.hours = 24 * 7;
  return o;
}

TEST(SpecTest, Table2Presets) {
  const DatasetSpec cer = CerSpec();
  EXPECT_EQ(cer.name, "CER");
  EXPECT_EQ(cer.num_households, 5000);
  EXPECT_DOUBLE_EQ(cer.mean_kwh, 0.61);
  EXPECT_DOUBLE_EQ(cer.clip_factor, 1.85);
  EXPECT_EQ(CaSpec().num_households, 250);
  EXPECT_DOUBLE_EQ(MiSpec().max_kwh, 49.50);
  EXPECT_DOUBLE_EQ(TxSpec().std_kwh, 1.63);
  EXPECT_EQ(AllSpecs().size(), 4u);
}

TEST(GenerateTest, RejectsInvalidOptions) {
  Rng rng(1);
  GenerateOptions bad;
  bad.hours = 0;
  EXPECT_FALSE(GenerateDataset(CaSpec(), SpatialDistribution::kUniform, bad, rng).ok());
  DatasetSpec no_households = CaSpec();
  no_households.num_households = 0;
  EXPECT_FALSE(GenerateDataset(no_households, SpatialDistribution::kUniform,
                               SmallOptions(), rng)
                   .ok());
}

TEST(GenerateTest, ShapeAndDeterminism) {
  Rng a(7), b(7);
  auto d1 = GenerateDataset(CaSpec(), SpatialDistribution::kUniform, SmallOptions(), a);
  auto d2 = GenerateDataset(CaSpec(), SpatialDistribution::kUniform, SmallOptions(), b);
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  ASSERT_EQ(d1->households.size(), 250u);
  EXPECT_EQ(d1->households[0].series.size(), static_cast<size_t>(24 * 7));
  for (size_t i = 0; i < d1->households.size(); ++i) {
    EXPECT_EQ(d1->households[i].cell_x, d2->households[i].cell_x);
    EXPECT_EQ(d1->households[i].series, d2->households[i].series);
  }
}

TEST(GenerateTest, ReadingsNonNegativeAndCapped) {
  Rng rng(9);
  auto d = GenerateDataset(TxSpec(), SpatialDistribution::kUniform, SmallOptions(), rng);
  ASSERT_TRUE(d.ok());
  for (const auto& h : d->households) {
    for (double v : h.series) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, TxSpec().max_kwh);
    }
  }
}

class SpecSweepTest : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(SpecSweepTest, MarginalStatisticsTrackTable2) {
  const DatasetSpec spec = GetParam();
  Rng rng(11);
  GenerateOptions opts = SmallOptions();
  opts.hours = 24 * 14;
  auto d = GenerateDataset(spec, SpatialDistribution::kUniform, opts, rng);
  ASSERT_TRUE(d.ok());
  const DatasetStats stats = ComputeStats(*d);
  // Mean within 25% of target; std within a factor of 2 (heavy-tail model
  // targets the *shape*, not exact second moments).
  EXPECT_NEAR(stats.mean, spec.mean_kwh, spec.mean_kwh * 0.25) << spec.name;
  EXPECT_GT(stats.stddev, spec.mean_kwh * 0.8) << spec.name;
  EXPECT_LT(stats.stddev, spec.std_kwh * 2.5) << spec.name;
  EXPECT_LE(stats.max, spec.max_kwh) << spec.name;
  // Heavy tail: max should far exceed the mean.
  EXPECT_GT(stats.max, 5.0 * stats.mean) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SpecSweepTest,
                         ::testing::Values(CerSpec(), CaSpec(), MiSpec(), TxSpec()),
                         [](const ::testing::TestParamInfo<DatasetSpec>& info) {
                           return info.param.name;
                         });

TEST(GenerateTest, UniformPlacementCoversGrid) {
  Rng rng(13);
  auto d = GenerateDataset(CerSpec(), SpatialDistribution::kUniform, SmallOptions(),
                           rng);
  ASSERT_TRUE(d.ok());
  std::set<std::pair<int, int>> cells;
  for (const auto& h : d->households) {
    EXPECT_GE(h.cell_x, 0);
    EXPECT_LT(h.cell_x, 16);
    EXPECT_GE(h.cell_y, 0);
    EXPECT_LT(h.cell_y, 16);
    cells.insert({h.cell_x, h.cell_y});
  }
  // 5000 households over 256 cells: expect near-complete coverage.
  EXPECT_GT(cells.size(), 250u);
}

TEST(GenerateTest, NormalPlacementIsConcentrated) {
  Rng rng(15);
  auto d = GenerateDataset(CerSpec(), SpatialDistribution::kNormal, SmallOptions(),
                           rng);
  ASSERT_TRUE(d.ok());
  // Compute the spatial histogram's max cell share: should be far above the
  // uniform share (1/256).
  std::vector<int> counts(16 * 16, 0);
  for (const auto& h : d->households) ++counts[h.cell_x * 16 + h.cell_y];
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, 5000 / 256 * 2);
}

TEST(GenerateTest, LaPlacementIsMultiModalAndSkewed) {
  Rng rng(17);
  auto d = GenerateDataset(CerSpec(), SpatialDistribution::kLosAngeles,
                           SmallOptions(), rng);
  ASSERT_TRUE(d.ok());
  std::vector<int> counts(16 * 16, 0);
  for (const auto& h : d->households) ++counts[h.cell_x * 16 + h.cell_y];
  const int max_count = *std::max_element(counts.begin(), counts.end());
  const int min_count = *std::min_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, 3 * (5000 / 256));  // hot spots
  EXPECT_LT(min_count, 5000 / 256);        // sparse fringe
}

TEST(MatrixTest, BuildAggregatesClippedReadings) {
  Rng rng(19);
  GenerateOptions opts;
  opts.grid_x = 4;
  opts.grid_y = 4;
  opts.hours = 10;
  DatasetSpec spec = CaSpec();
  spec.num_households = 20;
  auto d = GenerateDataset(spec, SpatialDistribution::kUniform, opts, rng);
  ASSERT_TRUE(d.ok());
  auto m = BuildConsumptionMatrix(*d);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->dims().cx, 4);
  EXPECT_EQ(m->dims().ct, 10);
  // Manual aggregation with clipping must match.
  double expected00 = 0.0;
  for (const auto& h : d->households) {
    if (h.cell_x == 0 && h.cell_y == 0) {
      expected00 += std::min(h.series[0], spec.clip_factor);
    }
  }
  EXPECT_NEAR(m->at(0, 0, 0), expected00, 1e-12);
  // Matrix totals never exceed clip * households * hours.
  EXPECT_LE(m->TotalSum(), spec.clip_factor * 20 * 10 + 1e-9);
}

TEST(WeekdayTest, TotalsHaveSevenBucketsAndWeekendUplift) {
  Rng rng(21);
  GenerateOptions opts = SmallOptions();
  opts.hours = 24 * 7 * 4;  // four full weeks
  auto d = GenerateDataset(CerSpec(), SpatialDistribution::kUniform, opts, rng);
  ASSERT_TRUE(d.ok());
  const std::vector<double> totals = WeekdayTotals(*d);
  ASSERT_EQ(totals.size(), 7u);
  double weekday_avg = 0.0;
  for (int i = 0; i < 5; ++i) weekday_avg += totals[i];
  weekday_avg /= 5.0;
  const double weekend_avg = (totals[5] + totals[6]) / 2.0;
  EXPECT_GT(weekend_avg, weekday_avg);  // Fig. 9 shape
}

TEST(WeekdayTest, AllReadingsFlattens) {
  Rng rng(23);
  GenerateOptions opts;
  opts.grid_x = 4;
  opts.grid_y = 4;
  opts.hours = 5;
  DatasetSpec spec = CaSpec();
  spec.num_households = 3;
  auto d = GenerateDataset(spec, SpatialDistribution::kUniform, opts, rng);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->AllReadings().size(), 15u);
}

TEST(DistributionTest, Names) {
  EXPECT_STREQ(SpatialDistributionToString(SpatialDistribution::kUniform), "Uniform");
  EXPECT_STREQ(SpatialDistributionToString(SpatialDistribution::kNormal), "Normal");
  EXPECT_STREQ(SpatialDistributionToString(SpatialDistribution::kLosAngeles),
               "LosAngeles");
}

}  // namespace
}  // namespace stpt::datagen
