#include <gtest/gtest.h>

#include <cstdio>

#include "common/csv.hpp"
#include "core/results_io.hpp"
#include "support/temp_path.hpp"

namespace rtopex::core {
namespace {

class ResultsIoTest : public ::testing::Test {
 protected:
  // One file per test case: cases may run in parallel processes.
  std::string path_;
  void SetUp() override { path_ = test::temp_path_for_this_test(".csv"); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(ResultsIoTest, SweepRoundTrip) {
  ExperimentConfig cfg;
  cfg.workload.num_basestations = 2;
  cfg.workload.subframes_per_bs = 500;
  std::vector<SweepPoint> points;
  for (const int rtt : {400, 600}) {
    cfg.rtt_half = microseconds(rtt);
    for (const auto kind :
         {SchedulerKind::kPartitioned, SchedulerKind::kRtOpex}) {
      cfg.scheduler = kind;
      points.push_back({static_cast<double>(rtt), run_experiment(cfg)});
    }
  }
  write_sweep_csv(path_, points);

  const CsvTable table = read_csv(path_);
  ASSERT_EQ(table.header.size(), 11u);
  ASSERT_EQ(table.rows.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(table.rows[i][0], points[i].x);
    EXPECT_EQ(table.rows[i][3], 1000.0);  // total subframes
    EXPECT_NEAR(table.rows[i][5], points[i].result.metrics.miss_rate(), 1e-9);
  }
  // Scheduler ids: partitioned 0, rt-opex 2, alternating.
  EXPECT_EQ(table.rows[0][1], 0.0);
  EXPECT_EQ(table.rows[1][1], 2.0);
}

TEST_F(ResultsIoTest, DistributionQuantiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  write_distribution_csv(path_, samples, 10);
  const CsvTable table = read_csv(path_);
  ASSERT_EQ(table.rows.size(), 11u);
  EXPECT_DOUBLE_EQ(table.rows.front()[1], 1.0);
  EXPECT_DOUBLE_EQ(table.rows.back()[1], 1000.0);
  EXPECT_NEAR(table.rows[5][1], 500.5, 1.0);  // median
}

TEST_F(ResultsIoTest, RejectsDegenerateInput) {
  EXPECT_THROW(write_distribution_csv(path_, std::vector<double>{}, 10),
               std::invalid_argument);
  EXPECT_THROW(write_distribution_csv(path_, std::vector<double>{1.0}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtopex::core
