#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.hpp"
#include "support/temp_path.hpp"

namespace rtopex {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // One file per test case: cases may run in parallel processes.
  std::string path_;
  void SetUp() override { path_ = test::temp_path_for_this_test(".csv"); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, RoundTripWithHeader) {
  {
    CsvWriter w(path_);
    w.write_header({"a", "b", "c"});
    w.write_row({1.0, 2.5, -3.0});
    w.write_row({4.0, 5.0, 6.0});
  }
  const CsvTable t = read_csv(path_);
  ASSERT_EQ(t.header.size(), 3u);
  EXPECT_EQ(t.header[1], "b");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[0][1], 2.5);
  EXPECT_DOUBLE_EQ(t.rows[1][2], 6.0);
}

TEST_F(CsvTest, HeaderlessNumericFile) {
  {
    std::ofstream out(path_);
    out << "1,2\n3,4\n";
  }
  const CsvTable t = read_csv(path_);
  EXPECT_TRUE(t.header.empty());
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(t.rows[1][0], 3.0);
}

TEST_F(CsvTest, RejectsRaggedRows) {
  {
    std::ofstream out(path_);
    out << "1,2\n3,4,5\n";
  }
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(CsvTest, RejectsNonNumericMidFile) {
  {
    std::ofstream out(path_);
    out << "1,2\nx,4\n";
  }
  EXPECT_THROW(read_csv(path_), std::runtime_error);
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/path.csv"), std::runtime_error);
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), std::runtime_error);
}

TEST_F(CsvTest, HandlesCrLf) {
  {
    std::ofstream out(path_);
    out << "a,b\r\n1,2\r\n";
  }
  const CsvTable t = read_csv(path_);
  ASSERT_EQ(t.header.size(), 2u);
  EXPECT_EQ(t.header[1], "b");
  ASSERT_EQ(t.rows.size(), 1u);
}

}  // namespace
}  // namespace rtopex
