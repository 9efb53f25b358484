#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace rtopex::obs {
namespace {

TEST(HistogramTest, EmptyIsAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  // The empty-percentile guard: 0, never a bucket edge of nothing.
  EXPECT_EQ(h.percentile(0.0), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(1.0), 0.0);
}

TEST(HistogramTest, RejectsBadLayout) {
  EXPECT_THROW(Histogram(0.0, 100.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(-1.0, 100.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(100.0, 100.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(100.0, 10.0, 10), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 100.0, 0), std::invalid_argument);
  // hi / lo must be finite: the bucket count is derived from it.
  EXPECT_THROW(Histogram(1e-300, 1e300, 1), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, std::numeric_limits<double>::infinity(), 1),
               std::invalid_argument);
}

TEST(HistogramTest, MomentsAreExact) {
  // count/sum/mean/min/max come from running moments, not buckets, so they
  // are exact regardless of bucket resolution.
  Histogram h(1.0, 1e4, 4);
  for (const double x : {3.0, 7.0, 100.0, 2500.0}) h.add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 2610.0);
  EXPECT_DOUBLE_EQ(h.mean(), 652.5);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 2500.0);
}

TEST(HistogramTest, SingleSamplePercentilesCollapse) {
  Histogram h;
  h.add(42.0);
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 42.0);
}

TEST(HistogramTest, PercentileClampedToObservedRange) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.add(100.0 + i);
  EXPECT_GE(h.percentile(0.0), h.min());
  EXPECT_LE(h.percentile(1.0), h.max());
}

TEST(HistogramTest, OutOfRangeSamplesKeepTotalMass) {
  Histogram h(1.0, 100.0, 4);
  h.add(-5.0);    // below range -> first bucket
  h.add(0.0);
  h.add(1e9);     // above range -> last bucket
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
  // Percentiles stay within the observed extrema even for clipped mass.
  EXPECT_LE(h.percentile(1.0), 1e9);
}

TEST(HistogramTest, PercentileMatchesRawWithinOneBucketWidth) {
  // The documented accuracy contract: a percentile read is within one
  // bucket width (relative width g = 10^(1/bpd)) of the true sample
  // quantile. Checked against common/stats on a log-uniform sample.
  Rng rng(7);
  Histogram h;  // default: 24 buckets/decade over [0.1, 1e7)
  std::vector<double> raw;
  for (int i = 0; i < 20000; ++i) {
    const double x = std::pow(10.0, 1.0 + 3.0 * rng.uniform());
    raw.push_back(x);
    h.add(x);
  }
  std::sort(raw.begin(), raw.end());
  const double g = std::pow(10.0, 1.0 / 24.0);
  for (const double q : {0.05, 0.25, 0.5, 0.9, 0.95, 0.99}) {
    const double exact = quantile(raw, q);
    const double est = h.percentile(q);
    EXPECT_GE(est, exact / g * (1.0 - 1e-9)) << "q=" << q;
    EXPECT_LE(est, exact * g * (1.0 + 1e-9)) << "q=" << q;
  }
}

TEST(HistogramTest, MergeAddsMassAndChecksLayout) {
  Histogram a, b;
  for (int i = 1; i <= 100; ++i) a.add(i);
  for (int i = 101; i <= 200; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  const double median = a.percentile(0.5);
  EXPECT_GT(median, 80.0);
  EXPECT_LT(median, 125.0);

  Histogram other(1.0, 100.0, 4);
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(HistogramTest, ResetRestoresEmptyState) {
  Histogram h;
  h.add(5.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h, Histogram());
}

TEST(HistogramTest, EqualityIsBucketExact) {
  Histogram a, b;
  a.add(10.0);
  b.add(10.0);
  EXPECT_EQ(a, b);
  b.add(11.0);
  EXPECT_NE(a, b);
}

// Bucket exactness: add() picks the bucket from a log2-table estimate and
// falls back to the reference rule only near bucket edges. Every sample
// must still land where the reference rule puts it.
struct Layout {
  double lo;
  double hi;
  unsigned buckets_per_decade;
};
void PrintTo(const Layout& l, std::ostream* os) {
  *os << "(" << l.lo << ", " << l.hi << ", " << l.buckets_per_decade << ")";
}
constexpr Layout kDefaultLayout{0.1, 1e7, 24};
constexpr Layout kHealthLayout{0.1, 1e5, 8};  // the health monitor's

/// The reference rule: floor(log10(x / lo) * bpd), samples at or below lo
/// (and NaN) in bucket 0, every position past the last bucket (+inf
/// included) in the last.
std::size_t reference_bucket(const Layout& l, std::size_t buckets, double x) {
  if (!(x > l.lo)) return 0;
  const double pos = std::floor(std::log10(x / l.lo) *
                                static_cast<double>(l.buckets_per_decade));
  if (!(pos < static_cast<double>(buckets - 1))) return buckets - 1;
  return static_cast<std::size_t>(pos);
}

/// Adds each sample and checks that exactly the reference bucket grew.
/// Returns the number of mismatches (reported for the first few).
std::size_t count_mismatches(const Layout& l, const std::vector<double>& xs) {
  Histogram h(l.lo, l.hi, l.buckets_per_decade);
  std::size_t bad = 0;
  for (const double x : xs) {
    const std::size_t want = reference_bucket(l, h.bucket_count(), x);
    const std::uint64_t before = h.bucket(want);
    h.add(x);
    if (h.bucket(want) != before + 1 && ++bad <= 5)
      ADD_FAILURE() << "x = " << x << " (bits 0x" << std::hex
                    << std::bit_cast<std::uint64_t>(x) << std::dec
                    << ") missed reference bucket " << want;
  }
  EXPECT_EQ(h.count(), xs.size());
  return bad;
}

/// Every bucket edge, computed two ways, with its +-1..4-ulp neighbours.
std::vector<double> edge_samples(const Layout& l) {
  const Histogram h(l.lo, l.hi, l.buckets_per_decade);
  std::vector<double> xs;
  auto around = [&](double edge) {
    double up = edge, down = edge;
    xs.push_back(edge);
    for (int k = 0; k < 4; ++k) {
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
      xs.push_back(up);
      xs.push_back(down);
    }
  };
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    around(h.bucket_lower(i));
    around(h.bucket_upper(i));
    const double exponent = static_cast<double>(i) /
                            static_cast<double>(l.buckets_per_decade);
    around(l.lo * std::pow(10.0, exponent));
  }
  for (const double decade : {1.0, 10.0, 100.0, 1000.0}) around(decade);
  return xs;
}

class HistogramBucketTest : public ::testing::TestWithParam<Layout> {};

TEST_P(HistogramBucketTest, EdgesAndTheirUlpNeighboursMatchReference) {
  EXPECT_EQ(count_mismatches(GetParam(), edge_samples(GetParam())), 0u);
}

TEST_P(HistogramBucketTest, IntegerNanosecondsMatchReference) {
  // Sim latencies are integer nanoseconds divided by 1000: every value from
  // 1 ns to 2 ms.
  std::vector<double> xs;
  for (int k = 1; k <= 2'000'000; ++k) xs.push_back(k / 1000.0);
  EXPECT_EQ(count_mismatches(GetParam(), xs), 0u);
}

TEST_P(HistogramBucketTest, RandomValuesAcrossTheRangeMatchReference) {
  const Layout& l = GetParam();
  Rng rng(7);
  std::vector<double> xs;
  const double lg_lo = std::log10(l.lo) - 1.0, lg_hi = std::log10(l.hi) + 1.0;
  for (int k = 0; k < 500'000; ++k)
    xs.push_back(std::pow(10.0, lg_lo + (lg_hi - lg_lo) * rng.uniform()));
  EXPECT_EQ(count_mismatches(l, xs), 0u);
}

TEST_P(HistogramBucketTest, OutOfRangeAndSpecialValuesMatchReference) {
  const Layout& l = GetParam();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {
      l.lo, std::nextafter(l.lo, 0.0), l.lo / 2, 0.0, -0.0, -1.0, -kInf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), l.hi, std::nextafter(l.hi, kInf),
      l.hi * 10, 1e300, std::numeric_limits<double>::max(), kInf};
  EXPECT_EQ(count_mismatches(l, xs), 0u);
  // +inf and x / lo overflowing land in the last bucket by rule, not by an
  // out-of-range float-to-integer conversion.
  Histogram h(l.lo, l.hi, l.buckets_per_decade);
  h.add(kInf);
  h.add(std::numeric_limits<double>::max());
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 2u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, HistogramBucketTest,
                         ::testing::Values(kDefaultLayout, kHealthLayout),
                         [](const auto& info) {
                           return info.index == 0 ? "Default" : "Health";
                         });

}  // namespace
}  // namespace rtopex::obs
