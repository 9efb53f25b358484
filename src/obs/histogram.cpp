#include "obs/histogram.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace rtopex::obs {
namespace {

// log2 over the mantissa range [1, 2] at kTableSize + 1 evenly spaced
// points; add() interpolates linearly between neighbours. One table serves
// every histogram, so a Histogram stays a plain value type.
constexpr int kTableBits = 8;
constexpr std::size_t kTableSize = std::size_t{1} << kTableBits;
constexpr int kMantissaBits = 52;
constexpr int kFracBits = kMantissaBits - kTableBits;
constexpr double kFracScale =
    1.0 / static_cast<double>(std::uint64_t{1} << kFracBits);

/// log2(m) for m in [1, 2] at compile time: ln(m) = 2 atanh(z) with
/// z = (m - 1) / (m + 1) <= 1/3, whose odd power series converges fast.
constexpr double log2_of_mantissa(double m) {
  const double z = (m - 1.0) / (m + 1.0);
  const double z2 = z * z;
  double term = z;
  double sum = 0.0;
  for (int k = 1; k < 80; k += 2) {
    sum += term / k;
    term *= z2;
  }
  return 2.0 * sum / 0.693147180559945309417;
}

constexpr auto kLog2Table = [] {
  std::array<double, kTableSize + 1> t{};
  for (std::size_t i = 0; i <= kTableSize; ++i)
    t[i] = log2_of_mantissa(1.0 + static_cast<double>(i) / kTableSize);
  return t;
}();

/// Bound on |interpolated log2 - log2| over [1, 2]: a chord of log2 over a
/// step h lies at most h^2 / (8 ln 2) below it (the second derivative is
/// -1 / (m^2 ln 2), largest at m = 1), plus rounding of the entries and of
/// the interpolation.
constexpr double kTableError =
    1.0 / (8.0 * 0.693147180559945309417 * kTableSize * kTableSize) + 0x1p-40;

/// log2(x) of a positive normal double, up to kTableError (never above it
/// by more than rounding: the chord runs under the concave curve).
inline double log2_estimate(std::uint64_t bits) {
  const auto exponent = static_cast<int>(bits >> kMantissaBits) - 1023;
  const std::uint64_t mantissa =
      bits & ((std::uint64_t{1} << kMantissaBits) - 1);
  const auto i = static_cast<std::size_t>(mantissa >> kFracBits);
  // Signed conversions (the values fit in 63 bits) compile to one
  // instruction; unsigned ones need a range test first.
  const double frac =
      static_cast<double>(static_cast<std::int64_t>(
          mantissa & ((std::uint64_t{1} << kFracBits) - 1))) *
      kFracScale;
  return static_cast<double>(exponent) + kLog2Table[i] +
         frac * (kLog2Table[i + 1] - kLog2Table[i]);
}

}  // namespace

Histogram::Histogram(double lo, double hi, unsigned buckets_per_decade)
    : lo_(lo), hi_(hi), buckets_per_decade_(buckets_per_decade) {
  if (!(lo > 0.0) || !(hi > lo) || !std::isfinite(hi / lo) ||
      buckets_per_decade == 0)
    throw std::invalid_argument(
        "Histogram: need hi > lo > 0, a finite hi / lo and "
        "buckets_per_decade > 0");
  const double decades = std::log10(hi / lo);
  const auto buckets = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(buckets_per_decade) - 1e-9));
  counts_.assign(std::max<std::size_t>(buckets, 1), 0);
  growth_ = std::pow(10.0, 1.0 / static_cast<double>(buckets_per_decade));

  log2_lo_ = std::log2(lo);
  per_octave_ = static_cast<double>(buckets_per_decade) * std::log10(2.0);
  // The estimate (e + table - log2 lo) * per_octave and the reference
  // position each sit within this many buckets of the true position: the
  // table error, a generous 2^-36 octaves for the rounding of the octave
  // sum, of log2(lo), of log10 and of x / lo, and 2^-45 relative rounding
  // of a position below the bucket count. When no bucket edge lies within
  // the margin of the estimate, both name the same bucket.
  edge_margin_ = per_octave_ * (kTableError + 0x1p-36) +
                 static_cast<double>(counts_.size() + 1) * 0x1p-45;
  last_pos_ = static_cast<double>(counts_.size() - 1) + edge_margin_;
}

std::size_t Histogram::exact_bucket_index(double x) const {
  const double pos =
      std::log10(x / lo_) * static_cast<double>(buckets_per_decade_);
  const std::size_t last = counts_.size() - 1;
  // Also catches pos = +inf (x / lo overflowed), which must not be cast.
  if (!(pos < static_cast<double>(last))) return last;
  return static_cast<std::size_t>(pos);
}

std::size_t Histogram::bucket_index(double x) const {
  if (!(x > lo_)) return 0;  // also NaN
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased_exponent = bits >> kMantissaBits;
  if (biased_exponent == 0x7ff) return counts_.size() - 1;  // +inf
  if (biased_exponent == 0) return exact_bucket_index(x);   // subnormal
  const double pos = (log2_estimate(bits) - log2_lo_) * per_octave_;
  if (!(pos < last_pos_)) return counts_.size() - 1;
  // Near bucket 0's lower edge the estimate may even dip below 0.
  if (pos < edge_margin_) return exact_bucket_index(x);
  const auto i = static_cast<std::int64_t>(pos);
  const double within = pos - static_cast<double>(i);
  if (within < edge_margin_ || within >= 1.0 - edge_margin_)
    return exact_bucket_index(x);
  return static_cast<std::size_t>(i);
}

void Histogram::add(double x) {
  ++counts_[bucket_index(x)];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

void Histogram::merge(const Histogram& other) {
  if (!same_layout(other))
    throw std::invalid_argument("Histogram::merge: layout mismatch");
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

double Histogram::mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::bucket_lower(std::size_t i) const {
  if (i >= counts_.size())
    throw std::out_of_range("Histogram::bucket_lower");
  return lo_ * std::pow(growth_, static_cast<double>(i));
}

double Histogram::bucket_upper(std::size_t i) const {
  if (i >= counts_.size())
    throw std::out_of_range("Histogram::bucket_upper");
  return lo_ * std::pow(growth_, static_cast<double>(i + 1));
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;  // guard: never read bucket 0 of nothing
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based: ceil(q * n), at least 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_) - 1e-9)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (cum + counts_[i] >= rank) {
      // Interpolate linearly inside the bucket by rank position.
      const double within = (static_cast<double>(rank - cum) - 0.5) /
                            static_cast<double>(counts_[i]);
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double v = lo + within * (hi - lo);
      return std::clamp(v, min_, max_);
    }
    cum += counts_[i];
  }
  return max_;
}

}  // namespace rtopex::obs
