// Fixed-bucket log-scale latency histogram: the default recording mode for
// latency-like samples (processing times, idle gaps), replacing unbounded
// raw-sample vectors. Buckets grow geometrically, so relative resolution is
// constant across the range and a percentile read is accurate to within one
// bucket width. All operations are O(1) or O(buckets); memory is fixed at
// construction, independent of sample count.
//
// add() picks the bucket without a log10: it estimates the bucket position
// from the sample's binary exponent and a shared log2 table, and only when
// that estimate lies within its error bound of a bucket edge does it
// evaluate the reference rule floor(log10(x / lo) * buckets_per_decade).
// Every sample therefore lands in exactly the bucket the reference rule
// names.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtopex::obs {

class Histogram {
 public:
  /// Default layout for microsecond latencies: [0.1 us, 1e7 us) with 24
  /// buckets per decade (~10% relative bucket width, 192 buckets).
  Histogram() : Histogram(0.1, 1e7, 24) {}

  /// Geometric buckets over [lo, hi): bucket i spans
  /// [lo * g^i, lo * g^(i+1)) with g = 10^(1/buckets_per_decade). Samples
  /// below lo (or non-positive) land in the first bucket, samples at or
  /// above hi in the last (+inf included) — total mass is always preserved.
  /// Throws std::invalid_argument unless hi > lo > 0, hi / lo is finite and
  /// buckets_per_decade > 0.
  Histogram(double lo, double hi, unsigned buckets_per_decade);

  void add(double x);

  /// Adds another histogram's mass. Throws std::invalid_argument when the
  /// bucket layouts differ.
  void merge(const Histogram& other);

  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// Exact observed extrema (not bucket edges); 0 when empty.
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

  /// Quantile estimate, q in [0, 1], linearly interpolated inside the
  /// containing bucket and clamped to the observed [min, max] — accurate to
  /// within one bucket width of the true sample quantile. Returns 0 on an
  /// empty histogram (never reads bucket 0 of nothing).
  double percentile(double q) const;

  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  double bucket_lower(std::size_t i) const;
  double bucket_upper(std::size_t i) const;
  /// Widest relative step between adjacent bucket edges (upper/lower).
  double growth_factor() const { return growth_; }

  bool same_layout(const Histogram& other) const {
    return lo_ == other.lo_ && hi_ == other.hi_ &&
           buckets_per_decade_ == other.buckets_per_decade_;
  }

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::size_t bucket_index(double x) const;
  /// The reference rule: floor(log10(x / lo) * buckets_per_decade), clamped
  /// to the last bucket (an infinite position included). Needs x > lo.
  std::size_t exact_bucket_index(double x) const;

  double lo_ = 0.0;
  double hi_ = 0.0;
  unsigned buckets_per_decade_ = 0;
  double growth_ = 0.0;
  // Fast-path constants. They are functions of the layout alone, so the
  // defaulted operator== still compares layout and contents only.
  double log2_lo_ = 0.0;       ///< log2(lo).
  double per_octave_ = 0.0;    ///< buckets per octave: bpd * log10(2).
  double edge_margin_ = 0.0;   ///< bound on the estimate's error, in buckets.
  double last_pos_ = 0.0;      ///< (buckets - 1) + edge_margin_.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rtopex::obs
