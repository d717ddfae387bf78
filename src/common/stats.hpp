// Statistics used by the measurement harness (Section 5 of the paper):
// means, sample variance, 95% confidence intervals (Figure 1(e)) and the
// variance series of Figure 1(f).
//
// The accumulators are MERGEABLE so that parallel trial shards can each
// fold locally and be combined afterwards: RunningStats::merge is Chan's
// pairwise update (associative and commutative up to floating-point
// rounding; exact for the count/min/max parts), and LogHistogram buckets
// are integer counts, so histogram merging is exactly associative.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace timing {

/// Welford online accumulator: numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Fold another accumulator into this one (Chan et al.). Merging
  /// single-observation accumulators in order is bit-identical to
  /// calling add() in that order; general merges agree with the
  /// single-pass result up to ulp-scale rounding.
  void merge(const RunningStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  double variance() const noexcept;
  double stddev() const noexcept;
  /// Standard error of the mean.
  double stderr_mean() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

  /// Half-width of the two-sided 95% confidence interval for the mean,
  /// using Student's t with n-1 degrees of freedom (as the paper does for
  /// its 33-run averages). Returns 0 for n < 2.
  double ci95_half_width() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided 97.5% quantile of Student's t distribution with df degrees of
/// freedom (so +-t covers 95%). Exact table for small df, asymptotic
/// expansion beyond.
double student_t_975(std::size_t df) noexcept;

/// Arithmetic mean of a vector (0 for empty).
double mean_of(const std::vector<double>& xs) noexcept;

/// Unbiased sample variance of a vector (0 for size < 2).
double variance_of(const std::vector<double>& xs) noexcept;

/// p-quantile (0 <= p <= 1) with linear interpolation, sorting `xs` in
/// place — the allocation-free form for hot paths that own a reusable
/// buffer (e.g. AdaptiveTimeout's sample window).
double quantile_of(std::span<double> xs, double p) noexcept;

/// Copying convenience overload (delegates to the span form).
double quantile_of(std::vector<double> xs, double p) noexcept;

/// HDR-style log-bucketed latency histogram over non-negative integer
/// values (nanoseconds in practice). The first 2^kSubBits values are
/// exact; beyond that each power-of-two range is split into
/// 2^(kSubBits-1) linear sub-buckets, so the bucket lower bound is
/// within 2^-(kSubBits-1) (≈3% at kSubBits=6) of any value it holds.
/// Counts are integers, so merge() is exactly associative and
/// commutative; the true maximum (and count) are tracked exactly.
/// quantile() returns the bucket lower bound — a deterministic
/// representative — which is what makes online percentiles and
/// percentiles rebuilt offline from the same recorded values *equal*,
/// not merely close.
class LogHistogram {
 public:
  static constexpr int kSubBits = 6;         ///< values < 64 are exact
  static constexpr int kSub = 1 << kSubBits;

  /// Record one value; negatives clamp to 0.
  void record(long long v) noexcept;
  /// Elementwise sum; always well defined (no shape to mismatch).
  void merge(const LogHistogram& other);

  std::uint64_t count() const noexcept { return count_; }
  long long max() const noexcept { return max_; }
  long long sum() const noexcept { return sum_; }
  double mean() const noexcept;
  /// Deterministic q-quantile (0 <= q <= 1): the lower bound of the
  /// bucket holding the ceil(q*count)-th smallest value; exact max for
  /// q covering the last observation. 0 when empty.
  long long quantile(double q) const noexcept;

  bool empty() const noexcept { return count_ == 0; }

  /// Index of the bucket holding v, and the smallest value a bucket can
  /// hold (its deterministic representative). Exposed for the offline
  /// span analysis, which rebuilds the online histogram bit-for-bit.
  static std::size_t bucket_of(unsigned long long v) noexcept;
  static long long bucket_lo(std::size_t bucket) noexcept;

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  std::vector<std::uint64_t> counts_;  ///< grown on demand
  std::uint64_t count_ = 0;
  long long sum_ = 0;
  long long max_ = 0;
};

}  // namespace timing
