#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace timing {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  if (other.n_ == 1) {
    // A single observation merges through the exact add() arithmetic, so
    // folding per-trial accumulators in trial order reproduces the serial
    // loop bit for bit.
    add(other.mean_);
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double nab = na + nb;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (nb / nab);
  m2_ += other.m2_ + delta * delta * (na * nb / nab);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const noexcept {
  if (n_ < 1) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::ci95_half_width() const noexcept {
  if (n_ < 2) return 0.0;
  return student_t_975(n_ - 1) * stderr_mean();
}

double student_t_975(std::size_t df) noexcept {
  // Table of t_{0.975, df} for df = 1..30, then selected larger values.
  static constexpr double kTable[31] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
      2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
      2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
      2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df];
  if (df <= 40) return 2.021;
  if (df <= 60) return 2.000;
  if (df <= 120) return 1.980;
  return 1.960;
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance_of(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

std::size_t LogHistogram::bucket_of(unsigned long long v) noexcept {
  if (v < static_cast<unsigned long long>(kSub)) {
    return static_cast<std::size_t>(v);
  }
  // bit_width(v) > kSubBits here. Shift so the top kSubBits bits remain:
  // the sub-index lands in [kSub/2, kSub), giving kSub/2 linear
  // sub-buckets per power-of-two range.
  int width = 0;
  for (unsigned long long t = v; t != 0; t >>= 1) ++width;
  const int e = width - kSubBits;
  const auto sub = static_cast<std::size_t>(v >> e);  // in [kSub/2, kSub)
  return static_cast<std::size_t>(kSub) +
         static_cast<std::size_t>(e - 1) * (kSub / 2) + (sub - kSub / 2);
}

long long LogHistogram::bucket_lo(std::size_t bucket) noexcept {
  if (bucket < static_cast<std::size_t>(kSub)) {
    return static_cast<long long>(bucket);
  }
  const std::size_t off = bucket - static_cast<std::size_t>(kSub);
  const int e = static_cast<int>(off / (kSub / 2)) + 1;
  const auto sub = static_cast<unsigned long long>(off % (kSub / 2)) +
                   static_cast<unsigned long long>(kSub / 2);
  return static_cast<long long>(sub << e);
}

void LogHistogram::record(long long v) noexcept {
  if (v < 0) v = 0;
  const std::size_t b = bucket_of(static_cast<unsigned long long>(v));
  if (b >= counts_.size()) counts_.resize(b + 1, 0);
  ++counts_[b];
  ++count_;
  sum_ += v;
  if (count_ == 1 || v > max_) max_ = v;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.size() < other.counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t i = 0; i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::mean() const noexcept {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

long long LogHistogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q <= 0.0) q = 0.0;
  if (q >= 1.0) return max_;
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  if (rank >= count_) return max_;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cum += counts_[b];
    if (cum >= rank) return bucket_lo(b);
  }
  return max_;  // unreachable when counts are consistent
}

double quantile_of(std::span<double> xs, double p) noexcept {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0.0) return xs.front();
  if (p >= 1.0) return xs.back();
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

double quantile_of(std::vector<double> xs, double p) noexcept {
  return quantile_of(std::span<double>(xs), p);
}

}  // namespace timing
