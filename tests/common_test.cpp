// Unit tests for src/common: RNG determinism and distribution sanity,
// statistics, the exact binomial machinery the analysis relies on, and
// the round-trip double formatter plan and archive texts share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/binomial.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace timing {
namespace {

TEST(Types, MajoritySize) {
  EXPECT_EQ(majority_size(2), 2);
  EXPECT_EQ(majority_size(3), 2);
  EXPECT_EQ(majority_size(4), 3);
  EXPECT_EQ(majority_size(5), 3);
  EXPECT_EQ(majority_size(8), 5);
  EXPECT_EQ(majority_size(9), 5);
}

TEST(Types, IsMajority) {
  EXPECT_FALSE(is_majority(4, 8));
  EXPECT_TRUE(is_majority(5, 8));
  EXPECT_FALSE(is_majority(2, 5));
  EXPECT_TRUE(is_majority(3, 5));
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  Rng a2(123), c2(124);
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (a2.next() != c2.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(r.uniform_int(8), 8u);
  }
  // All residues hit for a small bound.
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_int(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, BernoulliMean) {
  Rng r(11);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

// bernoulli(p) compares uniform(), the 53-bit value x of a draw times
// 2^-53, with p; the samplers' fate walk compares x itself with
// bernoulli_threshold(p). The two agree for x at, just below and just
// above the threshold, for p on the 2^-53 grid and between its points,
// and for p <= 0, p >= 1 and NaN.
TEST(Rng, BernoulliThresholdMatchesBernoulli) {
  constexpr std::uint64_t kOne = 1ULL << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Rng::bernoulli_threshold(nan), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-kInf), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-0.5), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(-0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(DBL_TRUE_MIN), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1.0p-54), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1.0p-53), 1u);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1.8p-53), 2u);
  EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(0.5, 0.0)), kOne / 2);
  EXPECT_EQ(Rng::bernoulli_threshold(0.5), kOne / 2);
  EXPECT_EQ(Rng::bernoulli_threshold(std::nextafter(0.5, 1.0)),
            kOne / 2 + 1);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0 - 0x1.0p-53), kOne - 1);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), kOne);
  EXPECT_EQ(Rng::bernoulli_threshold(1.5), kOne);
  EXPECT_EQ(Rng::bernoulli_threshold(kInf), kOne);

  // bernoulli's comparison, for x around the threshold of each p.
  const double ps[] = {nan,  -kInf, -0.5, -0.0, 0.0, DBL_TRUE_MIN,
                       0x1.0p-54, 0x1.0p-53, 0x1.8p-53, 0.1, 0.25, 0.3,
                       std::nextafter(0.4, 0.0), 0.4,
                       std::nextafter(0.4, 1.0), 1.0 - 0x1.0p-53, 1.0,
                       1.5, kInf};
  for (const double p : ps) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (const std::uint64_t x : {t - 1, t, t + 1}) {
      if (x >= kOne) continue;  // also skips t - 1 for t = 0
      EXPECT_EQ(static_cast<double>(x) * 0x1.0p-53 < p, x < t)
          << "p=" << p << " x=" << x;
    }
  }

  // Rng::bernoulli itself: a copy of the generator reads the x the next
  // trial draws, and p is placed so that x lies at, just below or just
  // above its threshold.
  Rng rng(0xb1a5ULL);
  for (int i = 0; i < 4000; ++i) {
    Rng probe = rng;
    const std::uint64_t x = probe.next() >> 11;
    const double at = static_cast<double>(x) * 0x1.0p-53;
    const double below = static_cast<double>(x - (x > 0)) * 0x1.0p-53;
    const double above = static_cast<double>(x + 1) * 0x1.0p-53;
    EXPECT_EQ(Rng::bernoulli_threshold(at), x);
    EXPECT_EQ(Rng::bernoulli_threshold(above), x + 1);
    for (const double p : {below, std::nextafter(at, 0.0), at,
                           std::nextafter(at, 1.0), above}) {
      Rng trial = rng;
      EXPECT_EQ(trial.bernoulli(p), x < Rng::bernoulli_threshold(p))
          << "p=" << p << " x=" << x;
    }
    rng.next();
  }
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng r(17);
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(r.lognormal(1.0, 0.5));
  EXPECT_NEAR(quantile_of(xs, 0.5), std::exp(1.0), 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng r(19);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(4.0));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(Rng, ParetoSupport) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) ASSERT_GE(r.pareto(1.6, 1.4), 1.6);
}

TEST(Rng, SplitStreamsDiffer) {
  Rng r(29);
  Rng s1 = r.split();
  Rng s2 = r.split();
  bool differs = false;
  for (int i = 0; i < 16; ++i) {
    if (s1.next() != s2.next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, SubstreamsForDistinctTrialsAreDecorrelated) {
  // Draw the first 1000 values of the sub-streams for several trial
  // indices of the same root: no value may appear in two streams (64-bit
  // outputs collide with probability ~2^-44 per pair, so any overlap
  // means the streams entered the same xoshiro orbit segment).
  constexpr int kStreams = 8;
  constexpr int kDraws = 1000;
  std::set<std::uint64_t> seen;
  for (std::uint64_t trial = 0; trial < kStreams; ++trial) {
    Rng r = substream(12345, trial);
    for (int i = 0; i < kDraws; ++i) {
      const auto [it, inserted] = seen.insert(r.next());
      EXPECT_TRUE(inserted) << "streams " << trial << " overlap near draw "
                            << i;
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kStreams) * kDraws);
}

TEST(Rng, SubstreamIsStableAcrossSplitOrder) {
  // substream is a pure function of (root, index): materializing stream 5
  // first, last, or twice never changes its draws — unlike split(),
  // which depends on how often the parent was advanced.
  std::vector<std::uint64_t> first;
  {
    Rng r = substream(777, 5);
    for (int i = 0; i < 64; ++i) first.push_back(r.next());
  }
  (void)substream(777, 0);
  (void)substream(777, 9);
  Rng again = substream(777, 5);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(again.next(), first[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(substream_seed(777, 5), substream_seed(777, 5));
  EXPECT_NE(substream_seed(777, 5), substream_seed(777, 6));
  EXPECT_NE(substream_seed(777, 5), substream_seed(778, 5));
}

TEST(Stats, WelfordMatchesDirect) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), mean_of(xs));
  EXPECT_NEAR(s.variance(), variance_of(xs), 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
}

TEST(Stats, EmptyAndSingleton) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
  s.add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_half_width(), 0.0);
}

TEST(Stats, Ci95ShrinksWithN) {
  RunningStats small, large;
  Rng r(31);
  for (int i = 0; i < 5; ++i) small.add(r.normal());
  for (int i = 0; i < 500; ++i) large.add(r.normal());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

namespace {
bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  return ba == bb;
}

/// |a - b| within `ulps` units-in-the-last-place of the larger magnitude.
void expect_ulp_close(double a, double b, double ulps) {
  const double scale =
      std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_NEAR(a, b, ulps * scale * std::numeric_limits<double>::epsilon())
      << a << " vs " << b;
}
}  // namespace

TEST(Stats, MergeOfRandomShardsMatchesSinglePass) {
  // Property: splitting a sample into arbitrary contiguous shards,
  // accumulating each shard independently and merging, agrees with the
  // single-pass accumulation within ulp-scale tolerance, and exactly for
  // count/min/max.
  Rng rng(0x57a75);
  for (int rep = 0; rep < 50; ++rep) {
    const int len = 2 + static_cast<int>(rng.uniform_int(200));
    std::vector<double> xs;
    RunningStats single;
    for (int i = 0; i < len; ++i) {
      const double x = rng.lognormal(rng.uniform(-2.0, 2.0), 1.0);
      xs.push_back(x);
      single.add(x);
    }
    RunningStats merged;
    std::size_t pos = 0;
    while (pos < xs.size()) {
      const std::size_t shard_len =
          1 + rng.uniform_int(xs.size() - pos);
      RunningStats shard;
      for (std::size_t i = 0; i < shard_len; ++i) shard.add(xs[pos + i]);
      merged.merge(shard);
      pos += shard_len;
    }
    ASSERT_EQ(merged.count(), single.count());
    EXPECT_TRUE(same_bits(merged.min(), single.min()));
    EXPECT_TRUE(same_bits(merged.max(), single.max()));
    expect_ulp_close(merged.mean(), single.mean(), 16.0);
    expect_ulp_close(merged.variance(), single.variance(), 64.0);
  }
}

TEST(Stats, MergeIsAssociativeAndCommutative) {
  Rng rng(0xa550c);
  for (int rep = 0; rep < 50; ++rep) {
    RunningStats a, b, c;
    for (int i = 0; i < 1 + static_cast<int>(rng.uniform_int(40)); ++i)
      a.add(rng.normal(3.0, 2.0));
    for (int i = 0; i < 1 + static_cast<int>(rng.uniform_int(40)); ++i)
      b.add(rng.exponential(5.0));
    for (int i = 0; i < 1 + static_cast<int>(rng.uniform_int(40)); ++i)
      c.add(rng.uniform(-10.0, 10.0));

    RunningStats ab_c = a;   // (a + b) + c
    ab_c.merge(b);
    ab_c.merge(c);
    RunningStats bc = b;     // a + (b + c)
    bc.merge(c);
    RunningStats a_bc = a;
    a_bc.merge(bc);
    ASSERT_EQ(ab_c.count(), a_bc.count());
    EXPECT_TRUE(same_bits(ab_c.min(), a_bc.min()));
    EXPECT_TRUE(same_bits(ab_c.max(), a_bc.max()));
    expect_ulp_close(ab_c.mean(), a_bc.mean(), 16.0);
    expect_ulp_close(ab_c.variance(), a_bc.variance(), 64.0);

    RunningStats ab = a;     // a + b vs b + a
    ab.merge(b);
    RunningStats ba = b;
    ba.merge(a);
    ASSERT_EQ(ab.count(), ba.count());
    expect_ulp_close(ab.mean(), ba.mean(), 16.0);
    expect_ulp_close(ab.variance(), ba.variance(), 64.0);
  }
}

TEST(Stats, MergingSingletonsReproducesAddBitForBit) {
  // The harness folds per-trial accumulators in trial order; for
  // single-observation accumulators this must be THE SAME floating-point
  // arithmetic as the serial add() loop, not merely close.
  Rng rng(0xb17);
  RunningStats serial, folded;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.pareto(1.0, 1.3);
    serial.add(x);
    RunningStats one;
    one.add(x);
    folded.merge(one);
    ASSERT_TRUE(same_bits(serial.mean(), folded.mean()));
    ASSERT_TRUE(same_bits(serial.variance(), folded.variance()));
  }
}

TEST(Stats, MergeWithEmptyIsIdentity) {
  RunningStats empty, s;
  s.add(1.0);
  s.add(2.0);
  const double mean = s.mean();
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_TRUE(same_bits(s.mean(), mean));
  RunningStats t;
  t.merge(s);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_TRUE(same_bits(t.mean(), mean));
  EXPECT_EQ(t.min(), 1.0);
  EXPECT_EQ(t.max(), 2.0);
}

TEST(Stats, StudentTTable) {
  EXPECT_NEAR(student_t_975(1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_975(32), 2.037, 0.02);  // the paper's 33-run case
  EXPECT_NEAR(student_t_975(1000), 1.96, 1e-6);
}

TEST(Stats, Quantiles) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.25), 2.0);
}

TEST(Stats, QuantileInPlaceSpanOverload) {
  std::vector<double> xs = {5, 1, 3, 2, 4};
  // Sorts the caller's buffer instead of a copy; same interpolation.
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(xs), 0.25), 2.0);
  EXPECT_TRUE(std::is_sorted(xs.begin(), xs.end()));
  // Interpolation pins: p=0 -> min, p=1 -> max, interior interpolates.
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(xs), 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(xs), 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(xs), 0.375), 2.5);
  // Single element: every p returns it.
  std::vector<double> one = {7.5};
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(one), 0.0), 7.5);
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(one), 0.5), 7.5);
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(one), 1.0), 7.5);
  // Empty: 0 by convention, like the by-value overload.
  EXPECT_DOUBLE_EQ(quantile_of(std::span<double>(), 0.5), 0.0);
}

TEST(Binomial, ChooseBasics) {
  EXPECT_NEAR(std::exp(log_choose(5, 2)), 10.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(8, 4)), 70.0, 1e-9);
  EXPECT_NEAR(std::exp(log_choose(10, 0)), 1.0, 1e-9);
}

TEST(Binomial, PmfSumsToOne) {
  for (double p : {0.1, 0.5, 0.9}) {
    double sum = 0.0;
    for (int k = 0; k <= 12; ++k) sum += binomial_pmf(12, k, p);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Binomial, TailEdges) {
  EXPECT_DOUBLE_EQ(binomial_tail_ge(10, 0, 0.3), 1.0);
  EXPECT_DOUBLE_EQ(binomial_tail_ge(10, 11, 0.3), 0.0);
  EXPECT_NEAR(binomial_tail_ge(10, 10, 0.5), std::pow(0.5, 10), 1e-12);
  EXPECT_NEAR(binomial_tail_ge(1, 1, 0.25), 0.25, 1e-12);
}

TEST(Binomial, TailMonotoneInP) {
  double prev = 0.0;
  for (double p = 0.0; p <= 1.0001; p += 0.05) {
    const double t = binomial_tail_ge(9, 5, std::min(p, 1.0));
    EXPECT_GE(t + 1e-12, prev);
    prev = t;
  }
}

TEST(Binomial, LogTailMatchesLinear) {
  const double t = binomial_tail_ge(20, 15, 0.6);
  EXPECT_NEAR(std::exp(log_binomial_tail_ge(20, 15, 0.6)), t, 1e-9);
}

TEST(Binomial, ChernoffIsLowerBound) {
  for (int n : {8, 16, 64, 256}) {
    for (double p : {0.6, 0.75, 0.9, 0.99}) {
      const double exact = binomial_tail_ge(n, n / 2 + 1, p);
      const double bound = chernoff_majority_lower_bound(n, p);
      EXPECT_LE(bound, exact + 1e-9) << "n=" << n << " p=" << p;
    }
  }
  EXPECT_EQ(chernoff_majority_lower_bound(100, 0.5), 0.0);
}

/// format_double's reference: the same precision loop on ostringstream
/// and stod.
std::string stream_format_double(double v) {
  for (int prec = 6; prec <= 17; ++prec) {
    std::ostringstream os;
    os.precision(prec);
    os << v;
    if (std::stod(os.str()) == v) return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

TEST(Parse, FormatDoubleMatchesStreamFormatting) {
  // 1e6 and 2.5e7 pin the start precision: "%.6g" spells them in
  // exponent form, a later start would not.
  std::vector<double> inputs = {0.1, 1.0 / 3.0, 1e-5, 1.5, 123456789.0,
                                4.0, 1e6, 2.5e7};
  Rng rng(20261018);
  // Drop probabilities as random_fault_plan and mutate() draw them.
  for (int i = 0; i < 50000; ++i) inputs.push_back(0.25 + 0.75 * rng.uniform());
  // Random bit patterns over most of the normal range, both signs.
  while (inputs.size() < 100008) {
    const std::uint64_t bits = rng.next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v) && std::fabs(v) >= 1e-300 && std::fabs(v) <= 1e300) {
      inputs.push_back(v);
    }
  }
  for (double v : inputs) {
    const std::string text = format_double(v);
    ASSERT_EQ(text, stream_format_double(v)) << std::hexfloat << v;
    double back = 0.0;
    ASSERT_TRUE(parse_double(text, back)) << text;
    ASSERT_EQ(back, v) << text;
  }

  // Next to DBL_MIN, and for subnormals, the stream loop's stod may throw
  // std::out_of_range on an underflowing read. format_double must return
  // text that strtod reads back exactly.
  for (double v : {DBL_MIN, std::nextafter(DBL_MIN, 1.0),
                   std::nextafter(DBL_MIN, 0.0), DBL_MIN / 3.0,
                   -DBL_MIN / 1024.0, DBL_TRUE_MIN}) {
    std::string text;
    EXPECT_NO_THROW(text = format_double(v));
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(Table, FormatsRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os, "caption");
  const std::string s = os.str();
  EXPECT_NE(s.find("caption"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "plain"});
  t.add_row({"2", "with,comma"});
  t.add_row({"3", "with\"quote"});
  std::ostringstream os;
  t.print_csv(os, "cap");
  EXPECT_EQ(os.str(),
            "# cap\na,b\n1,plain\n2,\"with,comma\"\n3,\"with\"\"quote\"\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::integer(3.6), "4");
  EXPECT_EQ(Table::num(std::numeric_limits<double>::infinity()), "inf");
}

}  // namespace
}  // namespace timing
