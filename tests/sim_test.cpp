// Unit tests for src/sim: the link matrix and the latency models /
// timeliness samplers that stand in for the paper's testbeds.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "sim/latency_model.hpp"
#include "sim/link_matrix.hpp"
#include "sim/sampler.hpp"

namespace timing {
namespace {

TEST(LinkMatrix, BasicAccess) {
  LinkMatrix a(4, kLost);
  EXPECT_EQ(a.n(), 4);
  EXPECT_FALSE(a.timely(0, 1));
  a.set(0, 1, 0);
  EXPECT_TRUE(a.timely(0, 1));
  a.set(2, 3, 5);
  EXPECT_EQ(a.at(2, 3), 5);
  EXPECT_FALSE(a.timely(2, 3));
}

TEST(LinkMatrix, RowColumnCounts) {
  LinkMatrix a(3, kLost);
  a.set(0, 0, 0);
  a.set(0, 1, 0);
  a.set(2, 1, 0);
  EXPECT_EQ(a.timely_into(0), 2);
  EXPECT_EQ(a.timely_into(1), 0);
  EXPECT_EQ(a.timely_into(2), 1);
  EXPECT_EQ(a.timely_out_of(1), 2);
  EXPECT_EQ(a.timely_out_of(2), 0);
}

TEST(LinkMatrix, TimelyFraction) {
  LinkMatrix a(2, 0);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 1.0);
  a.set(0, 1, kLost);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 0.75);
  a.fill(kLost);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 0.0);
}

TEST(IidSampler, MatchesP) {
  IidTimelinessSampler s(8, 0.9, 77);
  LinkMatrix a(8);
  long long timely = 0, total = 0;
  for (Round k = 1; k <= 2000; ++k) {
    s.sample_round(k, a);
    for (ProcessId d = 0; d < 8; ++d) {
      ASSERT_TRUE(a.timely(d, d)) << "self link must be timely";
      for (ProcessId src = 0; src < 8; ++src) {
        if (src == d) continue;
        ++total;
        timely += a.timely(d, src) ? 1 : 0;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(timely) / total, 0.9, 0.005);
}

TEST(IidSampler, ExtremeP) {
  IidTimelinessSampler all(4, 1.0, 1), none(4, 0.0, 1);
  LinkMatrix a(4);
  all.sample_round(1, a);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 1.0);
  none.sample_round(1, a);
  for (ProcessId d = 0; d < 4; ++d) {
    for (ProcessId s = 0; s < 4; ++s) {
      EXPECT_EQ(a.timely(d, s), d == s);
    }
  }
}

// A sampler fills exactly its own n x n: a smaller matrix would be
// written past its end and a larger one only in part, so both abort.
TEST(SamplerDeathTest, IidScalarRejectsAMatrixOfAnotherSize) {
  IidTimelinessSampler s(8, 0.5, 1);
  LinkMatrix small(3);
  LinkMatrix large(9);
  EXPECT_DEATH(s.sample_round(1, small), "matrix size must match");
  EXPECT_DEATH(s.sample_round(1, large), "matrix size must match");
}

TEST(SamplerDeathTest, IidPackedRejectsAMatrixOfAnotherSize) {
  IidTimelinessSampler s(8, 0.5, 1);
  PackedLinkMatrix small(3);
  PackedLinkMatrix large(9);
  EXPECT_DEATH(s.sample_round(1, small), "matrix size must match");
  EXPECT_DEATH(s.sample_round(1, large), "matrix size must match");
}

TEST(SamplerDeathTest, LatencyScalarRejectsAMatrixOfAnotherSize) {
  WanLatencyModel model(WanProfile{}, 1);  // 8 sites
  LatencyTimelinessSampler s(model, 170.0);
  LinkMatrix small(3);
  LinkMatrix large(9);
  EXPECT_DEATH(s.sample_round(1, small), "matrix size must match");
  EXPECT_DEATH(s.sample_round(1, large), "matrix size must match");
}

TEST(IidLatencyModel, RespectsImpliedTimeout) {
  IidLatencyModel m(8, 0.8, 5, 0.25, 1.0);
  m.begin_round(1);
  int timely = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double ms = m.sample_ms(0, 1);
    if (ms <= 1.0) ++timely;
  }
  EXPECT_NEAR(static_cast<double>(timely) / trials, 0.8, 0.01);
}

TEST(LatencySampler, ThresholdsAndDelays) {
  // A degenerate one-value latency model for exact behaviour checks.
  class Fixed final : public LatencyModel {
   public:
    explicit Fixed(double ms) : ms_(ms) {}
    int n() const noexcept override { return 3; }
    void begin_round(Round) override {}
    double sample_ms(ProcessId s, ProcessId d) override {
      return s == d ? 0.0 : ms_;
    }
    double ms_;
  };

  Fixed model(30.0);
  LatencyTimelinessSampler s(model, 100.0);
  LinkMatrix a(3);
  s.sample_round(1, a);
  EXPECT_TRUE(a.timely(0, 1));  // 30 <= 100

  model.ms_ = 250.0;  // floor(250/100) = 2 rounds late
  s.sample_round(2, a);
  EXPECT_EQ(a.at(0, 1), 2);

  model.ms_ = std::numeric_limits<double>::infinity();
  s.sample_round(3, a);
  EXPECT_EQ(a.at(0, 1), kLost);
}

TEST(LanModel, SelfLatencyZero) {
  LanLatencyModel m(LanProfile{}, 11);
  m.begin_round(1);
  EXPECT_EQ(m.sample_ms(3, 3), 0.0);
}

TEST(LanModel, LatenciesPositiveAndFinite_MostOfTheTime) {
  LanLatencyModel m(LanProfile{}, 13);
  int lost = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    m.begin_round(i + 1);
    const double ms = m.sample_ms(0, 1);
    if (!std::isfinite(ms)) {
      ++lost;
      continue;
    }
    ASSERT_GT(ms, 0.0);
    ASSERT_LT(ms, 1000.0);
  }
  EXPECT_LT(lost, trials / 100);
}

TEST(WanModel, SiteNamesAndBaseSymmetry) {
  WanLatencyModel m(WanProfile{}, 17);
  EXPECT_EQ(m.node_name(WanLatencyModel::kUk), "UK");
  EXPECT_EQ(m.node_name(5), "PL");
  for (ProcessId i = 0; i < 8; ++i) {
    for (ProcessId j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(m.base_ms(i, j), m.base_ms(j, i));
      EXPECT_EQ(static_cast<int>(m.quality(i, j)),
                static_cast<int>(m.quality(j, i)));
    }
  }
}

TEST(WanModel, UkIsWellConnected) {
  // Every UK link is at most Medium quality and at most 95 ms base -
  // the property that justified the paper's leader choice.
  WanLatencyModel m(WanProfile{}, 19);
  for (ProcessId j = 0; j < 8; ++j) {
    if (j == WanLatencyModel::kUk) continue;
    EXPECT_NE(static_cast<int>(m.quality(WanLatencyModel::kUk, j)),
              static_cast<int>(LinkQuality::kBad));
    EXPECT_LE(m.base_ms(WanLatencyModel::kUk, j), 95.0);
  }
}

TEST(WanModel, SlowRunFlagIsSeedDependent) {
  std::set<bool> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    WanLatencyModel m(WanProfile{}, seed);
    seen.insert(m.slow_run());
  }
  EXPECT_EQ(seen.size(), 2u) << "both slow and normal runs must occur";
}

TEST(WanModel, SlowRunFractionNearConfig) {
  WanProfile prof;
  int slow = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    WanLatencyModel m(prof, static_cast<std::uint64_t>(i) * 977 + 5);
    slow += m.slow_run() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(slow) / trials, prof.slow_run_prob, 0.05);
}

TEST(WanModel, LatencyAtLeastRelatedToBase) {
  WanProfile prof;
  prof.slow_run_prob = 0.0;
  WanLatencyModel m(prof, 23);
  m.begin_round(1);
  // Average of many samples should be in the ballpark of the base.
  double sum = 0.0;
  int finite = 0;
  for (int i = 0; i < 5000; ++i) {
    const double ms = m.sample_ms(0, 6);  // CH -> UK, base 10, good
    if (std::isfinite(ms)) {
      sum += ms;
      ++finite;
    }
  }
  const double avg = sum / finite;
  EXPECT_GT(avg, 8.0);
  EXPECT_LT(avg, 16.0);
}

TEST(WanModel, BurstyOutboundRaisesChinaLatency) {
  WanProfile prof;
  prof.slow_run_prob = 0.0;
  prof.burst_enter_prob = 1.0;  // burst every round
  prof.burst_exit_prob = 0.0;
  WanLatencyModel m(prof, 29);
  m.begin_round(1);
  m.begin_round(2);
  double with_burst = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double ms = m.sample_ms(4, 0);  // CN -> CH
    if (std::isfinite(ms)) with_burst += ms;
  }
  prof.burst_enter_prob = 0.0;
  WanLatencyModel m2(prof, 29);
  m2.begin_round(1);
  double without = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double ms = m2.sample_ms(4, 0);
    if (std::isfinite(ms)) without += ms;
  }
  EXPECT_GT(with_burst / 500.0, without / 500.0 + prof.burst_extra_ms * 0.8);
}

TEST(WanModel, SlowInboundHitsOnlyPoland) {
  WanProfile prof;
  prof.slow_run_prob = 1.0;
  prof.slow_enter_prob = 1.0;
  prof.slow_exit_prob = 0.0;
  prof.burst_enter_prob = 0.0;
  WanLatencyModel m(prof, 31);
  ASSERT_TRUE(m.slow_run());
  m.begin_round(1);
  m.begin_round(2);  // episode surely active
  double pl_in = 0.0, se_in = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double a = m.sample_ms(0, 5);  // CH -> PL
    const double b = m.sample_ms(0, 7);  // CH -> SE
    if (std::isfinite(a)) pl_in += a;
    if (std::isfinite(b)) se_in += b;
  }
  EXPECT_GT(pl_in / 400.0, se_in / 400.0 + prof.slow_extra_ms * 0.8);
}

TEST(Determinism, SameSeedSameMatrices) {
  for (int variant = 0; variant < 2; ++variant) {
    WanProfile prof;
    WanLatencyModel m1(prof, 99), m2(prof, 99);
    LatencyTimelinessSampler s1(m1, 170.0), s2(m2, 170.0);
    LinkMatrix a(8), b(8);
    for (Round k = 1; k <= 50; ++k) {
      s1.sample_round(k, a);
      s2.sample_round(k, b);
      for (ProcessId d = 0; d < 8; ++d) {
        for (ProcessId s = 0; s < 8; ++s) {
          ASSERT_EQ(a.at(d, s), b.at(d, s)) << "round " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace timing
