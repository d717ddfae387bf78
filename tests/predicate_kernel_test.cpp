// Differential tests for the packed predicate kernels and the fused
// sample-and-evaluate path: the bit-plane implementations must agree
// bit-for-bit with the scalar LinkMatrix oracles on randomized matrices
// for every n in 1..65 (crossing the one-word/two-word row boundary),
// with and without crash masks, and the fused samplers must reproduce
// the exact matrices of the scalar sample_round for the same RNG
// sub-stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "models/predicates.hpp"
#include "models/schedule.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"
#include "sim/sampler.hpp"

namespace timing {
namespace {

/// Random matrix with forced-timely self links (the LinkMatrix
/// convention every sampler maintains).
LinkMatrix random_matrix(int n, double p, Rng& rng) {
  LinkMatrix a(n);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) {
      if (s == d || rng.bernoulli(p)) {
        a.set(d, s, 0);
      } else {
        a.set(d, s, rng.bernoulli(0.3)
                        ? kLost
                        : static_cast<Delay>(1 + rng.uniform_int(4)));
      }
    }
  }
  return a;
}

void expect_same_matrix(const LinkMatrix& want, const PackedLinkMatrix& got) {
  ASSERT_EQ(want.n(), got.n());
  for (ProcessId d = 0; d < want.n(); ++d) {
    for (ProcessId s = 0; s < want.n(); ++s) {
      ASSERT_EQ(want.at(d, s), got.at(d, s))
          << "cell (" << d << ", " << s << ")";
    }
  }
}

TEST(PackedLinkMatrix, SetAtRoundTripAndTailInvariant) {
  for (const int n : {1, 5, 63, 64, 65}) {
    PackedLinkMatrix a(n);
    // Fresh all-timely matrix: tail bits beyond n must be zero.
    for (ProcessId d = 0; d < n; ++d) {
      for (int w = 0; w < a.words_per_row(); ++w) {
        EXPECT_EQ(a.row_words(d)[w] & ~a.word_mask(w), 0u);
      }
      EXPECT_EQ(a.timely_into(d), n);
    }
    a.set(0, n - 1, kLost);
    EXPECT_EQ(a.at(0, n - 1), kLost);
    EXPECT_FALSE(a.timely(0, n - 1));
    a.set(0, n - 1, 3);
    EXPECT_EQ(a.at(0, n - 1), 3);
    // Re-marking timely must win over the stale delay-plane entry.
    a.set(0, n - 1, 0);
    EXPECT_EQ(a.at(0, n - 1), 0);
    EXPECT_TRUE(a.timely(0, n - 1));
    EXPECT_EQ(a.timely_count(), static_cast<std::size_t>(n) * n);
  }
}

TEST(PackedLinkMatrix, AssignFromCopyToRoundTrip) {
  Rng rng(0x5eedULL);
  for (const int n : {1, 2, 64, 65}) {
    const LinkMatrix a = random_matrix(n, 0.7, rng);
    PackedLinkMatrix q(n);
    q.assign_from(a);
    expect_same_matrix(a, q);
    LinkMatrix back;
    q.copy_to(back);
    for (ProcessId d = 0; d < n; ++d) {
      for (ProcessId s = 0; s < n; ++s) {
        EXPECT_EQ(back.at(d, s), a.at(d, s));
      }
    }
    // Counts agree with the scalar oracles.
    for (ProcessId i = 0; i < n; ++i) {
      EXPECT_EQ(q.timely_into(i), a.timely_into(i));
      EXPECT_EQ(q.timely_out_of(i), a.timely_out_of(i));
    }
    EXPECT_DOUBLE_EQ(q.timely_fraction(), a.timely_fraction());
  }
}

TEST(PackedLinkMatrix, LargeNTimelyFractionDoesNotOverflow) {
  // n^2 = 2'147'488'281 > INT_MAX: the historical int division made this
  // UB/garbage. The bit plane holds 46341 x 725 words (~268 MB); the
  // delay plane is never allocated for an all-timely matrix.
  const int n = 46341;
  PackedLinkMatrix a(n);
  EXPECT_EQ(a.timely_count(), static_cast<std::size_t>(n) * n);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), 1.0);
  a.set_untimely(0, 1, kLost);
  const auto total = static_cast<double>(static_cast<std::size_t>(n) * n);
  EXPECT_DOUBLE_EQ(a.timely_fraction(), (total - 1.0) / total);
}

TEST(PredicateKernel, MatchesScalarForAllNAcrossWordBoundary) {
  Rng rng(0xd1ffULL);
  for (int n = 1; n <= 65; ++n) {
    for (const double p : {0.35, 0.8, 0.97}) {
      const LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const auto leader =
          static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      EXPECT_EQ(satisfies_es(a), satisfies_es(q)) << "n=" << n;
      EXPECT_EQ(satisfies_lm(a, leader), satisfies_lm(q, leader)) << "n=" << n;
      EXPECT_EQ(satisfies_wlm(a, leader), satisfies_wlm(q, leader))
          << "n=" << n;
      EXPECT_EQ(satisfies_afm(a), satisfies_afm(q)) << "n=" << n;
      EXPECT_EQ(evaluate_all(a, leader), evaluate_all(q, leader))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(PredicateKernel, MatchesScalarUnderCrashMasks) {
  Rng rng(0xc4a5ULL);
  for (int n = 2; n <= 65; n += (n < 10 ? 1 : 7)) {
    for (int rep = 0; rep < 6; ++rep) {
      const LinkMatrix a = random_matrix(n, 0.85, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      CorrectMask correct(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) correct[i] = rng.bernoulli(0.8);
      const auto leader =
          static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      EXPECT_EQ(satisfies_es(a, &correct), satisfies_es(q, &correct));
      EXPECT_EQ(satisfies_lm(a, leader, &correct),
                satisfies_lm(q, leader, &correct));
      EXPECT_EQ(satisfies_wlm(a, leader, &correct),
                satisfies_wlm(q, leader, &correct));
      EXPECT_EQ(satisfies_afm(a, &correct), satisfies_afm(q, &correct));
      EXPECT_EQ(evaluate_all(a, leader, &correct),
                evaluate_all(q, leader, &correct))
          << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(PredicateKernel, EvaluateAllEmitsSamePredicateEvent) {
  Rng rng(0xe4e2ULL);
  const LinkMatrix a = random_matrix(9, 0.8, rng);
  PackedLinkMatrix q(9);
  q.assign_from(a);
  BufferSink scalar_sink;
  BufferSink packed_sink;
  (void)evaluate_all(a, 2, nullptr, &scalar_sink, 7);
  (void)evaluate_all(q, 2, nullptr, &packed_sink, 7);
  ASSERT_EQ(scalar_sink.events().size(), 1u);
  ASSERT_EQ(packed_sink.events().size(), 1u);
  EXPECT_TRUE(scalar_sink.events()[0] == packed_sink.events()[0]);
}

TEST(FusedKernel, IidPackedSampleMatchesScalarSubstream) {
  for (const int n : {2, 8, 64, 65}) {
    IidTimelinessSampler scalar(n, 0.9, 0xabcdULL);
    IidTimelinessSampler packed(n, 0.9, 0xabcdULL);
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    for (Round k = 1; k <= 12; ++k) {
      scalar.sample_round(k, a);
      packed.sample_round(k, q);
      expect_same_matrix(a, q);
    }
  }
}

TEST(FusedKernel, IidFusedReproducesScalarMatricesAndMask) {
  for (const int n : {2, 8, 33, 64, 65}) {
    IidTimelinessSampler scalar(n, 0.85, 0x1234ULL);
    IidTimelinessSampler fused(n, 0.85, 0x1234ULL);
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    ColumnDeficits cols;
    const ProcessId leader = n > 2 ? 2 : 0;
    for (Round k = 1; k <= 12; ++k) {
      scalar.sample_round(k, a);
      const FusedRoundEval e = fused.sample_round_and_evaluate(k, leader, q, cols);
      expect_same_matrix(a, q);
      EXPECT_EQ(e.mask, evaluate_all(a, leader)) << "n=" << n << " k=" << k;
      // Fate tallies must match a scalar count over the off-diagonal.
      long long timely = 0, late = 0, lost = 0;
      for (ProcessId d = 0; d < n; ++d) {
        for (ProcessId s = 0; s < n; ++s) {
          if (s == d) continue;
          const Delay f = a.at(d, s);
          if (f == 0) ++timely;
          else if (f == kLost) ++lost;
          else ++late;
        }
      }
      EXPECT_EQ(e.timely, timely);
      EXPECT_EQ(e.late, late);
      EXPECT_EQ(e.lost, lost);
    }
  }
}

TEST(FusedKernel, LatencyFusedReproducesScalarMatricesAndMask) {
  // WAN (fixed 8 sites) and a larger LAN group.
  WanProfile wan;
  WanLatencyModel wan_scalar(wan, 77);
  WanLatencyModel wan_fused(wan, 77);
  LanProfile lan;
  lan.n = 16;
  LanLatencyModel lan_scalar(lan, 78);
  LanLatencyModel lan_fused(lan, 78);
  const std::pair<LatencyModel*, LatencyModel*> pairs[] = {
      {&wan_scalar, &wan_fused}, {&lan_scalar, &lan_fused}};
  for (const auto& [scalar_model, fused_model] : pairs) {
    const int n = scalar_model->n();
    LatencyTimelinessSampler scalar(*scalar_model, 170.0);
    LatencyTimelinessSampler fused(*fused_model, 170.0);
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    ColumnDeficits cols;
    for (Round k = 1; k <= 10; ++k) {
      scalar.sample_round(k, a);
      const FusedRoundEval e = fused.sample_round_and_evaluate(k, 0, q, cols);
      expect_same_matrix(a, q);
      EXPECT_EQ(e.mask, evaluate_all(a, 0)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(FusedKernel, OneLatencyPlaneClassifiesAgainstEveryTimeout) {
  // classify_round is pure in the drawn plane: one draw classified at
  // each timeout must equal the scalar sampler run afresh at that timeout
  // on the same sub-stream — matrix, mask and fate tallies. The IID model
  // reports latencies in units of its implied 1 ms timeout, so the short
  // timeouts below turn its stragglers into late fates and, past
  // kDefaultMaxDelayRounds, lost ones; n crosses the row-word boundary.
  const double timeouts[] = {0.004, 0.01, 0.3, 1.0, 2.5, 40.0};
  for (const int n : {2, 7, 63, 64, 65, 130}) {
    IidLatencyModel model(n, 0.8, 0x5eed + static_cast<std::uint64_t>(n));
    std::vector<IidLatencyModel> fresh;
    for (std::size_t t = 0; t < std::size(timeouts); ++t) {
      fresh.emplace_back(n, 0.8, 0x5eed + static_cast<std::uint64_t>(n));
    }
    std::vector<LatencyTimelinessSampler> scalar;
    for (std::size_t t = 0; t < std::size(timeouts); ++t) {
      scalar.emplace_back(fresh[t], timeouts[t]);
    }
    std::vector<double> latency;
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    ColumnDeficits cols;
    const ProcessId leader = n / 2;
    for (Round k = 1; k <= 4; ++k) {
      draw_latency_round(model, k, latency);
      for (std::size_t t = 0; t < std::size(timeouts); ++t) {
        const FusedRoundEval e = classify_round(
            latency, timeouts[t], kDefaultMaxDelayRounds, leader, q, cols);
        scalar[t].sample_round(k, a);
        expect_same_matrix(a, q);
        EXPECT_EQ(e.mask, evaluate_all(a, leader))
            << "n=" << n << " k=" << k << " timeout=" << timeouts[t];
        FusedRoundEval want;
        tally_fates(q, want);
        EXPECT_EQ(e.timely, want.timely);
        EXPECT_EQ(e.late, want.late);
        EXPECT_EQ(e.lost, want.lost);
      }
    }
  }
}

TEST(FusedKernel, LatencyPackedSampleMatchesScalarSubstream) {
  WanProfile profile;
  WanLatencyModel scalar_model(profile, 5);
  WanLatencyModel packed_model(profile, 5);
  LatencyTimelinessSampler scalar(scalar_model, 140.0);
  LatencyTimelinessSampler packed(packed_model, 140.0);
  LinkMatrix a(scalar.n());
  PackedLinkMatrix q(scalar.n());
  for (Round k = 1; k <= 10; ++k) {
    scalar.sample_round(k, a);
    packed.sample_round(k, q);
    expect_same_matrix(a, q);
  }
}

TEST(FusedKernel, ScheduleSamplerPackedFallbackMatchesScalar) {
  ScheduleConfig cfg;
  cfg.n = 7;
  cfg.model = TimingModel::kWlm;
  cfg.gsr = 3;
  ScheduleSampler scalar(cfg);
  ScheduleSampler packed(cfg);
  LinkMatrix a(cfg.n);
  PackedLinkMatrix q(cfg.n);
  for (Round k = 1; k <= 8; ++k) {
    scalar.sample_round(k, a);
    packed.sample_round(k, q);  // base-class packed fallback
    expect_same_matrix(a, q);
  }
}

TEST(FusedKernel, DefaultFusedPathMatchesDirectKernels) {
  // The base-class sample_round_and_evaluate (packed sample + separate
  // evaluate + tally) must agree with the overridden fused loops.
  const int n = 9;
  IidTimelinessSampler direct(n, 0.8, 42);
  IidTimelinessSampler via_base(n, 0.8, 42);
  PackedLinkMatrix q1(n), q2(n);
  ColumnDeficits c1, c2;
  for (Round k = 1; k <= 8; ++k) {
    const FusedRoundEval a = direct.sample_round_and_evaluate(k, 1, q1, c1);
    const FusedRoundEval b =
        via_base.TimelinessSampler::sample_round_and_evaluate(k, 1, q2, c2);
    EXPECT_EQ(a.mask, b.mask);
    EXPECT_EQ(a.timely, b.timely);
    EXPECT_EQ(a.late, b.late);
    EXPECT_EQ(a.lost, b.lost);
    for (ProcessId d = 0; d < n; ++d) {
      for (ProcessId s = 0; s < n; ++s) {
        ASSERT_EQ(q1.at(d, s), q2.at(d, s));
      }
    }
  }
}

}  // namespace
}  // namespace timing
