// Differential tests for the packed predicate kernel and the
// sample-and-evaluate path: the bit-plane evaluation must agree
// bit-for-bit with the scalar LinkMatrix oracles on randomized matrices
// for every n in 1..65 and 127..130 (crossing the one-, two- and
// three-word row boundaries), and the packed samplers must reproduce the
// exact matrices of the scalar sample_round for the same RNG sub-stream,
// alone and under fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "models/link_model_matrix.hpp"
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

/// Every cell of `got` has the fate of `want`, and every tail bit past
/// column n - 1 is zero.
::testing::AssertionResult same_fates(const LinkMatrix& want,
                                      const PackedLinkMatrix& got) {
  if (want.n() != got.n()) {
    return ::testing::AssertionFailure() << "sizes differ";
  }
  for (ProcessId d = 0; d < want.n(); ++d) {
    for (ProcessId s = 0; s < want.n(); ++s) {
      if (want.at(d, s) != got.at(d, s)) {
        return ::testing::AssertionFailure()
               << "cell (" << d << ", " << s << "): scalar " << want.at(d, s)
               << ", packed " << got.at(d, s);
      }
    }
    for (int w = 0; w < got.words_per_row(); ++w) {
      if ((got.row_words(d)[w] & ~got.word_mask(w)) != 0) {
        return ::testing::AssertionFailure()
               << "row " << d << " has tail bits set in word " << w;
      }
    }
  }
  return ::testing::AssertionSuccess();
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
    ASSERT_TRUE(same_fates(a, q));
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
  // 1..65, then 127..130: one-, two- and three-word rows.
  for (int n = 1; n <= 130; n = n == 65 ? 127 : n + 1) {
    for (const double p : {0.35, 0.8, 0.97}) {
      const LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const auto leader =
          static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
      const std::uint8_t packed = evaluate_all(q, leader);
      EXPECT_EQ(evaluate_all(a, leader), packed) << "n=" << n << " p=" << p;
      for (TimingModel m : kAllModels) {
        EXPECT_EQ((packed >> static_cast<int>(m)) & 1u,
                  satisfies(m, a, leader) ? 1u : 0u)
            << "n=" << n << " model=" << static_cast<int>(m);
      }
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
  (void)evaluate_all(q, 2, &packed_sink, 7);
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
      ASSERT_TRUE(same_fates(a, q));
    }
  }
}

// The same at the edges of each cell's timeliness draw, a uniform compared
// with p: never, the smallest step above 0, the loss share and the
// lateness probability, one step below 1, and always.
TEST(FusedKernel, IidPackedSampleMatchesScalarAtEdgeProbabilities) {
  const double probabilities[] = {0.0, 0x1.0p-53, 0.25, 0.4, 0.9,
                                  1.0 - 0x1.0p-53, 1.0};
  for (const int n : {2, 5, 64, 65}) {
    LinkMatrix a(n);
    PackedLinkMatrix q(n);
    for (const double p : probabilities) {
      IidTimelinessSampler scalar(n, p, 0x11d0ULL + static_cast<unsigned>(n));
      IidTimelinessSampler packed(n, p, 0x11d0ULL + static_cast<unsigned>(n));
      for (Round k = 1; k <= 12; ++k) {
        scalar.sample_round(k, a);
        packed.sample_round(k, q);
        ASSERT_TRUE(same_fates(a, q))
            << "n=" << n << " p=" << p << " round " << k;
      }
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
      ASSERT_TRUE(same_fates(a, q));
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
      ASSERT_TRUE(same_fates(a, q));
      EXPECT_EQ(e.mask, evaluate_all(a, 0)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(FusedKernel, OneLatencyPlaneClassifiesAgainstEveryTimeout) {
  // classify_round is pure in the drawn plane: one draw classified at
  // each timeout must equal the scalar sampler run afresh at that timeout
  // on the same sub-stream — matrix and fate tallies. The IID model
  // reports latencies in units of its implied 1 ms timeout, so the short
  // timeouts below turn its stragglers into late fates and, past
  // kMaxDelayRounds, lost ones; n crosses the row-word boundary.
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
    for (Round k = 1; k <= 4; ++k) {
      draw_latency_round(model, k, latency);
      for (std::size_t t = 0; t < std::size(timeouts); ++t) {
        const FusedRoundEval e =
            classify_round(latency, timeouts[t], q);
        scalar[t].sample_round(k, a);
        ASSERT_TRUE(same_fates(a, q));
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
    ASSERT_TRUE(same_fates(a, q));
  }
}


/// Crash rounds for `n` processes: the spare minority crashes at random
/// rounds in [1, last], the rest never do.
std::vector<Round> random_crash_rounds(int n, Round last, Rng& rng) {
  std::vector<Round> crash(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < n - majority_size(n); ++c) {
    const auto i = rng.uniform_int(static_cast<std::uint64_t>(n));
    crash[i] = 1 + static_cast<Round>(
                       rng.uniform_int(static_cast<std::uint64_t>(last)));
  }
  return crash;
}

// The packed ScheduleSampler draws straight into the bit plane. Round by
// round it must give the scalar reference's fates for every model, both
// post-GSR flavours, with and without crashes, under no link matrix, an
// all-sync one and a mixed one, for n on both sides of the row-word
// boundaries, over rounds on both sides of GSR. One matrix per n takes
// every run, so a row left uncleared or a repair reading a stale delay
// plane shows up as a wrong cell.
TEST(FusedKernel, ScheduleSamplerPackedMatchesScalar) {
  constexpr Round kGsr = 20;
  constexpr Round kRounds = 40;
  Rng rng(0x5c7ed01eULL);
  for (const int n : {2, 3, 5, 7, 63, 64, 65, 130}) {
    PackedLinkMatrix q(n);
    LinkMatrix a(n);
    const std::array<LinkModelMatrix, 3> matrices = {
        LinkModelMatrix(), LinkModelMatrix(n),
        LinkModelMatrix::mixed(n, 0.25, 0.3, rng.next())};
    for (const LinkModelMatrix& links : matrices) {
      for (const bool crashes : {false, true}) {
        for (const TimingModel model :
             {TimingModel::kEs, TimingModel::kLm, TimingModel::kWlm,
              TimingModel::kAfm}) {
          for (const bool minimal : {false, true}) {
            ScheduleConfig cfg;
            cfg.n = n;
            cfg.model = model;
            cfg.leader = static_cast<ProcessId>(
                rng.uniform_int(static_cast<std::uint64_t>(n)));
            cfg.gsr = kGsr;
            cfg.minimal = minimal;
            cfg.seed = rng.next();
            if (crashes) cfg.crash_rounds = random_crash_rounds(n, kRounds, rng);
            cfg.link_models = links;
            ScheduleSampler scalar(cfg);
            ScheduleSampler packed(cfg);
            for (Round k = 1; k <= kRounds; ++k) {
              scalar.sample_round(k, a);
              packed.sample_round(k, q);
              ASSERT_TRUE(same_fates(a, q))
                  << "n=" << n << " model=" << to_string(model)
                  << " minimal=" << minimal << " crashes=" << crashes
                  << " links=" << links.n() << " round " << k;
            }
          }
        }
      }
    }
  }
}

// The same at the edges of the pre-GSR timeliness draw, a uniform compared
// with pre_gsr_p: never, the smallest step above 0, either side of the
// untimely draws' own 0.4, one step below 1, and always. The post-GSR
// rounds that follow draw at their own probability, so a packed path
// that took a different number of draws before GSR shows there too.
TEST(FusedKernel, ScheduleSamplerPackedMatchesScalarAtEdgeProbabilities) {
  constexpr Round kGsr = 20;
  constexpr Round kRounds = 40;
  const double probabilities[] = {0.0,
                                  0x1.0p-53,
                                  std::nextafter(0.4, 0.0),
                                  0.4,
                                  std::nextafter(0.4, 1.0),
                                  1.0 - 0x1.0p-53,
                                  1.0};
  for (const int n : {2, 5, 64, 65}) {
    PackedLinkMatrix q(n);
    LinkMatrix a(n);
    for (const double p : probabilities) {
      for (const TimingModel model : {TimingModel::kEs, TimingModel::kWlm}) {
        for (const bool minimal : {false, true}) {
          ScheduleConfig cfg;
          cfg.n = n;
          cfg.model = model;
          cfg.leader = n - 1;
          cfg.gsr = kGsr;
          cfg.pre_gsr_p = p;
          cfg.minimal = minimal;
          cfg.seed = 0xed9eULL + static_cast<unsigned>(n);
          ScheduleSampler scalar(cfg);
          ScheduleSampler packed(cfg);
          for (Round k = 1; k <= kRounds; ++k) {
            scalar.sample_round(k, a);
            packed.sample_round(k, q);
            ASSERT_TRUE(same_fates(a, q))
                << "n=" << n << " pre_gsr_p=" << p
                << " model=" << to_string(model) << " minimal=" << minimal
                << " round " << k;
          }
        }
      }
    }
  }
}

// The same under the chaos gates' composition: a FaultInjector editing
// each round of a schedule drawn under a random fault plan.
TEST(FusedKernel, FaultInjectedSchedulePackedMatchesScalar) {
  constexpr int kN = 5;
  constexpr Round kRounds = 40;
  PackedLinkMatrix q(kN);
  LinkMatrix a(kN);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const ProcessId leader = static_cast<ProcessId>(seed % kN);
    const fault::FaultPlan plan = fault::random_fault_plan(kN, leader, seed);
    for (const TimingModel model :
         {TimingModel::kEs, TimingModel::kLm, TimingModel::kWlm,
          TimingModel::kAfm}) {
      ScheduleConfig cfg;
      cfg.n = kN;
      cfg.model = model;
      cfg.leader = leader;
      cfg.gsr = plan.gsr;
      cfg.seed = seed;
      cfg.crash_rounds = fault::crash_rounds(plan, kN);
      fault::InjectorConfig icfg;
      icfg.n = kN;
      icfg.leader = leader;
      icfg.seed = seed;
      ScheduleSampler scalar_schedule(cfg);
      ScheduleSampler packed_schedule(cfg);
      fault::FaultInjector scalar_injector(plan, icfg);
      fault::FaultInjector packed_injector(plan, icfg);
      fault::FaultInjectedSampler scalar(scalar_schedule, scalar_injector);
      fault::FaultInjectedSampler packed(packed_schedule, packed_injector);
      for (Round k = 1; k <= kRounds; ++k) {
        scalar.sample_round(k, a);
        packed.sample_round(k, q);
        ASSERT_TRUE(same_fates(a, q))
            << "plan seed " << seed << " model=" << to_string(model)
            << " round " << k << "\n"
            << plan.spec();
      }
    }
  }
}

// Every predicate only gains from a timely link: turning one untimely
// cell timely never clears a bit of the homogeneous mask or of the
// granular sat and csat masks, with or without crashes. The timeout
// sweep's rank step (sim/sampler.hpp's rank_round) is exact because of
// this property.
TEST(PredicateMonotonicity, OneMoreTimelyLinkNeverClearsABit) {
  Rng rng(0x303eULL);
  long long gained = 0;  // flips that set some bit: the property has teeth
  for (const int n : {2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 63, 64, 65}) {
    for (const double p : {0.5, 0.85, 0.97}) {
      LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const GranularContext g{LinkModelMatrix::mixed(n, 0.25, 0.3, rng.next())};
      CorrectMask correct(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) correct[i] = rng.bernoulli(0.8);
      const auto leader = static_cast<ProcessId>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      std::vector<std::pair<ProcessId, ProcessId>> untimely;
      for (ProcessId d = 0; d < n; ++d) {
        for (ProcessId s = 0; s < n; ++s) {
          if (!a.timely(d, s)) untimely.emplace_back(d, s);
        }
      }
      for (std::size_t i = untimely.size(); i > 1; --i) {
        std::swap(untimely[i - 1], untimely[rng.uniform_int(i)]);
      }
      untimely.resize(std::min<std::size_t>(untimely.size(), 24));

      for (const CorrectMask* c : {static_cast<const CorrectMask*>(nullptr),
                                   static_cast<const CorrectMask*>(&correct)}) {
        // Scalar and packed homogeneous masks, then granular sat | csat << 4
        // (the packed kernel takes no crash mask).
        const auto masks = [&] {
          const std::uint8_t hs = evaluate_all(a, leader, c);
          const std::uint8_t hp = c == nullptr ? evaluate_all(q, leader) : hs;
          const GranularEval gs = evaluate_all_granular(a, leader, g, c);
          const GranularEval gp =
              c == nullptr ? evaluate_all_granular(q, leader, g) : gs;
          return std::array<unsigned, 4>{
              hs, hp,
              gs.sat | (static_cast<unsigned>(gs.csat) << 4),
              gp.sat | (static_cast<unsigned>(gp.csat) << 4)};
        };
        const std::array<unsigned, 4> before = masks();
        for (const auto& [d, s] : untimely) {
          const Delay old = a.at(d, s);
          a.set(d, s, 0);
          q.set(d, s, 0);
          const std::array<unsigned, 4> after = masks();
          a.set(d, s, old);
          q.set(d, s, old);
          for (std::size_t k = 0; k < before.size(); ++k) {
            ASSERT_EQ(after[k] & before[k], before[k])
                << "n=" << n << " p=" << p << " crash=" << (c != nullptr)
                << " cell (" << d << ", " << s << ") mask " << k;
          }
          if (after != before) ++gained;
        }
      }
    }
  }
  EXPECT_GT(gained, 0);
}

}  // namespace
}  // namespace timing
