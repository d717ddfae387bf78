// Granular (per-link) timing models: the LinkModelMatrix spec grammar,
// and the granular predicate paths against two oracles:
//  * the all-sync LinkModelMatrix must be bit-identical to the
//    homogeneous predicates for every n in 1..65 and 127..130 (crossing
//    the one-, two- and three-word row boundaries), and the scalar loops
//    under crash masks too — the refactor's backwards-compatibility
//    guarantee;
//  * on mixed matrices the packed kernel must agree bit-for-bit with the
//    scalar granular loops;
//  * relabeling the processes changes no verdict.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/equations.hpp"
#include "analysis/granular.hpp"
#include "common/rng.hpp"
#include "harness/experiments.hpp"
#include "models/link_model_matrix.hpp"
#include "models/predicates.hpp"
#include "sim/link_matrix.hpp"
#include "sim/packed_eval.hpp"

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

/// Random per-link class assignment (self links stay sync by
/// construction of LinkModelMatrix::set).
LinkModelMatrix random_classes(int n, Rng& rng) {
  LinkModelMatrix m(n);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) {
      m.set(d, s, static_cast<LinkModelClass>(rng.uniform_int(3)));
    }
  }
  return m;
}

TEST(LinkModelSpec, ParsesTheReadmeExample) {
  LinkModelMatrix m;
  ASSERT_EQ(parse_link_models("sync:all;async:0->2,3->*", 5, m), "");
  EXPECT_EQ(m.n(), 5);
  EXPECT_EQ(m.at(2, 0), LinkModelClass::kAsync);   // 0->2: src 0, dst 2
  EXPECT_EQ(m.at(0, 3), LinkModelClass::kAsync);   // 3->*: src 3, all dsts
  EXPECT_EQ(m.at(4, 3), LinkModelClass::kAsync);
  EXPECT_EQ(m.at(3, 3), LinkModelClass::kSync);    // wildcard skips self
  EXPECT_EQ(m.at(1, 0), LinkModelClass::kSync);
  EXPECT_EQ(m.count(LinkModelClass::kAsync), 1 + 4);
}

TEST(LinkModelSpec, UnmentionedLinksDefaultToSync) {
  LinkModelMatrix m;
  ASSERT_EQ(parse_link_models("psync:1->0", 3, m), "");
  EXPECT_EQ(m.at(0, 1), LinkModelClass::kPartialSync);
  EXPECT_EQ(m.count(LinkModelClass::kPartialSync), 1);
  EXPECT_FALSE(m.all_sync());
  LinkModelMatrix all;
  ASSERT_EQ(parse_link_models("sync:all", 3, all), "");
  EXPECT_TRUE(all.all_sync());
}

TEST(LinkModelSpec, LaterClausesOverwriteEarlierOnes) {
  LinkModelMatrix m;
  ASSERT_EQ(parse_link_models("async:all;sync:*->0;psync:1->2", 4, m), "");
  for (ProcessId s = 0; s < 4; ++s) {
    EXPECT_EQ(m.at(0, s), LinkModelClass::kSync) << "src " << s;
  }
  EXPECT_EQ(m.at(2, 1), LinkModelClass::kPartialSync);
  EXPECT_EQ(m.at(3, 2), LinkModelClass::kAsync);
}

TEST(LinkModelSpec, RejectsMalformedSpecs) {
  LinkModelMatrix m;
  EXPECT_NE(parse_link_models("", 3, m), "");
  EXPECT_NE(parse_link_models("fast:all", 3, m), "");
  EXPECT_NE(parse_link_models("sync", 3, m), "");
  EXPECT_NE(parse_link_models("sync:", 3, m), "");
  EXPECT_NE(parse_link_models("async:0-2", 3, m), "");
  EXPECT_NE(parse_link_models("async:0->7", 3, m), "");   // out of range
  EXPECT_NE(parse_link_models("async:x->1", 3, m), "");
  EXPECT_NE(parse_link_models("async:1->1", 3, m), "");   // self link
  // Error strings name the offending clause or pair.
  EXPECT_NE(parse_link_models("fast:all", 3, m).find("'fast'"),
            std::string::npos);
  EXPECT_NE(parse_link_models("async:0->7", 3, m).find("out of range"),
            std::string::npos);
}

TEST(LinkModelMatrix, MixedIsDeterministicAndHitsTheFractions) {
  const LinkModelMatrix a = LinkModelMatrix::mixed(10, 0.3, 0.5, 42);
  const LinkModelMatrix b = LinkModelMatrix::mixed(10, 0.3, 0.5, 42);
  for (ProcessId d = 0; d < 10; ++d) {
    for (ProcessId s = 0; s < 10; ++s) {
      ASSERT_EQ(a.at(d, s), b.at(d, s));
    }
  }
  // 90 off-diagonal links: 27 async, then half of the remaining 63
  // (rounded) psync; diagonal stays sync.
  EXPECT_EQ(a.count(LinkModelClass::kAsync), 27);
  EXPECT_EQ(a.count(LinkModelClass::kPartialSync), 32);
  for (ProcessId i = 0; i < 10; ++i) {
    EXPECT_EQ(a.at(i, i), LinkModelClass::kSync);
  }
  const LinkModelMatrix c = LinkModelMatrix::mixed(10, 0.3, 0.5, 43);
  bool any_diff = false;
  for (ProcessId d = 0; d < 10 && !any_diff; ++d) {
    for (ProcessId s = 0; s < 10; ++s) {
      if (a.at(d, s) != c.at(d, s)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff) << "different seeds should shuffle differently";
}

TEST(GranularPlanes, ClassesAndRequiredCountsMatchTheMatrix) {
  for (const int n : {2, 7, 63, 64, 65, 130}) {
    const GranularContext g(LinkModelMatrix::mixed(n, 0.3, 0.5, 17));
    const GranularPlanes& planes = g.planes();
    std::vector<int> col(static_cast<std::size_t>(n), 0);
    for (ProcessId d = 0; d < n; ++d) {
      int row = 0;
      for (ProcessId s = 0; s < n; ++s) {
        const auto c = g.matrix().at(d, s);
        ASSERT_EQ(planes.class_of(d, s), static_cast<int>(c))
            << "n=" << n << " link " << d << "<-" << s;
        const bool required = c != LinkModelClass::kAsync;
        ASSERT_EQ(planes.require(d, s), required);
        row += required ? 1 : 0;
        col[static_cast<std::size_t>(s)] += required ? 1 : 0;
      }
      EXPECT_EQ(planes.require_row_count(d), row) << "n=" << n;
    }
    for (ProcessId s = 0; s < n; ++s) {
      EXPECT_EQ(planes.require_col(s), col[static_cast<std::size_t>(s)])
          << "n=" << n;
    }
  }
}

TEST(GranularEquivalence, AllSyncMatchesHomogeneousForAllN) {
  Rng rng(0x9ea4ULL);
  // 1..65, then 127..130: one-, two- and three-word rows.
  for (int n = 1; n <= 130; n = n == 65 ? 127 : n + 1) {
    const GranularContext g{LinkModelMatrix(n)};
    ASSERT_TRUE(g.matrix().all_sync());
    for (const double p : {0.35, 0.8, 0.97}) {
      const LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const auto leader = static_cast<ProcessId>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      const std::uint8_t want = evaluate_all(a, leader);
      ASSERT_EQ(want, evaluate_all(q, leader));
      const GranularEval gs = evaluate_all_granular(a, leader, g);
      const GranularEval gp = evaluate_all_granular(q, leader, g);
      EXPECT_EQ(gs.sat, want) << "scalar n=" << n << " p=" << p;
      EXPECT_EQ(gp.sat, want) << "packed n=" << n << " p=" << p;
      // All links are sync: the sync class conforms iff every link was
      // timely; the empty psync/async classes conform vacuously.
      const std::uint8_t want_csat =
          static_cast<std::uint8_t>(((want & 1u) ? 1u : 0u) | 0b110u);
      EXPECT_EQ(gs.csat, want_csat);
      EXPECT_EQ(gp.csat, want_csat);
      for (TimingModel m : kAllModels) {
        EXPECT_EQ(satisfies_granular(m, a, leader, g),
                  satisfies(m, a, leader));
      }
    }
  }
}

TEST(GranularEquivalence, AllSyncMatchesHomogeneousUnderCrashMasks) {
  Rng rng(0xc4a6ULL);
  for (int n = 2; n <= 65; n += (n < 10 ? 1 : 7)) {
    const GranularContext g{LinkModelMatrix(n)};
    for (int rep = 0; rep < 6; ++rep) {
      const LinkMatrix a = random_matrix(n, 0.85, rng);
      CorrectMask correct(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) correct[i] = rng.bernoulli(0.8);
      const auto leader = static_cast<ProcessId>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      const std::uint8_t want = evaluate_all(a, leader, &correct);
      const GranularEval gs = evaluate_all_granular(a, leader, g, &correct);
      EXPECT_EQ(gs.sat, want) << "n=" << n << " rep=" << rep;
      for (TimingModel m : kAllModels) {
        EXPECT_EQ(satisfies_granular(m, a, leader, g, &correct),
                  satisfies(m, a, leader, &correct));
      }
    }
  }
}

TEST(GranularKernel, PackedMatchesScalarOnMixedMatrices) {
  Rng rng(0x6a4aULL);
  // 1..65, then 127..130: one-, two- and three-word rows.
  for (int n = 1; n <= 130; n = n == 65 ? 127 : n + 1) {
    const GranularContext g(random_classes(n, rng));
    for (const double p : {0.5, 0.9}) {
      const LinkMatrix a = random_matrix(n, p, rng);
      PackedLinkMatrix q(n);
      q.assign_from(a);
      const auto leader = static_cast<ProcessId>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      const GranularEval gs = evaluate_all_granular(a, leader, g);
      const GranularEval gp = evaluate_all_granular(q, leader, g);
      EXPECT_EQ(gs.sat, gp.sat) << "n=" << n << " p=" << p;
      EXPECT_EQ(gs.csat, gp.csat) << "n=" << n << " p=" << p;
      for (TimingModel m : kAllModels) {
        EXPECT_EQ((gp.sat >> static_cast<int>(m)) & 1u,
                  satisfies_granular(m, a, leader, g) ? 1u : 0u)
            << "n=" << n << " model=" << static_cast<int>(m);
      }
    }
  }
}

// Relabeling the processes, with the link classes and the leader moved
// along by the same permutation, changes no verdict: the packed kernel's
// sat and csat and both scalar oracles read the same before and after.
TEST(GranularRelabeling, PermutingProcessesKeepsEveryVerdict) {
  Rng rng(0x7e1aULL);
  // Across the cases every model both holds and fails somewhere, so the
  // property has teeth.
  std::array<bool, 4> held{};
  std::array<bool, 4> failed{};
  for (const int n : {2, 3, 7, 63, 64, 65, 129}) {
    for (int rep = 0; rep < 8; ++rep) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " rep=" << rep);
      const LinkMatrix a = random_matrix(n, rep % 4 < 2 ? 0.7 : 0.97, rng);
      const LinkModelMatrix cls =
          rep % 2 == 0 ? LinkModelMatrix(n)
                       : LinkModelMatrix::mixed(n, 0.25, 0.3, rng.next());
      const auto leader = static_cast<ProcessId>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
      std::vector<ProcessId> label(static_cast<std::size_t>(n));
      std::iota(label.begin(), label.end(), 0);
      for (std::size_t i = label.size(); i > 1; --i) {
        std::swap(label[i - 1], label[rng.uniform_int(i)]);
      }
      const auto at = [&](ProcessId i) {
        return label[static_cast<std::size_t>(i)];
      };
      LinkMatrix b(n);
      LinkModelMatrix cls_b(n);
      for (ProcessId d = 0; d < n; ++d) {
        for (ProcessId s = 0; s < n; ++s) {
          b.set(at(d), at(s), a.at(d, s));
          cls_b.set(at(d), at(s), cls.at(d, s));
        }
      }
      PackedLinkMatrix qa(n);
      PackedLinkMatrix qb(n);
      qa.assign_from(a);
      qb.assign_from(b);
      const GranularContext ga(cls);
      const GranularContext gb(cls_b);

      const GranularEval packed = evaluate_all_granular(qa, leader, ga);
      const GranularEval packed_b = evaluate_all_granular(qb, at(leader), gb);
      EXPECT_EQ(packed_b.sat, packed.sat);
      EXPECT_EQ(packed_b.csat, packed.csat);
      const GranularEval scalar = evaluate_all_granular(a, leader, ga);
      const GranularEval scalar_b = evaluate_all_granular(b, at(leader), gb);
      EXPECT_EQ(scalar_b.sat, scalar.sat);
      EXPECT_EQ(scalar_b.csat, scalar.csat);
      EXPECT_EQ(evaluate_all(b, at(leader)), evaluate_all(a, leader));
      for (std::size_t m = 0; m < held.size(); ++m) {
        held[m] = held[m] || ((scalar.sat >> m) & 1u) != 0;
        failed[m] = failed[m] || ((scalar.sat >> m) & 1u) == 0;
      }
    }
  }
  for (std::size_t m = 0; m < held.size(); ++m) {
    EXPECT_TRUE(held[m] && failed[m]) << "model " << m;
  }
}

TEST(GranularSemantics, AsyncLinksCarryNoObligation) {
  // Only the async link is untimely: granular ES still holds (no
  // required link failed) while the homogeneous predicate fails.
  LinkModelMatrix cls(3);
  cls.set(1, 0, LinkModelClass::kAsync);
  const GranularContext g(std::move(cls));
  LinkMatrix a(3, 0);
  a.set(1, 0, kLost);
  PackedLinkMatrix q(3);
  q.assign_from(a);
  EXPECT_FALSE(satisfies_es(a));
  EXPECT_TRUE(satisfies_granular(TimingModel::kEs, a, 0, g));
  const GranularEval e = evaluate_all_granular(q, 0, g);
  EXPECT_TRUE(e.sat & (1u << static_cast<int>(TimingModel::kEs)));
  // sync and psync classes conform; the async class does not.
  EXPECT_EQ(e.csat, 0b011);
}

TEST(GranularSemantics, AsyncLinksCannotCountTowardsQuorums) {
  // All links timely, but both non-self links into process 1 are async:
  // its reliable row count is 1 < majority_size(3) = 2, so <>LM and
  // <>AFM fail even though the homogeneous predicates hold.
  LinkModelMatrix cls(3);
  cls.set(1, 0, LinkModelClass::kAsync);
  cls.set(1, 2, LinkModelClass::kAsync);
  const GranularContext g(std::move(cls));
  const LinkMatrix a(3, 0);
  PackedLinkMatrix q(3);
  q.assign_from(a);
  const ProcessId leader = 0;
  EXPECT_TRUE(satisfies_lm(a, leader));
  EXPECT_TRUE(satisfies_afm(a));
  const GranularEval gs = evaluate_all_granular(a, leader, g);
  const GranularEval gp = evaluate_all_granular(q, leader, g);
  EXPECT_EQ(gs.sat, gp.sat);
  EXPECT_TRUE(gs.sat & (1u << static_cast<int>(TimingModel::kEs)));
  EXPECT_FALSE(gs.sat & (1u << static_cast<int>(TimingModel::kLm)));
  // The leader's own row has no async links, so <>WLM still holds.
  EXPECT_TRUE(gs.sat & (1u << static_cast<int>(TimingModel::kWlm)));
  EXPECT_FALSE(gs.sat & (1u << static_cast<int>(TimingModel::kAfm)));
  // Everything was timely, so every class conforms.
  EXPECT_EQ(gs.csat, 0b111);
}

TEST(GranularTrace, EmitsPredicateEventWithClassConformance) {
  Rng rng(0xe4e3ULL);
  const LinkMatrix a = random_matrix(9, 0.8, rng);
  PackedLinkMatrix q(9);
  q.assign_from(a);
  const GranularContext g(LinkModelMatrix::mixed(9, 0.25, 0.25, 7));
  BufferSink scalar_sink;
  BufferSink packed_sink;
  const GranularEval e = evaluate_all_granular(a, 2, g, nullptr,
                                               &scalar_sink, 7);
  (void)evaluate_all_granular(q, 2, g, &packed_sink, 7);
  ASSERT_EQ(scalar_sink.events().size(), 1u);
  ASSERT_EQ(packed_sink.events().size(), 1u);
  EXPECT_TRUE(scalar_sink.events()[0] == packed_sink.events()[0]);
  const TraceEvent& ev = scalar_sink.events()[0];
  EXPECT_EQ(ev.kind, EventKind::kPredicateEval);
  EXPECT_EQ(ev.sat, e.sat);
  EXPECT_EQ(ev.csat, e.csat);
  EXPECT_NE(ev.csat, kTraceNoClassSat);
  // The homogeneous entry point leaves csat at the sentinel.
  BufferSink homog_sink;
  (void)evaluate_all(a, 2, nullptr, &homog_sink, 7);
  ASSERT_EQ(homog_sink.events().size(), 1u);
  EXPECT_EQ(homog_sink.events()[0].csat, kTraceNoClassSat);
}

TEST(GranularAnalysis, AllSyncMatchesClosedForms) {
  // With every link sync and p_sync = p the Poisson-binomial tails
  // collapse to the paper's binomial closed forms; the DP reassociates
  // the products, so compare with a tight relative tolerance.
  // equations.hpp's closed forms require n > 1 (valid_np); the granular
  // formulas have no such restriction, so start the comparison at 2.
  for (const int n : {2, 3, 5, 8, 16, 33}) {
    for (const double p : {0.35, 0.8, 0.97}) {
      const LinkModelMatrix m(n);
      analysis::GranularLinkProbs q;
      q.p_sync = p;
      const ProcessId leader = n / 2;
      const double tol = 1e-12;
      EXPECT_NEAR(analysis::granular_p_es(m, q), analysis::p_es(n, p),
                  tol * analysis::p_es(n, p))
          << "n=" << n << " p=" << p;
      EXPECT_NEAR(analysis::granular_p_lm(m, leader, q),
                  analysis::p_lm(n, p), tol)
          << "n=" << n << " p=" << p;
      EXPECT_NEAR(analysis::granular_p_wlm(m, leader, q),
                  analysis::p_wlm(n, p), tol)
          << "n=" << n << " p=" << p;
      EXPECT_NEAR(analysis::granular_p_afm(m, q), analysis::p_afm(n, p),
                  tol)
          << "n=" << n << " p=" << p;
      for (const TimingModel model : kAllModels) {
        EXPECT_NEAR(analysis::granular_p_model(model, m, leader, q),
                    analysis::p_model(model, n, p), tol)
            << "n=" << n << " p=" << p;
      }
    }
  }
}

TEST(GranularAnalysis, AsyncLinksDropOutOfConformanceTerms) {
  // n = 3, maj = 2, one async link 0->2 (src 0, dst 2): the eight
  // remaining required links drive G-ES, and the async link only shows
  // up in the per-class conformance probability.
  LinkModelMatrix m(3);
  ASSERT_EQ(parse_link_models("sync:all;async:0->2", 3, m), "");
  analysis::GranularLinkProbs q;
  q.p_sync = 0.8;
  q.p_async = 0.3;
  const double p = q.p_sync;
  EXPECT_NEAR(analysis::granular_p_es(m, q), std::pow(p, 8), 1e-12);
  // Removing a requirement can only help: strictly above all-sync ES.
  EXPECT_GT(analysis::granular_p_es(m, q), analysis::p_es(3, p));
  // Row 2 lost a quorum candidate, so <>LM drops below all-sync:
  // rows 0/1 contribute p * (1 - (1-p)^2) each, row 2 only p * p.
  const double row_full = p * (1.0 - (1.0 - p) * (1.0 - p));
  EXPECT_NEAR(analysis::granular_p_lm(m, 1, q),
              row_full * row_full * p * p, 1e-12);
  EXPECT_LT(analysis::granular_p_lm(m, 1, q), analysis::p_lm(3, p));
  // Per-class conformance: one async link, eight sync links.
  EXPECT_NEAR(analysis::granular_p_class(m, LinkModelClass::kAsync, q),
              q.p_async, 1e-15);
  EXPECT_NEAR(analysis::granular_p_class(m, LinkModelClass::kSync, q),
              std::pow(p, 8), 1e-12);
  EXPECT_NEAR(analysis::granular_p_class(m, LinkModelClass::kPartialSync, q),
              1.0, 1e-15);
}

TEST(GranularMeasurement, AllSyncStreamingIsBitIdentical) {
  // Same sampler sub-stream, same start_rng: the granular streaming path
  // under an all-sync matrix must reproduce every StreamedRun field of
  // the homogeneous streaming path exactly.
  const int n = 9;
  const std::array<int, kNumModels> needed{3, 3, 4, 5};
  IidTimelinessSampler s_homog(n, 0.9, 0x5eed);
  IidTimelinessSampler s_gran(n, 0.9, 0x5eed);
  Rng r_homog(7);
  Rng r_gran(7);
  const StreamedRun a =
      measure_run_streaming(s_homog, 200, 2, needed, 10, r_homog);
  const GranularContext g{LinkModelMatrix(n)};
  const GranularStreamedRun b =
      measure_run_streaming_granular(s_gran, 200, 2, needed, 10, r_gran, g);
  EXPECT_EQ(a.messages_total, b.base.messages_total);
  EXPECT_EQ(a.messages_timely, b.base.messages_timely);
  EXPECT_EQ(a.messages_late, b.base.messages_late);
  EXPECT_EQ(a.messages_lost, b.base.messages_lost);
  for (int idx = 0; idx < kNumModels; ++idx) {
    const auto i = static_cast<std::size_t>(idx);
    EXPECT_EQ(a.pm[i], b.base.pm[i]) << idx;
    EXPECT_EQ(a.mean_rounds[i], b.base.mean_rounds[i]) << idx;
    EXPECT_EQ(a.censored[i], b.base.censored[i]) << idx;
  }
  // All links are sync, so sync-class conformance IS the ES incidence;
  // the empty classes are vacuously conforming every round.
  EXPECT_EQ(b.class_pm[0], b.base.pm[model_index(TimingModel::kEs)]);
  EXPECT_EQ(b.class_pm[1], 1.0);
  EXPECT_EQ(b.class_pm[2], 1.0);
}

TEST(GranularExperiment, AllSyncSweepIsBitIdentical) {
  // The full Section 5 sweep kernel with link_models = all-sync must be
  // byte-identical to the homogeneous sweep — the refactor's
  // backwards-compatibility guarantee at the experiment level (this is
  // what keeps fig1c/fig1g outputs stable under link_models=sync:all).
  ExperimentConfig cfg;
  cfg.testbed = Testbed::kWan;
  cfg.timeouts_ms = {180, 260};
  cfg.runs = 3;
  cfg.rounds_per_run = 60;
  cfg.start_points = 5;
  cfg.seed = 99;
  const auto base = run_experiment(cfg);
  cfg.link_models = LinkModelMatrix(cfg.wan.n);
  const auto gran = run_experiment(cfg);
  ASSERT_EQ(base.size(), gran.size());
  for (std::size_t ti = 0; ti < base.size(); ++ti) {
    EXPECT_EQ(base[ti].timeout_ms, gran[ti].timeout_ms);
    EXPECT_EQ(base[ti].mean_p, gran[ti].mean_p);
    EXPECT_FALSE(base[ti].granular);
    EXPECT_TRUE(gran[ti].granular);
    for (int idx = 0; idx < kNumModels; ++idx) {
      const auto& bm = base[ti].models[static_cast<std::size_t>(idx)];
      const auto& gm = gran[ti].models[static_cast<std::size_t>(idx)];
      EXPECT_EQ(bm.mean_pm, gm.mean_pm) << ti << " " << idx;
      EXPECT_EQ(bm.ci95_pm, gm.ci95_pm) << ti << " " << idx;
      EXPECT_EQ(bm.var_pm, gm.var_pm) << ti << " " << idx;
      EXPECT_EQ(bm.mean_rounds, gm.mean_rounds) << ti << " " << idx;
      EXPECT_EQ(bm.mean_time_ms, gm.mean_time_ms) << ti << " " << idx;
      EXPECT_EQ(bm.censored_fraction, gm.censored_fraction) << ti << " "
                                                            << idx;
    }
    // Same fold order, same values: sync conformance == mean ES P_M.
    EXPECT_EQ(gran[ti].mean_class_pm[0],
              gran[ti].models[model_index(TimingModel::kEs)].mean_pm);
  }
}

TEST(GranularAnalysis, TimelySelfMatchesTheSamplerConvention) {
  // With timely_self the three self links drop out of every product:
  // all-sync ES becomes p^(n^2 - n) instead of the paper's p^(n^2).
  const LinkModelMatrix m(3);
  analysis::GranularLinkProbs q;
  q.p_sync = 0.8;
  q.timely_self = true;
  EXPECT_NEAR(analysis::granular_p_es(m, q), std::pow(0.8, 6), 1e-12);
  EXPECT_NEAR(analysis::granular_p_class(m, LinkModelClass::kSync, q),
              std::pow(0.8, 6), 1e-12);
  // WLM: required leader column (2 off-diagonal links at p) times the
  // leader row reaching maj-1 = 1 of its 2 remaining links.
  EXPECT_NEAR(analysis::granular_p_wlm(m, 0, q),
              0.8 * 0.8 * (1.0 - 0.2 * 0.2), 1e-12);
}

}  // namespace
}  // namespace timing
