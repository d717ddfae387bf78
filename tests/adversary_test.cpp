// Tests for the adversary-search subsystem (src/adversary): the mutator
// grammar (every candidate it ever produces is valid and replayable
// verbatim), fitness purity and sample-seed semantics, search
// determinism across TIMING_THREADS and across resumed budgets, the
// shrinker/polish passes, and the archive's byte round-trip.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <set>
#include <string>
#include <vector>

#include "adversary/archive.hpp"
#include "adversary/candidate.hpp"
#include "adversary/fitness.hpp"
#include "adversary/mutate.hpp"
#include "adversary/search.hpp"
#include "adversary/shrink.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "fault/parser.hpp"
#include "models/link_model_matrix.hpp"

namespace timing::adversary {
namespace {

MutationConfig small_mut() {
  MutationConfig m;
  m.n = 5;
  m.leader = 0;
  m.algorithm = AlgorithmKind::kPaxos;
  return m;
}

/// Cheap evaluation for tests: one sample, short horizon.
EvalConfig small_eval() {
  EvalConfig e;
  e.algorithm = AlgorithmKind::kPaxos;
  e.n = 5;
  e.leader = 0;
  e.eval_seed = 42;
  e.samples = 1;
  e.min_rounds = 40;
  return e;
}

// ---------------------------------------------------------------------------
// Mutator: validity and verbatim replayability of every candidate
// ---------------------------------------------------------------------------

TEST(AdversaryMutate, EveryMutantValidatesAndRoundTrips) {
  const MutationConfig cfg = small_mut();
  Rng rng(7);
  Candidate c = seed_candidate(cfg, 1234);
  for (int step = 0; step < 200; ++step) {
    c = mutate(c, cfg, rng);
    EXPECT_EQ(fault::validate(c.plan, cfg.n, cfg.leader), "")
        << "step " << step << ":\n" << c.plan.spec();
    ASSERT_GE(c.plan.gsr, 3);
    ASSERT_LE(c.plan.gsr, kMaxGsr);
    // The canonical spec parses back to the same plan.
    const fault::ParseResult pr = fault::parse_fault_plan(c.plan.spec());
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_TRUE(fault::structurally_equal(pr.plan, c.plan)) << c.plan.spec();
    // The matrix spec round-trips too.
    LinkModelMatrix m;
    ASSERT_EQ(parse_link_models(c.link_models.spec(), cfg.n, m), "");
    EXPECT_EQ(m, c.link_models);
  }
}

TEST(AdversaryMutate, MutationIsPureInRngState) {
  const MutationConfig cfg = small_mut();
  const Candidate parent = seed_candidate(cfg, 99);
  Rng a(5), b(5);
  const Candidate ca = mutate(parent, cfg, a);
  const Candidate cb = mutate(parent, cfg, b);
  EXPECT_TRUE(structurally_equal(ca, cb));
  EXPECT_EQ(ca.plan.spec(), cb.plan.spec());
}

TEST(AdversaryMutate, LinkEditsKeepReliablePlaneSupport) {
  MutationConfig cfg = small_mut();
  cfg.algorithm = AlgorithmKind::kWlm;
  Rng rng(11);
  Candidate c = seed_candidate(cfg, 5);
  for (int step = 0; step < 100; ++step) {
    c = mutate(c, cfg, rng);
    const std::vector<bool> alive(static_cast<std::size_t>(cfg.n), true);
    EXPECT_TRUE(fault::granular_supports(fault::native_model(cfg.algorithm),
                                         cfg.leader, c.link_models, alive))
        << c.link_models.spec();
  }
}

// ---------------------------------------------------------------------------
// Candidate identity: hash and structural equality
// ---------------------------------------------------------------------------

TEST(AdversaryCandidate, HashIgnoresSourceFormatting) {
  const MutationConfig cfg = small_mut();
  Candidate a = seed_candidate(cfg, 77);
  Candidate b = a;
  b.plan.source = "# reformatted\n" + b.plan.spec();
  EXPECT_TRUE(structurally_equal(a, b));
  EXPECT_EQ(candidate_hash(a), candidate_hash(b));

  // A different matrix is a different adversary.
  if (b.link_models.n() == cfg.n) {
    b.link_models.set(1, 0, LinkModelClass::kAsync);
    EXPECT_FALSE(structurally_equal(a, b));
    EXPECT_NE(candidate_hash(a), candidate_hash(b));
  }
}

// ---------------------------------------------------------------------------
// Fitness: purity, sample-seed semantics, dead-process exclusion
// ---------------------------------------------------------------------------

TEST(AdversaryFitness, EvaluationIsPure) {
  const Candidate c = seed_candidate(small_mut(), 3);
  EvalConfig e = small_eval();
  e.samples = 3;
  const Fitness f1 = evaluate(c, e);
  const Fitness f2 = evaluate(c, e);
  EXPECT_EQ(f1, f2);
  EXPECT_NE(f1.signature, 0u);
}

TEST(AdversaryFitness, SampleZeroRunsEvalSeedVerbatim) {
  // samples=1 must reproduce the exact chaos trial the eval seed names:
  // the decision round reported by run_chaos_algorithm directly.
  const Candidate c = seed_candidate(small_mut(), 8);
  EvalConfig e = small_eval();
  const Fitness f = evaluate(c, e);

  fault::ChaosTrialConfig tc;
  tc.n = e.n;
  tc.leader = e.leader;
  tc.seed = e.eval_seed;
  tc.pre_gsr_p = e.pre_gsr_p;
  tc.plan = c.plan;
  tc.link_models = c.link_models;
  tc.max_rounds =
      std::max(e.min_rounds,
               c.plan.gsr + fault::bound_after_gsr(e.algorithm) + 2);
  const fault::ChaosRunResult r = fault::run_chaos_algorithm(e.algorithm, tc);
  EXPECT_EQ(f.decision_round, r.global_decision_round);
}

TEST(AdversaryFitness, MoreSamplesStaysBounded) {
  const Candidate c = seed_candidate(small_mut(), 21);
  EvalConfig e = small_eval();
  e.samples = 4;
  const Fitness f = evaluate(c, e);
  ASSERT_TRUE(f.supported);
  // Mean per-process delay is bounded by the horizon the evaluator set.
  const double horizon =
      std::max(e.min_rounds,
               c.plan.gsr + fault::bound_after_gsr(e.algorithm) + 2) -
      c.plan.gsr;
  EXPECT_GE(f.delay, 0.0);
  EXPECT_LE(f.delay, horizon);
}

TEST(AdversaryFitness, TracesMatchSampleCount) {
  const Candidate c = seed_candidate(small_mut(), 13);
  EvalConfig e = small_eval();
  e.samples = 3;
  std::vector<TrialTrace> traces;
  EXPECT_EQ(evaluate(c, e, &traces), evaluate(c, e));
  ASSERT_EQ(traces.size(), 3u);
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(traces[static_cast<std::size_t>(j)].id, j);
    EXPECT_FALSE(traces[static_cast<std::size_t>(j)].events.empty());
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TIMING_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TIMING_SANITIZED_ALLOCATOR 1
#endif
#endif

TEST(AdversaryFitness, WarmEvaluationsDoNotFaultTheHeap) {
  // Once a worker has run a few evaluations, more of them reuse its
  // trace buffer and leave the heap's size alone. Copying each trace
  // instead grows and trims the top of the heap on every execution,
  // which costs thousands of minor page faults over this loop.
#if defined(TIMING_SANITIZED_ALLOCATOR)
  GTEST_SKIP() << "sanitizer allocators manage the heap differently";
#elif !defined(RUSAGE_THREAD)
  GTEST_SKIP() << "RUSAGE_THREAD is not available on this platform";
#else
  EvalConfig e;
  e.algorithm = AlgorithmKind::kPaxos;
  e.n = 5;
  e.samples = 5;
  const MutationConfig m = small_mut();
  auto candidate = [&](std::uint64_t i) {
    return seed_candidate(m, substream_seed(0xfa17, i));
  };
  for (std::uint64_t i = 0; i < 5; ++i) (void)evaluate(candidate(i), e);
  std::vector<Candidate> plans;
  for (std::uint64_t i = 0; i < 300; ++i) plans.push_back(candidate(5 + i));

  auto minor_faults = [] {
    rusage u{};
    EXPECT_EQ(getrusage(RUSAGE_THREAD, &u), 0);
    return u.ru_minflt;
  };
  const long before = minor_faults();
  for (const Candidate& c : plans) (void)evaluate(c, e);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 300) << "minor faults over 300 warm evaluations";
#endif
}

// ---------------------------------------------------------------------------
// Search: thread-count determinism and resumable budgets
// ---------------------------------------------------------------------------

SearchConfig small_search(std::uint64_t seed) {
  SearchConfig cfg;
  cfg.mut = small_mut();
  cfg.eval = small_eval();
  cfg.seed = seed;
  cfg.walkers = 4;
  cfg.elites = 3;
  return cfg;
}

/// Everything observable about a finished search, serialized for
/// byte-comparison across thread counts and budget splits.
std::string search_fingerprint(const AdversarySearch& s) {
  std::string out;
  out += "evals=" + std::to_string(s.evaluations());
  out += " gens=" + std::to_string(s.generations());
  out += " sigs=" + std::to_string(s.signatures_seen());
  for (const Elite& e : s.elites()) {
    out += "\n" + std::to_string(e.fitness.score) + " g" +
           std::to_string(e.generation) + " w" + std::to_string(e.walker) +
           "\n" + e.candidate.plan.spec() + e.candidate.link_models.spec();
  }
  return out;
}

TEST(AdversarySearch, DeterministicAcrossThreadCounts) {
  std::vector<std::string> prints;
  for (int threads : {1, 2, 8}) {
    ScopedThreads st(threads);
    AdversarySearch s(small_search(17));
    s.run(60);
    prints.push_back(search_fingerprint(s));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
  EXPECT_FALSE(prints[0].empty());
}

TEST(AdversarySearch, ResumedBudgetMatchesSingleShot) {
  AdversarySearch once(small_search(23));
  once.run(60);
  AdversarySearch twice(small_search(23));
  twice.run(20);
  twice.run(40);
  EXPECT_EQ(search_fingerprint(once), search_fingerprint(twice));
}

TEST(AdversarySearch, ElitesAreDedupedAndSorted) {
  AdversarySearch s(small_search(31));
  s.run(80);
  const std::vector<Elite>& es = s.elites();
  ASSERT_FALSE(es.empty());
  std::set<std::uint64_t> hashes;
  for (std::size_t i = 0; i < es.size(); ++i) {
    EXPECT_TRUE(hashes.insert(candidate_hash(es[i].candidate)).second);
    if (i > 0) {
      EXPECT_GE(es[i - 1].fitness.score, es[i].fitness.score);
    }
  }
}

// ---------------------------------------------------------------------------
// Shrink and polish
// ---------------------------------------------------------------------------

TEST(AdversaryShrink, NeverLosesScoreAndOnlySimplifies) {
  AdversarySearch s(small_search(41));
  s.run(40);
  ASSERT_NE(s.best(), nullptr);
  const Elite best = *s.best();
  const ShrinkResult r = shrink(best.candidate, small_mut(), small_eval());
  EXPECT_GE(r.fitness.score, best.fitness.score);
  EXPECT_LE(r.candidate.plan.events.size(), best.candidate.plan.events.size());
  EXPECT_LE(r.candidate.plan.gsr, best.candidate.plan.gsr);
  EXPECT_EQ(fault::validate(r.candidate.plan, 5, 0), "");
  // Deterministic: same inputs, same minimized spec.
  const ShrinkResult r2 = shrink(best.candidate, small_mut(), small_eval());
  EXPECT_EQ(r.candidate.plan.spec(), r2.candidate.plan.spec());
  EXPECT_EQ(r.evaluations, r2.evaluations);
}

TEST(AdversaryPolish, RespectsBudgetAndNeverLosesScore) {
  const Candidate c = seed_candidate(small_mut(), 51);
  const Fitness base = evaluate(c, small_eval());
  const PolishResult p = polish(c, small_mut(), small_eval(), 9, 20);
  EXPECT_LE(p.evaluations, 20);
  EXPECT_GE(p.fitness.score, base.score);
  const PolishResult p2 = polish(c, small_mut(), small_eval(), 9, 20);
  EXPECT_EQ(p.candidate.plan.spec(), p2.candidate.plan.spec());
  EXPECT_EQ(p.improvements, p2.improvements);
}

// ---------------------------------------------------------------------------
// Archive: byte round-trip of the regression fixtures
// ---------------------------------------------------------------------------

TEST(AdversaryArchive, FormatParsesBackExactly) {
  const MutationConfig mcfg = small_mut();
  EvalConfig e = small_eval();
  e.samples = 5;
  e.eval_seed = 98765;
  Candidate c = seed_candidate(mcfg, 61);
  const Fitness f = evaluate(c, e);
  const ArchiveEntry entry = make_archive_entry(c, f, e);

  const std::string text = format_archive_entry(entry);
  ASSERT_TRUE(is_archive_text(text));
  ArchiveEntry back;
  ASSERT_EQ(parse_archive_entry(text, back), "") << text;

  EXPECT_EQ(back.eval.algorithm, e.algorithm);
  EXPECT_EQ(back.eval.n, e.n);
  EXPECT_EQ(back.eval.leader, e.leader);
  EXPECT_EQ(back.eval.pre_gsr_p, e.pre_gsr_p);
  EXPECT_EQ(back.eval.eval_seed, e.eval_seed);
  EXPECT_EQ(back.eval.samples, e.samples);
  EXPECT_EQ(back.eval.min_rounds, e.min_rounds);
  EXPECT_EQ(back.verdict, verdict_string(f));
  EXPECT_EQ(back.delay, f.delay);  // num() doubles round-trip exactly
  EXPECT_EQ(back.decision_round, f.decision_round);
  EXPECT_EQ(back.score, f.score);
  EXPECT_TRUE(structurally_equal(back.candidate, c));

  // Formatting the parsed entry reproduces the bytes.
  back.name = entry.name;
  EXPECT_EQ(format_archive_entry(back), text);
}

TEST(AdversaryArchive, ReplayReproducesRecordedOutcome) {
  // The regression-gate contract: re-running the recorded evaluation
  // yields the recorded verdict, delay and score.
  EvalConfig e = small_eval();
  e.samples = 2;
  Candidate c = seed_candidate(small_mut(), 71);
  const Fitness f = evaluate(c, e);
  ArchiveEntry entry = make_archive_entry(c, f, e);
  ArchiveEntry back;
  ASSERT_EQ(parse_archive_entry(format_archive_entry(entry), back), "");
  const Fitness replayed = evaluate(back.candidate, back.eval);
  EXPECT_EQ(verdict_string(replayed), back.verdict);
  EXPECT_EQ(replayed.delay, back.delay);
  EXPECT_EQ(replayed.score, back.score);
  EXPECT_EQ(replayed.decision_round, back.decision_round);
}

TEST(AdversaryArchive, StemIsContentAddressed) {
  EvalConfig e = small_eval();
  Candidate c = seed_candidate(small_mut(), 81);
  const Fitness f = evaluate(c, e);
  const ArchiveEntry entry = make_archive_entry(c, f, e);
  const std::string stem = entry_stem(entry);
  EXPECT_NE(stem.find("paxos-"), std::string::npos);
  // Same candidate, same stem; mutated candidate, different stem.
  EXPECT_EQ(stem, entry_stem(make_archive_entry(c, f, e)));
}

}  // namespace
}  // namespace timing::adversary
