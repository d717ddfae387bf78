// Determinism property tests for the parallel Monte-Carlo runner.
//
// The contract under test (common/parallel.hpp): for a fixed root seed,
// the harness produces BIT-IDENTICAL summary statistics and
// decision-round distributions no matter how many threads execute the
// trials — TIMING_THREADS=1 (the historical serial loop), 2, or 8. The
// guarantee holds because trial randomness is a pure function of (root
// seed, trial index) and all floating-point folding happens in trial
// order on one thread; these tests exercise exactly that claim across
// several root seeds and group sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/algorithm_runs.hpp"
#include "harness/experiments.hpp"
#include "harness/measurement.hpp"
#include "sim/sampler.hpp"

namespace timing {
namespace {

/// Exact bit equality, stricter than EXPECT_DOUBLE_EQ (which admits 4
/// ulps) and than operator== (which identifies -0.0 with +0.0).
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ScopedThreads st(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  ScopedThreads st(4);
  EXPECT_THROW(
      parallel_for(64,
                   [&](std::size_t i) {
                     if (i % 7 == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must stay usable afterwards.
  std::atomic<int> sum{0};
  parallel_for(16, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ScopedThreads st(4);
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(RunTrials, ResultsLandAtTheirTrialIndex) {
  ScopedThreads st(8);
  const auto out =
      run_trials<std::size_t>(1000, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// ---------------------------------------------------------------------
// The tentpole guarantee: run_experiment is thread-count-invariant.

ExperimentConfig small_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.testbed = Testbed::kWan;
  cfg.timeouts_ms = {160, 200, 300};
  cfg.runs = 7;
  cfg.rounds_per_run = 60;
  cfg.start_points = 5;
  cfg.seed = seed;
  return cfg;
}

void expect_identical(const std::vector<TimeoutResult>& a,
                      const std::vector<TimeoutResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_TRUE(bits_equal(a[t].timeout_ms, b[t].timeout_ms));
    EXPECT_TRUE(bits_equal(a[t].mean_p, b[t].mean_p));
    for (int m = 0; m < kNumModels; ++m) {
      const auto& ma = a[t].models[static_cast<std::size_t>(m)];
      const auto& mb = b[t].models[static_cast<std::size_t>(m)];
      EXPECT_TRUE(bits_equal(ma.mean_pm, mb.mean_pm));
      EXPECT_TRUE(bits_equal(ma.ci95_pm, mb.ci95_pm));
      EXPECT_TRUE(bits_equal(ma.var_pm, mb.var_pm));
      EXPECT_TRUE(bits_equal(ma.mean_rounds, mb.mean_rounds));
      EXPECT_TRUE(bits_equal(ma.mean_time_ms, mb.mean_time_ms));
      EXPECT_TRUE(bits_equal(ma.censored_fraction, mb.censored_fraction));
    }
  }
}

TEST(ParallelDeterminism, ExperimentSweepIsThreadCountInvariant) {
  for (std::uint64_t seed : {1ULL, 42ULL, 0xC0FFEEULL}) {
    const ExperimentConfig cfg = small_config(seed);
    ScopedThreads serial(1);
    const auto baseline = run_experiment(cfg);
    for (int threads : {2, 8}) {
      ScopedThreads st(threads);
      expect_identical(baseline, run_experiment(cfg));
    }
  }
}

// ---------------------------------------------------------------------
// measure_run trials fanned over run_trials: summary statistics and each
// run's mean decision rounds for n in {3, 5, 8} must not depend on the
// thread count.

struct Summary {
  std::array<RunningStats, kNumModels> incidence;
  /// Each run's mean decision rounds, in run order.
  std::array<std::vector<double>, kNumModels> rounds;
};

Summary summarize(int n, std::uint64_t root, int num_runs, int rounds) {
  const auto ms = run_trials<RunMeasurement>(
      static_cast<std::size_t>(num_runs), [&](std::size_t run) {
        IidTimelinessSampler sampler(n, 0.9, substream_seed(root, run));
        return measure_run(sampler, rounds, /*leader=*/0);
      });
  Summary out;
  for (int run = 0; run < num_runs; ++run) {
    Rng rng = substream(root ^ 0xabcdef, static_cast<std::uint64_t>(run));
    for (TimingModel tm : kAllModels) {
      const auto idx = static_cast<std::size_t>(model_index(tm));
      out.incidence[idx].add(ms[static_cast<std::size_t>(run)].incidence(tm));
      const DecisionStats ds = decision_stats(
          ms[static_cast<std::size_t>(run)].sat[idx], 3, 5, rng);
      out.rounds[idx].push_back(ds.mean_rounds);
    }
  }
  return out;
}

TEST(ParallelDeterminism, MeasureRunTrialsAreThreadCountInvariant) {
  for (int n : {3, 5, 8}) {
    for (std::uint64_t root : {7ULL, 0xDEADULL}) {
      ScopedThreads serial(1);
      const Summary base = summarize(n, root, 12, 80);
      for (int threads : {2, 8}) {
        ScopedThreads st(threads);
        const Summary par = summarize(n, root, 12, 80);
        for (int m = 0; m < kNumModels; ++m) {
          const auto i = static_cast<std::size_t>(m);
          EXPECT_EQ(base.incidence[i].count(), par.incidence[i].count());
          EXPECT_TRUE(bits_equal(base.incidence[i].mean(),
                                 par.incidence[i].mean()));
          EXPECT_TRUE(bits_equal(base.incidence[i].variance(),
                                 par.incidence[i].variance()));
          EXPECT_TRUE(bits_equal(base.incidence[i].min(),
                                 par.incidence[i].min()));
          EXPECT_TRUE(bits_equal(base.incidence[i].max(),
                                 par.incidence[i].max()));
          ASSERT_EQ(base.rounds[i].size(), par.rounds[i].size());
          for (std::size_t run = 0; run < base.rounds[i].size(); ++run) {
            EXPECT_TRUE(bits_equal(base.rounds[i][run], par.rounds[i][run]))
                << "n=" << n << " root=" << root << " model=" << m
                << " run=" << run;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// run_algorithms: full protocol executions are trials too.

TEST(ParallelDeterminism, AlgorithmRunsAreThreadCountInvariant) {
  std::vector<AlgorithmRunConfig> cfgs;
  for (int trial = 0; trial < 10; ++trial) {
    AlgorithmRunConfig cfg;
    cfg.kind = trial % 2 == 0 ? AlgorithmKind::kWlm : AlgorithmKind::kLm3;
    cfg.schedule.n = 5;
    cfg.schedule.model =
        trial % 2 == 0 ? TimingModel::kWlm : TimingModel::kLm;
    cfg.schedule.leader = 1;
    cfg.schedule.gsr = 4 + trial % 3;
    cfg.schedule.seed = substream_seed(99, static_cast<std::uint64_t>(trial));
    for (int i = 0; i < 5; ++i) cfg.proposals.push_back(i + 1);
    cfgs.push_back(cfg);
  }
  ScopedThreads serial(1);
  const auto base = run_algorithms(cfgs);
  for (int threads : {2, 8}) {
    ScopedThreads st(threads);
    const auto par = run_algorithms(cfgs);
    ASSERT_EQ(base.size(), par.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].all_decided, par[i].all_decided);
      EXPECT_EQ(base[i].global_decision_round, par[i].global_decision_round);
      EXPECT_EQ(base[i].decided_value, par[i].decided_value);
      EXPECT_EQ(base[i].total_messages, par[i].total_messages);
      EXPECT_EQ(base[i].stable_round_messages, par[i].stable_round_messages);
    }
  }
}

}  // namespace
}  // namespace timing
