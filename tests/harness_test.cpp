// Unit tests for the measurement harness: run measurement, decision
// windows, random start points, and the experiment driver's statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "harness/algorithm_runs.hpp"
#include "harness/experiments.hpp"
#include "oracles/omega.hpp"
#include "harness/measurement.hpp"
#include "models/predicates.hpp"
#include "models/schedule.hpp"

namespace timing {
namespace {

TEST(Measurement, IncidenceCountsSatisfyingRounds) {
  // An ES schedule stable from round 11 of 20: exactly half the rounds
  // satisfy every model (plus whatever chaos satisfies by luck at p=0).
  ScheduleConfig cfg;
  cfg.n = 6;
  cfg.model = TimingModel::kEs;
  cfg.gsr = 11;
  cfg.pre_gsr_p = 0.0;
  cfg.seed = 3;
  ScheduleSampler s(cfg);
  RunMeasurement m = measure_run(s, 20, /*leader=*/0);
  EXPECT_EQ(m.rounds, 20);
  EXPECT_DOUBLE_EQ(m.incidence(TimingModel::kEs), 0.5);
  EXPECT_DOUBLE_EQ(m.incidence(TimingModel::kWlm), 0.5);
  // p: 10 rounds fully timely, 10 rounds fully untimely (except self
  // links, which are excluded from message counting).
  EXPECT_NEAR(m.timely_fraction(), 0.5, 1e-9);
}

TEST(Measurement, DecisionWindowBasics) {
  //                         0  1  2  3  4  5  6  7
  std::vector<std::uint8_t> sat{0, 1, 1, 0, 1, 1, 1, 0};
  // From 0, first window of 3 consecutive ends at index 6: 7 rounds.
  auto w = rounds_until_conditions(sat, 0, 3);
  EXPECT_FALSE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 7.0);
  // From 4: ends at 6 -> 3 rounds.
  w = rounds_until_conditions(sat, 4, 3);
  EXPECT_DOUBLE_EQ(w.rounds, 3.0);
  // Window of 2 from 0 ends at index 2 -> 3 rounds.
  w = rounds_until_conditions(sat, 0, 2);
  EXPECT_DOUBLE_EQ(w.rounds, 3.0);
  // Window of 4 never occurs: censored, lower bound = remaining length.
  w = rounds_until_conditions(sat, 0, 4);
  EXPECT_TRUE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 8.0);
}

TEST(Measurement, DecisionWindowStreakMustBeConsecutive) {
  std::vector<std::uint8_t> sat{1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1};
  auto w = rounds_until_conditions(sat, 0, 3);
  EXPECT_FALSE(w.censored);
  EXPECT_DOUBLE_EQ(w.rounds, 11.0) << "alternating rounds never form a window";
}

TEST(Measurement, DecisionStatsAveragesStartPoints) {
  std::vector<std::uint8_t> sat(100, 1);  // always satisfying
  Rng rng(5);
  auto ds = decision_stats(sat, 4, 15, rng);
  EXPECT_DOUBLE_EQ(ds.mean_rounds, 4.0);
  EXPECT_DOUBLE_EQ(ds.censored_fraction, 0.0);

  std::vector<std::uint8_t> never(100, 0);
  auto ds2 = decision_stats(never, 4, 15, rng);
  EXPECT_DOUBLE_EQ(ds2.censored_fraction, 1.0);
  EXPECT_GT(ds2.mean_rounds, 45.0) << "censored windows report remaining run";
}

/// Every field of two sweep points, compared exactly.
void expect_same_result(const TimeoutResult& a, const TimeoutResult& b) {
  EXPECT_EQ(a.timeout_ms, b.timeout_ms);
  EXPECT_EQ(a.mean_p, b.mean_p);
  EXPECT_EQ(a.granular, b.granular);
  EXPECT_EQ(a.mean_class_pm, b.mean_class_pm);
  for (TimingModel tm : kAllModels) {
    const auto i = static_cast<std::size_t>(model_index(tm));
    const ModelTimeoutStats& x = a.models[i];
    const ModelTimeoutStats& y = b.models[i];
    EXPECT_EQ(x.mean_pm, y.mean_pm) << to_string(tm);
    EXPECT_EQ(x.ci95_pm, y.ci95_pm) << to_string(tm);
    EXPECT_EQ(x.var_pm, y.var_pm) << to_string(tm);
    EXPECT_EQ(x.mean_rounds, y.mean_rounds) << to_string(tm);
    EXPECT_EQ(x.mean_time_ms, y.mean_time_ms) << to_string(tm);
    EXPECT_EQ(x.censored_fraction, y.censored_fraction) << to_string(tm);
    EXPECT_TRUE(x.rounds_hist == y.rounds_hist) << to_string(tm);
  }
}

TEST(Experiments, PairedSeedsGiveIdenticalLatencies) {
  // Paired design: a timeout's result must not depend on which other
  // timeouts share its sweep, so a three-timeout sweep equals three
  // single-timeout sweeps field for field, homogeneous and granular.
  ExperimentConfig one;
  one.testbed = Testbed::kWan;
  one.runs = 5;
  one.rounds_per_run = 50;
  one.seed = 11;
  for (const bool granular : {false, true}) {
    if (granular) one.link_models = LinkModelMatrix::mixed(8, 0.2, 0.3, 5);
    ExperimentConfig sweep = one;
    sweep.timeouts_ms = {160, 200, 350};
    const std::vector<TimeoutResult> all = run_experiment(sweep);
    ASSERT_EQ(all.size(), sweep.timeouts_ms.size());
    for (std::size_t ti = 0; ti < all.size(); ++ti) {
      SCOPED_TRACE(testing::Message() << "granular=" << granular
                                      << " timeout=" << all[ti].timeout_ms);
      one.timeouts_ms = {sweep.timeouts_ms[ti]};
      const std::vector<TimeoutResult> single = run_experiment(one);
      ASSERT_EQ(single.size(), 1u);
      expect_same_result(all[ti], single[0]);
    }
  }
}

TEST(Experiments, LeaderResolution) {
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  EXPECT_EQ(resolve_leader(wan), WanLatencyModel::kUk);
  wan.leader = 3;
  EXPECT_EQ(resolve_leader(wan), 3);

  ExperimentConfig lan;
  lan.testbed = Testbed::kLan;
  // The best-connected LAN machine is node 0 (smallest node factor).
  EXPECT_EQ(resolve_leader(lan), 0);
}

TEST(Experiments, WellConnectedElectionPicksUk) {
  // The paper's offline method ("we measured the round-trip times of all
  // links using pings, and then chose a well-connected node") must pick
  // the UK site on this testbed, as it did on PlanetLab.
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  EXPECT_EQ(elect_well_connected(expected_rtt_matrix(wan)),
            WanLatencyModel::kUk);
}

TEST(Experiments, ExpectedRttMatrixShape) {
  ExperimentConfig wan;
  wan.testbed = Testbed::kWan;
  const auto rtt = expected_rtt_matrix(wan);
  ASSERT_EQ(rtt.size(), 8u);
  EXPECT_DOUBLE_EQ(rtt[0][0], 0.0);
  EXPECT_DOUBLE_EQ(rtt[0][6], rtt[6][0]);
  EXPECT_NEAR(rtt[0][6], 20.0, 1.0);  // CH <-> UK, 2 x 10 ms
}

TEST(Experiments, MeanTimeIsRoundsTimesTimeout) {
  ExperimentConfig cfg;
  cfg.testbed = Testbed::kWan;
  cfg.timeouts_ms = {250};
  cfg.runs = 4;
  cfg.rounds_per_run = 120;
  cfg.seed = 9;
  const auto rs = run_experiment(cfg);
  for (const auto& m : rs[0].models) {
    EXPECT_DOUBLE_EQ(m.mean_time_ms, m.mean_rounds * 250.0);
  }
}

TEST(AlgorithmRuns, ReportsMessageComplexity) {
  AlgorithmRunConfig cfg;
  cfg.kind = AlgorithmKind::kLm3;
  cfg.schedule.n = 6;
  cfg.schedule.model = TimingModel::kLm;
  cfg.schedule.leader = 1;
  cfg.schedule.gsr = 5;
  cfg.schedule.seed = 8;
  for (int i = 0; i < 6; ++i) cfg.proposals.push_back(i + 1);
  const auto r = run_algorithm(cfg);
  ASSERT_TRUE(r.all_decided);
  EXPECT_EQ(r.stable_round_messages, 6 * 5) << "LM-3 broadcasts: n(n-1)";
  EXPECT_GT(r.total_messages, r.stable_round_messages);
}

TEST(AlgorithmRuns, WlmVsLm3MessageComplexityContrast) {
  // The paper's core message-complexity claim, measured: Algorithm 2
  // sends 2(n-1) stable-state messages/round, the <>LM algorithm n(n-1).
  for (int n : {4, 8, 16, 32}) {
    AlgorithmRunConfig wlm;
    wlm.kind = AlgorithmKind::kWlm;
    wlm.schedule.n = n;
    wlm.schedule.model = TimingModel::kWlm;
    wlm.schedule.leader = 0;
    wlm.schedule.gsr = 4;
    wlm.schedule.seed = n;
    wlm.oracle_stable_from = 0;
    for (int i = 0; i < n; ++i) wlm.proposals.push_back(i + 1);
    const auto rw = run_algorithm(wlm);
    ASSERT_TRUE(rw.all_decided);
    EXPECT_EQ(rw.stable_round_messages, 2 * (n - 1));

    AlgorithmRunConfig lm = wlm;
    lm.kind = AlgorithmKind::kLm3;
    lm.schedule.model = TimingModel::kLm;
    const auto rl = run_algorithm(lm);
    ASSERT_TRUE(rl.all_decided);
    EXPECT_EQ(rl.stable_round_messages, static_cast<long long>(n) * (n - 1));
  }
}

TEST(Streaming, WindowTrackerMatchesDecisionStatsBitForBit) {
  // The incremental tracker must reproduce decision_stats (vector path)
  // exactly: same start points, same resolution rounds, same censoring,
  // same floating-point sums.
  Rng bits_rng(0x7777ULL);
  for (int rep = 0; rep < 20; ++rep) {
    const int len = 40 + static_cast<int>(bits_rng.uniform_int(80));
    const int needed = 2 + static_cast<int>(bits_rng.uniform_int(5));
    const double density = 0.3 + 0.6 * rep / 20.0;
    std::vector<std::uint8_t> sat(static_cast<std::size_t>(len));
    for (auto& b : sat) b = bits_rng.bernoulli(density) ? 1 : 0;

    // Same sub-stream for both paths -> same start points.
    Rng rng_vec = substream(99, static_cast<std::uint64_t>(rep));
    Rng rng_stream = substream(99, static_cast<std::uint64_t>(rep));
    const int start_points = 15;
    const DecisionStats want =
        decision_stats(sat, needed, start_points, rng_vec);

    std::vector<int> starts(static_cast<std::size_t>(start_points));
    for (int s = 0; s < start_points; ++s) {
      starts[static_cast<std::size_t>(s)] = static_cast<int>(
          rng_stream.uniform_int(
              static_cast<std::uint64_t>(std::max(1, len / 2))));
    }
    ConsecutiveWindowTracker tracker(needed, std::move(starts), len);
    long long sat_count = 0;
    for (const auto b : sat) {
      tracker.observe(b != 0);
      sat_count += b ? 1 : 0;
    }
    const DecisionStats got = tracker.finalize();
    EXPECT_EQ(got.mean_rounds, want.mean_rounds) << "rep=" << rep;
    EXPECT_EQ(got.censored_fraction, want.censored_fraction);
    EXPECT_EQ(tracker.satisfied_rounds(), sat_count);
  }
}

TEST(Streaming, MeasureRunStreamingMatchesVectorPipeline) {
  // One (timeout, run) trial both ways: classic measure_run + incidence +
  // decision_stats vs the streaming path, same sampler sub-stream,
  // same start_rng. Everything must agree bit-for-bit — this is the
  // invariant that lets run_experiment use the fast path while keeping
  // the figure outputs byte-identical.
  const int n = 8;
  const int rounds = 120;
  const int start_points = 15;
  const std::array<int, kNumModels> needed = {3, 3, 4, 5};
  const ProcessId leader = 2;

  IidTimelinessSampler vec_sampler(n, 0.9, 0xfeedfaceULL);
  RunMeasurement m = measure_run(vec_sampler, rounds, leader);
  Rng vec_rng = substream(7, 3);
  std::array<double, kNumModels> want_rounds{};
  std::array<double, kNumModels> want_censored{};
  for (TimingModel tm : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(tm));
    const DecisionStats ds =
        decision_stats(m.sat[idx], needed[idx], start_points, vec_rng);
    want_rounds[idx] = ds.mean_rounds;
    want_censored[idx] = ds.censored_fraction;
  }

  IidTimelinessSampler stream_sampler(n, 0.9, 0xfeedfaceULL);
  Rng stream_rng = substream(7, 3);
  const StreamedRun s = measure_run_streaming(
      stream_sampler, rounds, leader, needed, start_points, stream_rng);

  EXPECT_EQ(s.messages_total, m.messages_total);
  EXPECT_EQ(s.messages_timely, m.messages_timely);
  EXPECT_EQ(s.messages_late, m.messages_late);
  EXPECT_EQ(s.messages_lost, m.messages_lost);
  EXPECT_EQ(s.timely_fraction(), m.timely_fraction());
  for (TimingModel tm : kAllModels) {
    const auto idx = static_cast<std::size_t>(model_index(tm));
    EXPECT_EQ(s.pm[idx], m.incidence(tm)) << to_string(tm);
    EXPECT_EQ(s.mean_rounds[idx], want_rounds[idx]) << to_string(tm);
    EXPECT_EQ(s.censored[idx], want_censored[idx]) << to_string(tm);
  }
}

/// Forwards to a latency model and counts its draws.
class CountingModel final : public LatencyModel {
 public:
  explicit CountingModel(LatencyModel& inner) : inner_(inner) {}
  int n() const noexcept override { return inner_.n(); }
  void begin_round(Round k) override { inner_.begin_round(k); }
  double sample_ms(ProcessId src, ProcessId dst) override {
    ++draws;
    return inner_.sample_ms(src, dst);
  }
  long long draws = 0;

 private:
  LatencyModel& inner_;
};

std::unique_ptr<LatencyModel> testbed_model(Testbed tb, std::uint64_t seed) {
  if (tb == Testbed::kLan) {
    return std::make_unique<LanLatencyModel>(LanProfile{}, seed);
  }
  return std::make_unique<WanLatencyModel>(WanProfile{}, seed);
}

void expect_same_run(const StreamedRun& a, const StreamedRun& b) {
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.messages_timely, b.messages_timely);
  EXPECT_EQ(a.messages_late, b.messages_late);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.pm, b.pm);
  EXPECT_EQ(a.mean_rounds, b.mean_rounds);
  EXPECT_EQ(a.censored, b.censored);
}

/// One run of `tb` swept over `timeouts` against a fresh single-timeout
/// streamed run per timeout (same model seed, same start sub-stream):
/// every statistic must agree bit for bit, and the sweep must draw each
/// round's latencies once.
void check_sweep_matches_streaming(Testbed tb,
                                   const std::vector<double>& timeouts,
                                   const GranularContext* g) {
  const int rounds = 120;
  const int start_points = 15;
  const std::array<int, kNumModels> needed = {3, 3, 4, 5};
  for (std::uint64_t run = 0; run < 3; ++run) {
    SCOPED_TRACE(testing::Message() << "run=" << run);
    const std::uint64_t seed = substream_seed(31, run);
    const ProcessId leader = static_cast<ProcessId>(run + 2);
    auto model = testbed_model(tb, seed);
    CountingModel counted(*model);
    Rng start_rng = substream(17, run);
    const std::vector<GranularStreamedRun> sweep =
        measure_run_sweep(counted, timeouts, rounds, leader, needed,
                          start_points, start_rng, g);
    const int n = counted.n();
    EXPECT_EQ(counted.draws, static_cast<long long>(rounds) * n * (n - 1));
    ASSERT_EQ(sweep.size(), timeouts.size());
    for (std::size_t ti = 0; ti < timeouts.size(); ++ti) {
      SCOPED_TRACE(testing::Message() << "timeout=" << timeouts[ti]);
      auto fresh = testbed_model(tb, seed);
      LatencyTimelinessSampler sampler(*fresh, timeouts[ti]);
      Rng fresh_starts = substream(17, run);
      if (g == nullptr) {
        expect_same_run(sweep[ti].base,
                        measure_run_streaming(sampler, rounds, leader,
                                              needed, start_points,
                                              fresh_starts));
        EXPECT_EQ(sweep[ti].class_pm,
                  (std::array<double, kNumLinkModelClasses>{}));
      } else {
        const GranularStreamedRun want = measure_run_streaming_granular(
            sampler, rounds, leader, needed, start_points, fresh_starts, *g);
        expect_same_run(sweep[ti].base, want.base);
        EXPECT_EQ(sweep[ti].class_pm, want.class_pm);
      }
    }
  }
}

// The fig1g sweep, plus a 1 ms timeout whose stragglers outlive
// kDefaultMaxDelayRounds and count as lost.
const std::vector<double> kWanTimeouts = {1,   140, 150, 160, 170, 180, 190,
                                          200, 210, 230, 260, 300, 350};
// The fig1c sweep.
const std::vector<double> kLanTimeouts = {0.1,  0.15, 0.2, 0.25, 0.35,
                                          0.5,  0.7,  0.9, 1.2,  1.6};

TEST(RunSweep, MatchesStreamingPerTimeoutOnWan) {
  check_sweep_matches_streaming(Testbed::kWan, kWanTimeouts, nullptr);
}

TEST(RunSweep, MatchesStreamingPerTimeoutOnLan) {
  check_sweep_matches_streaming(Testbed::kLan, kLanTimeouts, nullptr);
}

TEST(RunSweep, MatchesGranularStreamingPerTimeout) {
  const GranularContext g{LinkModelMatrix::mixed(8, 0.2, 0.3, 77)};
  ASSERT_FALSE(g.matrix().all_sync());
  check_sweep_matches_streaming(Testbed::kWan, kWanTimeouts, &g);
  check_sweep_matches_streaming(Testbed::kLan, kLanTimeouts, &g);
}

/// `count` distinct timeouts in a seeded shuffled order, the first three
/// repeated at the end.
std::vector<double> many_timeouts(int count, std::uint64_t seed) {
  std::vector<double> t;
  for (int i = 0; i < count; ++i) t.push_back(0.5 + 1.25 * i);
  Rng rng(seed);
  for (std::size_t i = t.size(); i > 1; --i) {
    std::swap(t[i - 1], t[rng.uniform_int(i)]);
  }
  t.insert(t.end(), t.begin(), t.begin() + 3);
  return t;
}

// Shuffled, with duplicates, and with 0.5 and 1 ms timeouts whose WAN
// stragglers pass kDefaultMaxDelayRounds.
const std::vector<double> kOddWanTimeouts = {210, 140, 350, 0.5, 140,
                                             1,   300, 160, 210};

TEST(RunSweep, MatchesStreamingOnShuffledAndDuplicateTimeouts) {
  check_sweep_matches_streaming(Testbed::kWan, kOddWanTimeouts, nullptr);
  const GranularContext g{LinkModelMatrix::mixed(8, 0.4, 0.3, 5)};
  check_sweep_matches_streaming(Testbed::kWan, kOddWanTimeouts, &g);
}

TEST(RunSweep, MatchesStreamingOnThreeHundredDistinctTimeouts) {
  check_sweep_matches_streaming(Testbed::kWan, many_timeouts(300, 9),
                                nullptr);
}

TEST(RunSweep, EmptyTimeoutListGivesNoRuns) {
  WanLatencyModel model(WanProfile{}, 3);
  Rng start_rng(4);
  EXPECT_TRUE(measure_run_sweep(model, {}, 20, 0, {3, 3, 4, 5}, 15,
                                start_rng)
                  .empty());
}

/// A seeded n x n latency plane (zero diagonal). A share `edge_share` of
/// its cells sit on an edge of the sweep: NaN, +inf, or one ulp below,
/// at or above a timeout t, 64 t or 65 t (the kDefaultMaxDelayRounds lost
/// edge). The rest are uniform up to `spread` times the largest timeout.
std::vector<double> edge_latency_plane(int n,
                                       const std::vector<double>& timeouts,
                                       double edge_share, double spread,
                                       Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double top = *std::max_element(timeouts.begin(), timeouts.end());
  std::vector<double> plane(static_cast<std::size_t>(n) * n, 0.0);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) {
      if (s == d) continue;
      double& ms = plane[static_cast<std::size_t>(d) * n + s];
      if (!rng.bernoulli(edge_share)) {
        ms = rng.uniform(0.0, spread * top);
        continue;
      }
      const double t = timeouts[rng.uniform_int(timeouts.size())];
      const double base =
          t * std::array<double, 3>{1, 64, 65}[rng.uniform_int(3)];
      switch (rng.uniform_int(8)) {
        case 0: ms = std::numeric_limits<double>::quiet_NaN(); break;
        case 1: ms = inf; break;
        case 2: ms = std::nextafter(base, 0.0); break;
        case 3: ms = std::nextafter(base, inf); break;
        default: ms = base; break;
      }
    }
  }
  return plane;
}

/// Ranks seeded edge planes against `timeouts` (any order, duplicates
/// allowed) and checks the verdict at every timeout, round by round,
/// against classify_round and the packed kernel at that timeout: sat
/// bits, csat bits and the timely/late/lost tallies. Null `g` is the
/// homogeneous (all-sync) sweep, also held to the scalar oracle.
void check_rank_round_matches_classify(int n,
                                       const std::vector<double>& timeouts,
                                       const GranularContext* g, int rounds,
                                       std::uint64_t seed) {
  std::vector<double> sorted = timeouts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  const GranularContext all_sync{LinkModelMatrix(n)};
  Rng rng(seed);
  RankScratch scratch;
  RankTallies tallies;
  PackedLinkMatrix q(n);
  LinkMatrix unpacked;
  for (int r = 0; r < rounds; ++r) {
    const auto leader =
        static_cast<ProcessId>(rng.uniform_int(static_cast<std::uint64_t>(n)));
    const double edge_share = std::array<double, 3>{0.0, 0.05, 0.3}[r % 3];
    const double spread = std::array<double, 3>{0.9, 1.2, 3.0}[(r / 3) % 3];
    const std::vector<double> latency =
        edge_latency_plane(n, timeouts, edge_share, spread, rng);
    tallies.reset(static_cast<int>(sorted.size()));
    const RoundRanks ranks = rank_round(
        latency, n, sorted, kDefaultMaxDelayRounds, leader,
        (g == nullptr ? all_sync : *g).planes(), scratch, tallies);
    const std::vector<FusedRoundEval> fates = tallies.fates();
    ASSERT_EQ(fates.size(), sorted.size());
    for (const double t : timeouts) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " round=" << r
                                      << " timeout=" << t);
      const int i = static_cast<int>(
          std::lower_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
      const FusedRoundEval want =
          classify_round(latency, t, kDefaultMaxDelayRounds, q);
      const auto at = static_cast<std::size_t>(i);
      EXPECT_EQ(fates[at].timely, want.timely);
      EXPECT_EQ(fates[at].late, want.late);
      EXPECT_EQ(fates[at].lost, want.lost);
      const GranularEval ge =
          evaluate_all_granular(q, leader, g == nullptr ? all_sync : *g);
      if (g == nullptr) {
        q.copy_to(unpacked);
        EXPECT_EQ(ranks.sat_at(i), evaluate_all(unpacked, leader));
        EXPECT_EQ(ranks.sat_at(i), evaluate_all(q, leader));
      }
      EXPECT_EQ(ranks.sat_at(i), ge.sat);
      EXPECT_EQ(ranks.csat_at(i), ge.csat);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(RankRound, MatchesClassifyRoundPerTimeout) {
  const std::vector<std::vector<double>> sweeps = {
      {140, 150, 160, 170, 180, 190, 200, 210, 230, 260, 300, 350},
      kOddWanTimeouts,
      {170},
      many_timeouts(300, 21)};
  std::uint64_t seed = 1;
  for (const int n : {2, 3, 7, 8, 63, 64, 65, 130}) {
    // Big planes classified at 300 timeouts are slow; fewer rounds there.
    const int rounds = n <= 8 ? 27 : 9;
    const GranularContext mixed{LinkModelMatrix::mixed(n, 0.2, 0.3, 11)};
    const GranularContext async_heavy{
        LinkModelMatrix::mixed(n, 0.6, 0.5, 12)};
    for (const std::vector<double>& timeouts : sweeps) {
      const int r = timeouts.size() > 100 && n > 8 ? 3 : rounds;
      check_rank_round_matches_classify(n, timeouts, nullptr, r, ++seed);
      check_rank_round_matches_classify(n, timeouts, &mixed, r, ++seed);
      check_rank_round_matches_classify(n, timeouts, &async_heavy, r, ++seed);
      if (HasFailure()) return;
    }
  }
}

TEST(RankRound, ThresholdsSpanTheSweep) {
  // The differential above is only as good as its planes: across them,
  // every model must both hold and fail somewhere in the sweep.
  const std::vector<double> timeouts = {140, 150, 160, 170, 180, 190,
                                        200, 210, 230, 260, 300, 350};
  const int m = static_cast<int>(timeouts.size());
  std::array<bool, 4> held{};
  std::array<bool, 4> failed{};
  const GranularContext all_sync{LinkModelMatrix(7)};
  Rng rng(5);
  RankScratch scratch;
  RankTallies tallies;
  tallies.reset(m);
  for (int r = 0; r < 27; ++r) {
    const std::vector<double> latency = edge_latency_plane(
        7, timeouts, std::array<double, 3>{0.0, 0.05, 0.3}[r % 3],
        std::array<double, 3>{0.9, 1.2, 3.0}[(r / 3) % 3], rng);
    const RoundRanks ranks =
        rank_round(latency, 7, timeouts, kDefaultMaxDelayRounds, 3,
                   all_sync.planes(), scratch, tallies);
    for (std::size_t b = 0; b < held.size(); ++b) {
      held[b] = held[b] || ranks.model[b] < m;
      failed[b] = failed[b] || ranks.model[b] > 0;
    }
  }
  for (std::size_t b = 0; b < held.size(); ++b) {
    EXPECT_TRUE(held[b]) << "model bit " << b;
    EXPECT_TRUE(failed[b]) << "model bit " << b;
  }
}

TEST(RunSweep, DefaultFig1gSweepDrawsEachRoundOnce) {
  // The paper's WAN method (33 runs x 300 rounds, 12 timeouts, n = 8) as
  // run_experiment runs it: one measure_run_sweep per run. It draws
  // 33 x 300 x 56 = 554,400 latencies; replaying every run once per
  // timeout, as a single-timeout sampler does, draws 12x that.
  ExperimentConfig cfg;
  cfg.timeouts_ms = {140, 150, 160, 170, 180, 190,
                     200, 210, 230, 260, 300, 350};
  const ProcessId leader = resolve_leader(cfg);
  long long sweep_draws = 0;
  for (int run = 0; run < cfg.runs; ++run) {
    WanLatencyModel model(cfg.wan, substream_seed(cfg.seed, run));
    CountingModel counted(model);
    Rng start_rng = substream(cfg.seed ^ 0xabcdef, run);
    measure_run_sweep(counted, cfg.timeouts_ms, cfg.rounds_per_run, leader,
                      cfg.decision_rounds, cfg.start_points, start_rng);
    sweep_draws += counted.draws;
  }
  EXPECT_EQ(sweep_draws, 554400);

  WanLatencyModel model(cfg.wan, substream_seed(cfg.seed, 0));
  CountingModel counted(model);
  LatencyTimelinessSampler sampler(counted, cfg.timeouts_ms[0]);
  Rng start_rng = substream(cfg.seed ^ 0xabcdef, 0);
  measure_run_streaming(sampler, cfg.rounds_per_run, leader,
                        cfg.decision_rounds, cfg.start_points, start_rng);
  const long long cells =
      static_cast<long long>(cfg.timeouts_ms.size()) * cfg.runs;
  EXPECT_EQ(counted.draws * cells, 6652800);
}

}  // namespace
}  // namespace timing
