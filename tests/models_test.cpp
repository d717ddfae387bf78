// Unit tests for src/models: the per-round predicates of Section 4.1 and
// the GSR schedule samplers.
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "models/predicates.hpp"
#include "models/schedule.hpp"
#include "models/timing_model.hpp"

namespace timing {
namespace {

LinkMatrix all_timely(int n) { return LinkMatrix(n, 0); }

LinkMatrix none_timely(int n) {
  LinkMatrix a(n, kLost);
  for (ProcessId i = 0; i < n; ++i) a.set(i, i, 0);  // self links stay timely
  return a;
}

TEST(Predicates, EsNeedsEverything) {
  auto a = all_timely(8);
  EXPECT_TRUE(satisfies_es(a));
  a.set(3, 4, kLost);
  EXPECT_FALSE(satisfies_es(a));
}

TEST(Predicates, EsIgnoresCrashedProcesses) {
  auto a = all_timely(5);
  a.set(2, 4, kLost);  // only the crashed sender's link is broken
  CorrectMask correct(5, true);
  correct[4] = false;
  EXPECT_TRUE(satisfies_es(a, &correct));
  EXPECT_FALSE(satisfies_es(a));
}

TEST(Predicates, WlmMinimalRequirement) {
  // Only the leader's column + a majority into the leader: WLM holds,
  // everything else fails.
  const int n = 8;
  const ProcessId ld = 2;
  auto a = none_timely(n);
  for (ProcessId d = 0; d < n; ++d) a.set(d, ld, 0);  // leader n-source
  // majority into the leader: self + 4 others.
  for (ProcessId s = 3; s <= 6; ++s) a.set(ld, s, 0);
  EXPECT_TRUE(satisfies_wlm(a, ld));
  EXPECT_FALSE(satisfies_lm(a, ld));
  EXPECT_FALSE(satisfies_afm(a));
  EXPECT_FALSE(satisfies_es(a));
}

TEST(Predicates, WlmFailsWithoutLeaderColumn) {
  const int n = 8;
  const ProcessId ld = 2;
  auto a = all_timely(n);
  a.set(7, ld, 1);  // one late leader link
  EXPECT_FALSE(satisfies_wlm(a, ld));
  a.set(7, ld, 0);
  EXPECT_TRUE(satisfies_wlm(a, ld));
}

TEST(Predicates, WlmFailsWithoutMajorityIntoLeader) {
  const int n = 8;
  const ProcessId ld = 0;
  auto a = none_timely(n);
  for (ProcessId d = 0; d < n; ++d) a.set(d, ld, 0);
  // only 3 inbound links + self = 4 < 5.
  a.set(ld, 1, 0);
  a.set(ld, 2, 0);
  a.set(ld, 3, 0);
  EXPECT_FALSE(satisfies_wlm(a, ld));
  a.set(ld, 4, 0);  // 5th
  EXPECT_TRUE(satisfies_wlm(a, ld));
}

TEST(Predicates, LmNeedsEveryRowMajority) {
  const int n = 8;
  const ProcessId ld = 1;
  auto a = all_timely(n);
  EXPECT_TRUE(satisfies_lm(a, ld));
  // Break p7's row down to 4 timely (self + 3): below majority 5.
  for (ProcessId s = 0; s < n; ++s) {
    if (s != 7 && s != ld && s != 0 && s != 2) a.set(7, s, kLost);
  }
  EXPECT_EQ(a.timely_into(7), 4);
  EXPECT_FALSE(satisfies_lm(a, ld));
  // WLM does not care about p7's row.
  EXPECT_TRUE(satisfies_wlm(a, ld));
}

TEST(Predicates, AfmRowsAndColumns) {
  const int n = 8;
  auto a = all_timely(n);
  EXPECT_TRUE(satisfies_afm(a));
  // Kill one process's outgoing links below majority: column fails.
  for (ProcessId d = 0; d < n; ++d) {
    if (d != 4 && d != 0 && d != 1 && d != 2) a.set(d, 4, kLost);
  }
  EXPECT_EQ(a.timely_out_of(4), 4);
  EXPECT_FALSE(satisfies_afm(a));
  // <>LM (leader 0) is indifferent to p4's column...
  EXPECT_TRUE(satisfies_lm(a, 0));
  // ...which reproduces the paper's WAN observation: a slow *sender*
  // suppresses <>AFM but not <>LM.
}

TEST(Predicates, AfmSlowReceiverBreaksRowAndLm) {
  const int n = 8;
  auto a = all_timely(n);
  // Poland-style slow receiver: only 3 inbound + self.
  for (ProcessId s = 0; s < n; ++s) {
    if (s != 5 && s != 0 && s != 6 && s != 7) a.set(5, s, kLost);
  }
  EXPECT_FALSE(satisfies_afm(a));
  EXPECT_FALSE(satisfies_lm(a, 6));
  // <>WLM survives as long as the leader's links are fine.
  EXPECT_TRUE(satisfies_wlm(a, 6));
}

TEST(Predicates, ModelImplications) {
  // ES implies every other model (with any leader); checked on random
  // matrices by repairing them to ES.
  auto a = all_timely(8);
  for (ProcessId ld = 0; ld < 8; ++ld) {
    EXPECT_TRUE(satisfies(TimingModel::kEs, a, ld));
    EXPECT_TRUE(satisfies(TimingModel::kLm, a, ld));
    EXPECT_TRUE(satisfies(TimingModel::kWlm, a, ld));
    EXPECT_TRUE(satisfies(TimingModel::kAfm, a, ld));
  }
}

TEST(Predicates, LmImpliesWlm) {
  ScheduleConfig cfg;
  cfg.n = 8;
  cfg.model = TimingModel::kLm;
  cfg.leader = 3;
  cfg.gsr = 1;
  cfg.seed = 5;
  ScheduleSampler s(cfg);
  LinkMatrix a(8);
  for (Round k = 1; k <= 200; ++k) {
    s.sample_round(k, a);
    ASSERT_TRUE(satisfies_lm(a, 3));
    ASSERT_TRUE(satisfies_wlm(a, 3)) << "<>LM round must satisfy <>WLM";
  }
}

TEST(TimingModelMeta, RoundCounts) {
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kEs3), 3);
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kLm3), 3);
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kWlmDirect), 4);
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kWlmDirect5), 5);
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kWlmSimulated), 7);
  EXPECT_EQ(rounds_for_global_decision(AnalyzedAlgorithm::kAfm5), 5);
  EXPECT_EQ(default_rounds_for_global_decision(TimingModel::kWlm), 4);
  EXPECT_EQ(model_of(AnalyzedAlgorithm::kWlmSimulated), TimingModel::kWlm);
  EXPECT_EQ(to_string(TimingModel::kWlm), "<>WLM");
}

class ScheduleConformance
    : public ::testing::TestWithParam<std::tuple<TimingModel, int, bool>> {};

TEST_P(ScheduleConformance, PostGsrRoundsConform) {
  const auto [model, n, minimal] = GetParam();
  ScheduleConfig cfg;
  cfg.n = n;
  cfg.model = model;
  cfg.leader = n / 2;
  cfg.gsr = 10;
  cfg.minimal = minimal;
  cfg.seed = 0xc0ffee + n;
  ScheduleSampler s(cfg);
  LinkMatrix a(n);
  for (Round k = 1; k <= 80; ++k) {
    s.sample_round(k, a);
    for (ProcessId i = 0; i < n; ++i) {
      ASSERT_TRUE(a.timely(i, i)) << "self link broken";
    }
    if (k >= cfg.gsr) {
      ASSERT_TRUE(satisfies(model, a, cfg.leader))
          << to_string(model) << " round " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ScheduleConformance,
    ::testing::Combine(::testing::Values(TimingModel::kEs, TimingModel::kLm,
                                         TimingModel::kWlm, TimingModel::kAfm),
                       ::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Bool()));

TEST(Schedule, MinimalWlmIsReallyMinimal) {
  // In the minimal-conforming <>WLM schedule no non-required link is
  // timely: non-leader processes only hear from the leader.
  ScheduleConfig cfg;
  cfg.n = 8;
  cfg.model = TimingModel::kWlm;
  cfg.leader = 0;
  cfg.gsr = 1;
  cfg.minimal = true;
  cfg.seed = 7;
  ScheduleSampler s(cfg);
  LinkMatrix a(8);
  for (Round k = 1; k <= 50; ++k) {
    s.sample_round(k, a);
    for (ProcessId d = 1; d < 8; ++d) {
      for (ProcessId src = 0; src < 8; ++src) {
        if (src != 0 && src != d) {
          ASSERT_FALSE(a.timely(d, src))
              << "minimal schedule leaked a non-leader link";
        }
      }
    }
    ASSERT_EQ(a.timely_into(0), majority_size(8));
  }
}

TEST(Schedule, MobileMajorities) {
  // The repaired majority into the leader must change over rounds
  // (the "_v" in <>(n/2+1)-destination_v).
  ScheduleConfig cfg;
  cfg.n = 8;
  cfg.model = TimingModel::kWlm;
  cfg.leader = 0;
  cfg.gsr = 1;
  cfg.minimal = true;
  cfg.seed = 21;
  ScheduleSampler s(cfg);
  LinkMatrix a(8);
  std::set<std::vector<bool>> seen;
  for (Round k = 1; k <= 60; ++k) {
    s.sample_round(k, a);
    std::vector<bool> row;
    for (ProcessId src = 0; src < 8; ++src) row.push_back(a.timely(0, src));
    seen.insert(row);
  }
  EXPECT_GT(seen.size(), 5u);
}

TEST(Schedule, PreGsrIsChaotic) {
  ScheduleConfig cfg;
  cfg.n = 8;
  cfg.model = TimingModel::kEs;
  cfg.gsr = 1000;
  cfg.pre_gsr_p = 0.3;
  cfg.seed = 3;
  ScheduleSampler s(cfg);
  LinkMatrix a(8);
  long long timely = 0, total = 0;
  for (Round k = 1; k <= 300; ++k) {
    s.sample_round(k, a);
    for (ProcessId d = 0; d < 8; ++d) {
      for (ProcessId src = 0; src < 8; ++src) {
        if (d == src) continue;
        ++total;
        timely += a.timely(d, src) ? 1 : 0;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(timely) / total, 0.3, 0.02);
}

TEST(ScheduleDeathTest, ScalarRejectsAMatrixOfAnotherSize) {
  ScheduleConfig cfg;
  cfg.n = 5;
  ScheduleSampler s(cfg);
  LinkMatrix small(3);
  LinkMatrix large(6);
  EXPECT_DEATH(s.sample_round(1, small), "matrix size must match");
  EXPECT_DEATH(s.sample_round(1, large), "matrix size must match");
}

}  // namespace
}  // namespace timing
