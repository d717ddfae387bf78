// Unit tests for the consensus protocols: rule-level behaviour checked by
// feeding hand-crafted rows into compute(), plus the paper's headline
// bounds on friendly schedules.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "consensus/factory.hpp"
#include "consensus/lm3.hpp"
#include "consensus/lm_over_wlm.hpp"
#include "consensus/paxos.hpp"
#include "consensus/unanimity.hpp"
#include "consensus/wlm.hpp"
#include "giraf/engine.hpp"
#include "harness/algorithm_runs.hpp"
#include "oracles/omega.hpp"

namespace timing {
namespace {

/// A hand-built row: the messages held by value, handed to compute() as
/// the RoundMsgs view the engine builds.
class Row {
 public:
  explicit Row(std::size_t n) : msgs_(n), view_(n, nullptr) {}
  std::optional<Message>& operator[](std::size_t j) { return msgs_[j]; }
  operator RoundMsgs() {
    for (std::size_t j = 0; j < msgs_.size(); ++j) {
      view_[j] = msgs_[j] ? &*msgs_[j] : nullptr;
    }
    return view_;
  }

 private:
  std::vector<std::optional<Message>> msgs_;
  std::vector<const Message*> view_;
};

Message msg(MsgType t, Value est, Timestamp ts, ProcessId leader = kNoProcess,
            bool maj_approved = false) {
  Message m;
  m.type = t;
  m.est = est;
  m.ts = ts;
  m.leader = leader;
  m.maj_approved = maj_approved;
  return m;
}

// ------------------------------------------------------------ WLM unit --

TEST(WlmUnit, InitializeSendsPrepareToLeader) {
  WlmConsensus p(/*self=*/1, /*n=*/4, /*proposal=*/7);
  SendSpec s = p.initialize(/*leader=*/3);
  EXPECT_EQ(s.msg.type, MsgType::kPrepare);
  EXPECT_EQ(s.msg.est, 7);
  EXPECT_EQ(s.msg.ts, 0);
  EXPECT_EQ(s.msg.leader, 3);
  EXPECT_EQ(s.dests, Destinations::one(3));
}

TEST(WlmUnit, LeaderBroadcasts) {
  WlmConsensus p(2, 4, 7);
  SendSpec s = p.initialize(2);
  EXPECT_EQ(s.dests.size(), 4u) << "the leader sends to Pi";
}

TEST(WlmUnit, Decide1OnReceivedDecide) {
  WlmConsensus p(0, 3, 5);
  SendSpec init = p.initialize(1);
  Row row(3);
  row[0] = init.msg;
  row[2] = msg(MsgType::kDecide, 99, 4);
  SendSpec out = p.compute(1, row, 1);
  EXPECT_TRUE(p.has_decided());
  EXPECT_EQ(p.decision(), 99);
  EXPECT_EQ(out.msg.type, MsgType::kDecide);
  EXPECT_EQ(out.msg.est, 99);
}

TEST(WlmUnit, CommitRuleAdoptsLeaderEstimateWithRoundTimestamp) {
  // prevLD = initialize's leader = 1; round-k message from p1 with
  // majApproved triggers the commit rule (line 28): ts <- k.
  WlmConsensus p(0, 3, 5);
  SendSpec init = p.initialize(1);
  Row row(3);
  row[0] = init.msg;
  row[1] = msg(MsgType::kPrepare, 77, 0, 1, /*maj_approved=*/true);
  SendSpec out = p.compute(4, row, 1);
  EXPECT_FALSE(p.has_decided());
  EXPECT_EQ(out.msg.type, MsgType::kCommit);
  EXPECT_EQ(out.msg.est, 77);
  EXPECT_EQ(out.msg.ts, 4);
  EXPECT_EQ(p.last_commit_round(), 4);
}

TEST(WlmUnit, NoCommitWithoutMajApproved) {
  WlmConsensus p(0, 3, 5);
  SendSpec init = p.initialize(1);
  Row row(3);
  row[0] = init.msg;
  row[1] = msg(MsgType::kPrepare, 77, 2, 1, /*maj_approved=*/false);
  SendSpec out = p.compute(1, row, 1);
  EXPECT_EQ(out.msg.type, MsgType::kPrepare);
  // line 29: adopt maxTS / maxEST.
  EXPECT_EQ(out.msg.ts, 2);
  EXPECT_EQ(out.msg.est, 77);
}

TEST(WlmUnit, MaxEstBreaksTimestampTiesByValueOrder) {
  WlmConsensus p(0, 4, 1);
  SendSpec init = p.initialize(3);
  Row row(4);
  row[0] = init.msg;
  row[1] = msg(MsgType::kPrepare, 50, 2);
  row[2] = msg(MsgType::kPrepare, 60, 2);
  SendSpec out = p.compute(1, row, 3);
  EXPECT_EQ(out.msg.ts, 2);
  EXPECT_EQ(out.msg.est, 60) << "maxEST: maximal estimate among maxTS";
}

TEST(WlmUnit, MajApprovedComputedFromLeaderVotes) {
  // p0 sees 2 of 3 messages naming it leader -> majApproved in its next
  // message.
  WlmConsensus p(0, 3, 5);
  SendSpec init = p.initialize(0);
  Row row(3);
  row[0] = init.msg;  // names p0 (own oracle)
  row[1] = msg(MsgType::kPrepare, 8, 0, /*leader=*/0);
  SendSpec out = p.compute(1, row, 0);
  EXPECT_TRUE(out.msg.maj_approved);

  WlmConsensus q(0, 3, 5);
  SendSpec qinit = q.initialize(0);
  Row row2(3);
  row2[0] = qinit.msg;
  row2[1] = msg(MsgType::kPrepare, 8, 0, /*leader=*/2);
  SendSpec out2 = q.compute(1, row2, 0);
  EXPECT_FALSE(out2.msg.maj_approved);
}

TEST(WlmUnit, Decide23NeedsOwnCommitAndOwnMajApproved) {
  // Drive a full commit-then-decide sequence: p0 is the leader, commits
  // the leader's (its own) estimate in round 3, and decides in round 4 on
  // a majority of COMMITs including its own, with its own round-4 message
  // carrying majApproved (rules decide-2 + decide-3).
  WlmConsensus p(0, 3, 11);
  SendSpec init = p.initialize(0);
  // Round 3: p0 sees itself majority-approved (own + p1 name it leader)
  // and its own message with majApproved -> commit rule fires next round;
  // first make majApproved true.
  Row r3(3);
  r3[0] = init.msg;                                  // leader = 0
  r3[1] = msg(MsgType::kPrepare, 7, 0, /*leader=*/0);  // votes for p0
  SendSpec after3 = p.compute(3, r3, 0);
  ASSERT_TRUE(after3.msg.maj_approved);

  // Round 4: own message has majApproved -> commit on own estimate.
  Row r4(3);
  r4[0] = after3.msg;
  r4[1] = msg(MsgType::kPrepare, 7, 0, /*leader=*/0);
  SendSpec after4 = p.compute(4, r4, 0);
  ASSERT_EQ(after4.msg.type, MsgType::kCommit);
  ASSERT_EQ(after4.msg.est, 11);
  ASSERT_TRUE(after4.msg.maj_approved);

  // Round 5: majority of COMMITs including own, own majApproved -> decide.
  Row r5(3);
  r5[0] = after4.msg;
  r5[1] = msg(MsgType::kCommit, 11, 4, /*leader=*/0);
  SendSpec out = p.compute(5, r5, 0);
  EXPECT_TRUE(p.has_decided());
  EXPECT_EQ(p.decision(), 11) << "decides its own estimate";
  EXPECT_EQ(out.msg.type, MsgType::kDecide);
}

TEST(WlmUnit, NoDecideWhenOwnMajApprovedFalse) {
  WlmConsensus p(0, 3, 5);
  p.initialize(0);
  Row row(3);
  row[0] = msg(MsgType::kCommit, 11, 3, 0, /*maj_approved=*/false);
  row[1] = msg(MsgType::kCommit, 11, 3, 0, true);
  p.compute(4, row, 0);
  EXPECT_FALSE(p.has_decided()) << "decide-3 requires OWN majApproved";
}

TEST(WlmUnit, DecidedProcessKeepsSendingDecide) {
  WlmConsensus p(0, 3, 5);
  p.initialize(1);
  Row row(3);
  row[0] = msg(MsgType::kPrepare, 5, 0, 1);
  row[2] = msg(MsgType::kDecide, 99, 4);
  p.compute(1, row, 1);
  ASSERT_TRUE(p.has_decided());
  Row row2(3);
  row2[0] = msg(MsgType::kDecide, 99, 0, 1);
  SendSpec out = p.compute(2, row2, 1);
  EXPECT_EQ(out.msg.type, MsgType::kDecide);
  EXPECT_EQ(out.msg.est, 99);
  EXPECT_EQ(p.decision(), 99);
}

// ------------------------------------------------- WLM via Theorem 10 --

TEST(WlmBounds, DecidesByGsrPlus4WithModelMinimumOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kWlm;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kWlm;
    cfg.schedule.leader = 3;
    cfg.schedule.gsr = 15;
    cfg.schedule.minimal = (seed % 2 == 0);
    cfg.schedule.seed = seed;
    cfg.oracle_stable_from = cfg.schedule.gsr;  // Theorem 10(a)
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(100 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 4)
        << "Theorem 10(a), seed " << seed;
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity);
  }
}

TEST(WlmBounds, DecidesByGsrPlus3WithStableLeader) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kWlm;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kWlm;
    cfg.schedule.leader = 6;
    cfg.schedule.gsr = 12;
    cfg.schedule.minimal = (seed % 2 == 0);
    cfg.schedule.seed = seed * 31;
    cfg.oracle_stable_from = cfg.schedule.gsr - 1;  // Theorem 10(b)
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(100 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 3)
        << "Theorem 10(b), seed " << seed;
  }
}

TEST(WlmBounds, StableStateMessageComplexityIsLinear) {
  AlgorithmRunConfig cfg;
  cfg.kind = AlgorithmKind::kWlm;
  cfg.schedule.n = 16;
  cfg.schedule.model = TimingModel::kWlm;
  cfg.schedule.leader = 2;
  cfg.schedule.gsr = 8;
  cfg.schedule.seed = 4;
  cfg.oracle_stable_from = 0;
  for (int i = 0; i < 16; ++i) cfg.proposals.push_back(i + 1);
  const auto r = run_algorithm(cfg);
  ASSERT_TRUE(r.all_decided);
  EXPECT_EQ(r.stable_round_messages, 2 * (16 - 1))
      << "leader->all plus all->leader";
}

// ---------------------------------------------------- Unanimity (ES-3) --

TEST(UnanimityUnit, CommitNeedsMajorityAndUnanimity) {
  UnanimityConsensus p(0, 4, 5);
  SendSpec init = p.initialize(kNoProcess);
  Row row(4);
  row[0] = init.msg;
  row[1] = msg(MsgType::kPrepare, 5, 0);
  SendSpec out = p.compute(1, row, kNoProcess);
  EXPECT_EQ(out.msg.type, MsgType::kPrepare) << "2 of 4 is not a majority";

  row[2] = msg(MsgType::kPrepare, 5, 0);
  UnanimityConsensus q(0, 4, 5);
  SendSpec qi = q.initialize(kNoProcess);
  row[0] = qi.msg;
  SendSpec out2 = q.compute(1, row, kNoProcess);
  EXPECT_EQ(out2.msg.type, MsgType::kCommit);
  EXPECT_EQ(out2.msg.ts, 1);

  row[2] = msg(MsgType::kPrepare, 6, 0);  // not unanimous
  UnanimityConsensus r2(0, 4, 5);
  SendSpec ri = r2.initialize(kNoProcess);
  row[0] = ri.msg;
  SendSpec out3 = r2.compute(1, row, kNoProcess);
  EXPECT_EQ(out3.msg.type, MsgType::kPrepare);
  EXPECT_EQ(out3.msg.est, 6) << "adopts maxEST among maxTS carriers";
}

TEST(UnanimityUnit, Decide2NeedsFreshCommits) {
  UnanimityConsensus p(0, 3, 5);
  p.initialize(kNoProcess);
  Row row(3);
  row[0] = msg(MsgType::kCommit, 5, 3);  // own commit from round 3
  row[1] = msg(MsgType::kCommit, 5, 3);
  p.compute(4, row, kNoProcess);  // k-1 == 3: fresh
  EXPECT_TRUE(p.has_decided());
  EXPECT_EQ(p.decision(), 5);

  UnanimityConsensus q(0, 3, 5);
  q.initialize(kNoProcess);
  Row row2(3);
  row2[0] = msg(MsgType::kCommit, 5, 2);  // stale commits (ts != k-1)
  row2[1] = msg(MsgType::kCommit, 5, 2);
  q.compute(4, row2, kNoProcess);
  EXPECT_FALSE(q.has_decided());
}

TEST(UnanimityBounds, EsDecidesInThreeRoundsFromGsr) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kEs3;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kEs;
    cfg.schedule.gsr = 10;
    cfg.schedule.seed = seed * 7;
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(200 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 2)
        << "3 rounds = GSR..GSR+2, seed " << seed;
  }
}

TEST(UnanimityBounds, AfmDecidesInFiveRoundsFromGsr) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kAfm5;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kAfm;
    cfg.schedule.gsr = 10;
    cfg.schedule.minimal = (seed % 2 == 0);
    cfg.schedule.seed = seed * 13;
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(300 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 4)
        << "5 rounds = GSR..GSR+4, seed " << seed;
  }
}

// --------------------------------------------------------------- LM-3 --

TEST(Lm3Unit, CommitNeedsVotesAndCertificate) {
  Lm3Consensus p(0, 4, 5);
  SendSpec init = p.initialize(1);
  Row row(4);
  row[0] = init.msg;
  Message lead = msg(MsgType::kPrepare, 42, 0, /*leader=*/1);
  lead.heard_maj = true;
  row[1] = lead;
  Message voter = msg(MsgType::kPrepare, 9, 0, /*leader=*/1);
  row[2] = voter;
  // votes for p1: own message (leader=1) + row[1] (p1 itself names 1)
  // + row[2] = 3 of 4 > n/2, and p1's message carries heardMaj.
  SendSpec out = p.compute(3, row, 1);
  EXPECT_EQ(out.msg.type, MsgType::kCommit);
  EXPECT_EQ(out.msg.est, 42);
  EXPECT_EQ(out.msg.ts, 3);

  // Without the certificate: no commit.
  Lm3Consensus q(0, 4, 5);
  SendSpec qi = q.initialize(1);
  row[0] = qi.msg;
  lead.heard_maj = false;
  row[1] = lead;
  SendSpec out2 = q.compute(3, row, 1);
  EXPECT_EQ(out2.msg.type, MsgType::kPrepare);
}

TEST(Lm3Unit, HeardMajReflectsPreviousRound) {
  Lm3Consensus p(0, 4, 1);
  SendSpec init = p.initialize(1);
  Row row(4);
  row[0] = init.msg;
  SendSpec out = p.compute(1, row, 1);
  EXPECT_FALSE(out.msg.heard_maj) << "heard only itself";
  Row row2(4);
  row2[0] = out.msg;
  row2[1] = msg(MsgType::kPrepare, 1, 0, 1);
  row2[2] = msg(MsgType::kPrepare, 2, 0, 1);
  SendSpec out2 = p.compute(2, row2, 1);
  EXPECT_TRUE(out2.msg.heard_maj) << "heard 3 of 4";
}

TEST(Lm3Bounds, DecidesInThreeRoundsFromGsr) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kLm3;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kLm;
    cfg.schedule.leader = 5;
    cfg.schedule.gsr = 10;
    cfg.schedule.minimal = (seed % 2 == 0);
    cfg.schedule.seed = seed * 3;
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(400 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 2)
        << "3 rounds = GSR..GSR+2, seed " << seed;
  }
}

// -------------------------------------------- LM over WLM (Algorithm 3) --

TEST(LmOverWlm, DecidesWithinSevenWlmRoundsOfGsr) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    AlgorithmRunConfig cfg;
    cfg.kind = AlgorithmKind::kLmOverWlm;
    cfg.schedule.n = 8;
    cfg.schedule.model = TimingModel::kWlm;
    cfg.schedule.leader = 2;
    cfg.schedule.gsr = 9 + static_cast<Round>(seed % 2);  // odd and even GSR
    cfg.schedule.minimal = (seed % 3 == 0);
    cfg.schedule.seed = seed * 17;
    for (int i = 0; i < 8; ++i) cfg.proposals.push_back(500 + i);
    const auto r = run_algorithm(cfg);
    ASSERT_TRUE(r.all_decided) << "seed " << seed;
    EXPECT_LE(r.global_decision_round, cfg.schedule.gsr + 7)
        << "Lemma 12: 7 <>WLM rounds (+1 for round-boundary alignment), seed "
        << seed;
    EXPECT_TRUE(r.agreement);
  }
}

TEST(LmOverWlm, InnerRoundsAreHalfOuterRounds) {
  auto inner = std::make_unique<Lm3Consensus>(0, 4, 5);
  LmOverWlmSimulation sim(0, 4, std::move(inner));
  SendSpec s = sim.initialize(1);
  EXPECT_NE(s.msg.type, MsgType::kRelay) << "round 1 carries inner message";
  Row row(4);
  row[0] = s.msg;
  SendSpec relay = sim.compute(1, row, 1);
  EXPECT_EQ(relay.msg.type, MsgType::kRelay);
  ASSERT_EQ(relay.msg.relay_from.size(), 1u);
  EXPECT_EQ(relay.msg.relay_from[0], 0);
  Row row2(4);
  row2[0] = relay.msg;
  SendSpec inner_out = sim.compute(2, row2, 1);
  EXPECT_NE(inner_out.msg.type, MsgType::kRelay);
  EXPECT_EQ(sim.inner_rounds(), 1);
}

// -------------------------------------------------------------- Paxos --

TEST(PaxosUnit, CleanBallotTimeline) {
  // With a perfect network and a stable leader, Paxos decides globally
  // within 5 stable rounds (prepare 2, accept 2, decide 1) + 1 initial
  // idle round.
  std::vector<Value> proposals{10, 11, 12, 13, 14};
  auto group = make_group(AlgorithmKind::kPaxos, proposals);
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine e(std::move(group), oracle);
  IidTimelinessSampler s(5, 1.0, 1);
  const Round decided = e.run(s, 20);
  ASSERT_GE(decided, 0);
  EXPECT_LE(decided, 6);
  for (ProcessId i = 0; i < 5; ++i) {
    EXPECT_EQ(e.process(i).decision(), 10) << "leader's proposal wins";
  }
}

TEST(PaxosUnit, SeededPromiseForcesHigherBallot) {
  std::vector<Value> proposals{10, 11, 12};
  std::vector<std::unique_ptr<Protocol>> group;
  std::vector<PaxosConsensus*> raw;
  for (ProcessId i = 0; i < 3; ++i) {
    auto p = std::make_unique<PaxosConsensus>(i, 3, proposals[i]);
    raw.push_back(p.get());
    group.push_back(std::move(p));
  }
  raw[1]->seed_promise(50);
  raw[2]->seed_promise(90);
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine e(std::move(group), oracle);
  IidTimelinessSampler s(3, 1.0, 1);
  const Round decided = e.run(s, 60);
  ASSERT_GE(decided, 0);
  EXPECT_GT(raw[0]->ballots_started(), 1)
      << "the leader must have chased past the seeded promises";
  for (ProcessId i = 0; i < 3; ++i) {
    EXPECT_EQ(e.process(i).decision(), 10);
  }
}

TEST(PaxosUnit, RecoveryIsLinearInSeededBallotChain) {
  // The [13] scenario: staggered promises + adversarially revealed
  // majorities make the number of ballots grow with n. Here we only
  // check the friendly-network variant: even with all links timely, the
  // chase visits every seeded ballot tier that NACKs can reveal.
  const int n = 9;
  std::vector<std::unique_ptr<Protocol>> group;
  std::vector<PaxosConsensus*> raw;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<PaxosConsensus>(i, n, 100 + i);
    raw.push_back(p.get());
    group.push_back(std::move(p));
  }
  for (ProcessId i = 1; i < n; ++i) raw[i]->seed_promise(1000 * i);
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine e(std::move(group), oracle);
  IidTimelinessSampler s(n, 1.0, 1);
  const Round decided = e.run(s, 200);
  ASSERT_GE(decided, 0);
  // With a full view the leader learns the global max promise in one
  // NACK wave, so this friendly case needs only a couple of ballots;
  // the adversarial <>WLM case (scenario ablation/paxos_recovery)
  // needs Theta(n).
  EXPECT_GE(raw[0]->ballots_started(), 2);
  EXPECT_TRUE(e.all_alive_decided());
}

// --------------------------------------------------------- Factory ----

TEST(Factory, BuildsEveryKind) {
  for (AlgorithmKind k :
       {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
        AlgorithmKind::kAfm5, AlgorithmKind::kLmOverWlm,
        AlgorithmKind::kPaxos}) {
    auto p = make_protocol(k, 0, 4, 1);
    ASSERT_NE(p, nullptr) << to_string(k);
    EXPECT_FALSE(p->has_decided());
    EXPECT_EQ(p->decision(), kNoValue);
  }
  auto g = make_group(AlgorithmKind::kWlm, {1, 2, 3});
  EXPECT_EQ(g.size(), 3u);
}

}  // namespace
}  // namespace timing
