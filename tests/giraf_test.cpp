// Unit tests for the GIRAF round engine (Algorithm 1's environment):
// delivery semantics, destination sets, late/lost accounting, crashes,
// oracle plumbing and decision bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "giraf/engine.hpp"
#include "oracles/omega.hpp"

namespace timing {
namespace {

// A probe protocol that records what it sees and sends a configurable
// destination pattern.
class Probe final : public Protocol {
 public:
  Probe(ProcessId self, int n, bool broadcast)
      : self_(self), n_(n), broadcast_(broadcast) {}

  SendSpec initialize(ProcessId hint) override {
    hints.push_back(hint);
    return spec();
  }
  SendSpec compute(Round k, RoundMsgs received,
                   ProcessId hint) override {
    hints.push_back(hint);
    rounds.push_back(k);
    // The row lives only during compute(): keep copies.
    auto& kept = rows.emplace_back();
    for (const Message* m : received) {
      kept.push_back(m ? std::optional<Message>(*m) : std::nullopt);
    }
    if (decide_at == k) decided_value = 42;
    return spec();
  }
  bool has_decided() const noexcept override { return decided_value != kNoValue; }
  Value decision() const noexcept override { return decided_value; }

  std::vector<ProcessId> hints;
  std::vector<Round> rounds;
  std::vector<std::vector<std::optional<Message>>> rows;
  Round decide_at = -1;
  Value decided_value = kNoValue;

 private:
  SendSpec spec() const {
    Message m;
    m.est = self_ * 1000 + static_cast<Value>(rounds.size());
    if (broadcast_) return SendSpec{m, Destinations::all(n_)};
    return SendSpec{m, Destinations::one(0)};  // everyone sends to p0 only
  }
  ProcessId self_;
  int n_;
  bool broadcast_;
};

std::vector<std::unique_ptr<Protocol>> probes(int n, bool broadcast,
                                              std::vector<Probe*>& out) {
  std::vector<std::unique_ptr<Protocol>> v;
  for (ProcessId i = 0; i < n; ++i) {
    auto p = std::make_unique<Probe>(i, n, broadcast);
    out.push_back(p.get());
    v.push_back(std::move(p));
  }
  return v;
}

TEST(Engine, TimelyDeliveryAndOwnMessage) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, /*broadcast=*/true, ps), nullptr);
  LinkMatrix a(4, 0);
  e.step(a);
  ASSERT_EQ(ps[1]->rows.size(), 1u);
  const auto& row = ps[1]->rows[0];
  for (ProcessId s = 0; s < 4; ++s) {
    ASSERT_TRUE(row[s].has_value()) << "missing message from " << s;
    EXPECT_EQ(row[s]->est, s * 1000 + 0);
  }
}

TEST(Engine, LostMessagesDoNotArrive) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, true, ps), nullptr);
  LinkMatrix a(4, 0);
  a.set(2, 1, kLost);
  e.step(a);
  EXPECT_FALSE(ps[2]->rows[0][1].has_value());
  EXPECT_TRUE(ps[2]->rows[0][2].has_value()) << "own message always present";
  EXPECT_EQ(e.stats().lost_messages, 1);
}

TEST(Engine, LateMessagesAreCountedNotDelivered) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, true, ps), nullptr);
  LinkMatrix a(4, 0);
  a.set(2, 1, 2);  // p1 -> p2 arrives 2 rounds late
  e.step(a);
  EXPECT_FALSE(ps[2]->rows[0][1].has_value());
  EXPECT_EQ(e.stats().late_arrivals, 0);
  a.fill(0);
  e.step(a);
  EXPECT_EQ(e.stats().late_arrivals, 0);
  e.step(a);  // due now
  EXPECT_EQ(e.stats().late_arrivals, 1);
}

TEST(Engine, DestinationSetsAreRespected) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, /*broadcast=*/false, ps), nullptr);
  LinkMatrix a(4, 0);
  e.step(a);
  // Everyone sent only to p0: 3 sends (p0's send to itself is skipped).
  EXPECT_EQ(e.messages_last_round(), 3);
  EXPECT_TRUE(ps[0]->rows[0][3].has_value());
  EXPECT_FALSE(ps[2]->rows[0][1].has_value());
}

TEST(Engine, MessageComplexityAccounting) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(8, true, ps), nullptr);
  LinkMatrix a(8, 0);
  e.step(a);
  EXPECT_EQ(e.messages_last_round(), 8 * 7);
  EXPECT_EQ(e.stats().messages_sent, 8 * 7);
  EXPECT_EQ(e.stats().timely_deliveries, 8 * 7);
}

TEST(Engine, RoundNumbersAndOracleQueries) {
  std::vector<Probe*> ps;
  auto oracle = std::make_shared<DesignatedOracle>(3);
  RoundEngine e(probes(2, true, ps), oracle);
  LinkMatrix a(2, 0);
  e.step(a);
  e.step(a);
  EXPECT_EQ(ps[0]->rounds, (std::vector<Round>{1, 2}));
  // initialize hint + one per compute.
  EXPECT_EQ(ps[0]->hints, (std::vector<ProcessId>{3, 3, 3}));
  EXPECT_EQ(e.current_round(), 2);
}

TEST(Engine, CrashStopsParticipation) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, true, ps), nullptr);
  e.crash_at(1, 2);  // p1 executes round 1 only
  LinkMatrix a(4, 0);
  e.step(a);
  EXPECT_TRUE(ps[0]->rows[0][1].has_value());
  e.step(a);
  EXPECT_FALSE(ps[0]->rows[1][1].has_value()) << "crashed process kept sending";
  EXPECT_EQ(ps[1]->rounds.size(), 1u) << "crashed process kept computing";
  EXPECT_FALSE(e.alive(1));
  EXPECT_TRUE(e.alive(0));
}

TEST(Engine, DecisionBookkeeping) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(3, true, ps), nullptr);
  ps[0]->decide_at = 2;
  ps[1]->decide_at = 4;
  ps[2]->decide_at = 3;
  LinkMatrix a(3, 0);
  for (int i = 0; i < 5; ++i) e.step(a);
  EXPECT_EQ(e.decision_round(0), 2);
  EXPECT_EQ(e.decision_round(1), 4);
  EXPECT_EQ(e.decision_round(2), 3);
  EXPECT_EQ(e.global_decision_round(), 4);
  EXPECT_TRUE(e.all_alive_decided());
}

TEST(Engine, RunStopsAtGlobalDecision) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(3, true, ps), nullptr);
  for (auto* p : ps) p->decide_at = 7;
  IidTimelinessSampler s(3, 1.0, 1);
  EXPECT_EQ(e.run(s, 100), 7);
  EXPECT_EQ(e.current_round(), 7);
}

TEST(Engine, RunReturnsMinusOneWithoutDecision) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(3, true, ps), nullptr);
  IidTimelinessSampler s(3, 1.0, 1);
  EXPECT_EQ(e.run(s, 10), -1);
}

TEST(Engine, DeterministicAcrossIdenticalRuns) {
  // Two engines fed identical matrices must produce identical protocol
  // states and stats - the property the paired-seed experiment design
  // relies on.
  auto run_once = [] {
    std::vector<Probe*> ps;
    RoundEngine e(probes(5, true, ps), nullptr);
    IidTimelinessSampler s(5, 0.7, 99);
    LinkMatrix a(5);
    std::vector<long long> sent;
    for (Round k = 1; k <= 30; ++k) {
      s.sample_round(k, a);
      e.step(a);
      sent.push_back(e.stats().timely_deliveries);
    }
    return sent;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CrashedProcessesDoNotBlockGlobalDecision) {
  std::vector<Probe*> ps;
  RoundEngine e(probes(4, true, ps), nullptr);
  e.crash_at(3, 2);
  for (auto* p : ps) p->decide_at = 3;
  IidTimelinessSampler s(4, 1.0, 1);
  EXPECT_EQ(e.run(s, 10), 3) << "p3 crashed; the others decide at 3";
}

}  // namespace
}  // namespace timing
