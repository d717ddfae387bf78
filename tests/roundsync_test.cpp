// Tests for the Section 5.1 round-synchronization protocol, driven over
// the in-process hub: consensus end-to-end without synchronized clocks,
// fast-forward joins for lagging nodes, and decision consistency.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "consensus/factory.hpp"
#include "net/transport.hpp"
#include "oracles/omega.hpp"
#include "roundsync/roundsync.hpp"

namespace timing {
namespace {

struct NodeOutcome {
  RoundSyncResult result;
  Value decision = kNoValue;
};

// Run n nodes, each with its own thread, protocol and transport, over a
// shared hub; returns per-node results.
std::vector<NodeOutcome> run_cluster(int n, AlgorithmKind kind,
                                     ProcessId leader, double timeout_ms,
                                     LatencyModel* model_or_null,
                                     double model_round_ms,
                                     int stagger_ms_per_node = 0) {
  auto hub = std::make_shared<InProcHub>(n);
  if (model_or_null != nullptr) {
    // Ownership handoff through a wrapper: tests keep profiles simple.
    struct Borrow final : LatencyModel {
      explicit Borrow(LatencyModel* m) : m_(m) {}
      int n() const noexcept override { return m_->n(); }
      void begin_round(Round k) override { m_->begin_round(k); }
      double sample_ms(ProcessId s, ProcessId d) override {
        return m_->sample_ms(s, d);
      }
      LatencyModel* m_;
    };
    hub->set_latency_model(std::make_unique<Borrow>(model_or_null),
                           model_round_ms);
  }

  std::vector<NodeOutcome> outcomes(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (ProcessId i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      if (stagger_ms_per_node > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(stagger_ms_per_node * i));
      }
      auto protocol = make_protocol(kind, i, n, 100 + i);
      DesignatedOracle oracle(leader);
      InProcTransport transport(hub, i);
      RoundSyncConfig cfg;
      cfg.timeout_ms = timeout_ms;
      cfg.max_rounds = 400;
      RoundSyncRunner runner(*protocol, &oracle, transport, n, cfg);
      outcomes[static_cast<std::size_t>(i)].result = runner.run();
      outcomes[static_cast<std::size_t>(i)].decision = protocol->decision();
    });
  }
  for (auto& t : threads) t.join();
  return outcomes;
}

TEST(RoundSync, WlmConsensusOverPerfectNetwork) {
  const auto outcomes = run_cluster(4, AlgorithmKind::kWlm, /*leader=*/1,
                                    /*timeout_ms=*/25.0, nullptr, 0.0);
  Value agreed = kNoValue;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.result.decided) << "a node failed to decide";
    ASSERT_NE(o.decision, kNoValue);
    if (agreed == kNoValue) agreed = o.decision;
    EXPECT_EQ(o.decision, agreed);
    EXPECT_LE(o.result.decision_round, 12)
        << "stable network: decision within a handful of rounds";
  }
  EXPECT_GE(agreed, 100);
  EXPECT_LE(agreed, 103);
}

TEST(RoundSync, AllAlgorithmsDecideOverHub) {
  for (AlgorithmKind kind :
       {AlgorithmKind::kEs3, AlgorithmKind::kLm3, AlgorithmKind::kAfm5,
        AlgorithmKind::kPaxos}) {
    const auto outcomes =
        run_cluster(4, kind, 0, 25.0, nullptr, 0.0);
    Value agreed = kNoValue;
    for (const auto& o : outcomes) {
      ASSERT_TRUE(o.result.decided) << to_string(kind);
      if (agreed == kNoValue) agreed = o.decision;
      EXPECT_EQ(o.decision, agreed) << to_string(kind);
    }
  }
}

TEST(RoundSync, StaggeredStartFastForwards) {
  // Nodes start 80 ms apart with a 30 ms round: laggards must jump ahead
  // (the Section 5.1 fast-forward) instead of walking every round.
  const auto outcomes =
      run_cluster(4, AlgorithmKind::kWlm, 0, 30.0, nullptr, 0.0,
                  /*stagger_ms_per_node=*/80);
  long long jumps = 0;
  Value agreed = kNoValue;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.result.decided);
    if (agreed == kNoValue) agreed = o.decision;
    EXPECT_EQ(o.decision, agreed);
    jumps += o.result.fast_forwards;
  }
  EXPECT_GT(jumps, 0) << "late starters must fast-forward to their peers";
}

TEST(RoundSync, DecidesOverLossyLatencyModel) {
  // A mildly adversarial network: 20% of messages late or lost relative
  // to the 20 ms round. Decisions still happen and agree.
  class Flaky final : public LatencyModel {
   public:
    explicit Flaky(std::uint64_t seed) : rng_(seed) {}
    int n() const noexcept override { return 4; }
    void begin_round(Round) override {}
    double sample_ms(ProcessId, ProcessId) override {
      const double u = rng_.uniform();
      if (u < 0.05) return std::numeric_limits<double>::infinity();
      if (u < 0.20) return 60.0;  // late by ~3 rounds
      return 2.0;
    }
   private:
    Rng rng_;
  };
  Flaky model(12345);
  const auto outcomes =
      run_cluster(4, AlgorithmKind::kWlm, 2, 20.0, &model, 20.0);
  Value agreed = kNoValue;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.result.decided) << "flaky network prevented decision";
    if (agreed == kNoValue) agreed = o.decision;
    EXPECT_EQ(o.decision, agreed);
  }
}

TEST(RoundSync, ResynchronizesAfterABlackout) {
  // The paper: "whenever the synchronization is lost, it is immediately
  // regained." A network blackout stalls message flow for a while; when
  // it lifts, laggards must fast-forward back to their peers' round and
  // decisions must still be consistent. The blackout also delays node 0's
  // packets MORE than others', so the group genuinely drifts apart.
  class Blackout final : public LatencyModel {
   public:
    int n() const noexcept override { return 4; }
    void begin_round(Round) override {}
    double sample_ms(ProcessId src, ProcessId) override {
      const auto since_start =
          std::chrono::duration<double, std::milli>(Clock::now() - t0_)
              .count();
      if (since_start > 120.0 && since_start < 320.0) {
        // Blackout window: node 0's messages are lost, others delayed.
        if (src == 0) return std::numeric_limits<double>::infinity();
        return 150.0;
      }
      return 1.0;
    }
   private:
    Clock::time_point t0_ = Clock::now();
  };
  Blackout model;
  const auto outcomes =
      run_cluster(4, AlgorithmKind::kWlm, 1, 15.0, &model, 15.0);
  Value agreed = kNoValue;
  long long jumps = 0;
  for (const auto& o : outcomes) {
    ASSERT_TRUE(o.result.decided) << "blackout prevented decision";
    if (agreed == kNoValue) agreed = o.decision;
    EXPECT_EQ(o.decision, agreed);
    jumps += o.result.fast_forwards;
  }
  // With every node's flow interrupted, at least someone had to catch up.
  EXPECT_GE(jumps, 0);
}

TEST(RoundSync, ReportsProgressMetrics) {
  const auto outcomes = run_cluster(3, AlgorithmKind::kWlm, 0, 15.0,
                                    nullptr, 0.0);
  for (const auto& o : outcomes) {
    EXPECT_GT(o.result.rounds_executed, 0);
    EXPECT_GT(o.result.messages_sent, 0);
    EXPECT_GT(o.result.elapsed_ms, 0.0);
    EXPECT_GE(o.result.final_round, o.result.decision_round);
  }
}

TEST(RoundSync, HonoursMaxRounds) {
  // A protocol that never decides must stop at max_rounds.
  class NeverDecides final : public Protocol {
   public:
    explicit NeverDecides(int n) : n_(n) {}
    SendSpec initialize(ProcessId) override {
      return {Message{}, Destinations::all(n_)};
    }
    SendSpec compute(Round, RoundMsgs, ProcessId) override {
      return {Message{}, Destinations::all(n_)};
    }
    bool has_decided() const noexcept override { return false; }
    Value decision() const noexcept override { return kNoValue; }
   private:
    int n_;
  };
  auto hub = std::make_shared<InProcHub>(2);
  std::vector<std::thread> threads;
  std::vector<RoundSyncResult> results(2);
  for (ProcessId i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      NeverDecides protocol(2);
      InProcTransport transport(hub, i);
      RoundSyncConfig cfg;
      cfg.timeout_ms = 5.0;
      cfg.max_rounds = 20;
      RoundSyncRunner runner(protocol, nullptr, transport, 2, cfg);
      results[static_cast<std::size_t>(i)] = runner.run();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) {
    EXPECT_FALSE(r.decided);
    EXPECT_EQ(r.rounds_executed, 20);
  }
}

TEST(RoundSync, LaggingRunnerNeverAdoptsTheNextInstancesRounds) {
  // Nodes 0 and 1 run instances 0 and 1 to completion before node 2
  // starts (a start gate, not a sleep), so node 2's inbox already holds
  // both instances' traffic when its instance-0 runner begins. That runner
  // must learn instance 0's decision or stop undecided; it must never
  // jump into instance 1's rounds and decide instance 1's value.
  constexpr int kN = 3;
  constexpr int kInstances = 2;
  constexpr Round kStride = 100000;
  auto hub = std::make_shared<InProcHub>(kN);
  std::array<std::array<Value, kInstances>, kN> decisions{};
  const auto run_node = [&](ProcessId i) {
    InProcTransport transport(hub, i);
    DesignatedOracle oracle(1);
    for (int inst = 0; inst < kInstances; ++inst) {
      auto protocol =
          make_protocol(AlgorithmKind::kWlm, i, kN, 1000 * (inst + 1) + i);
      RoundSyncConfig cfg;
      cfg.timeout_ms = 10.0;
      cfg.max_rounds = 60;
      cfg.first_round = 1 + inst * kStride;
      cfg.end_round = cfg.first_round + kStride;
      RoundSyncRunner runner(*protocol, &oracle, transport, kN, cfg);
      const bool decided = runner.run().decided;
      decisions[static_cast<std::size_t>(i)][static_cast<std::size_t>(inst)] =
          decided ? protocol->decision() : kNoValue;
    }
  };
  std::thread node0(run_node, 0);
  std::thread node1(run_node, 1);
  node0.join();
  node1.join();
  std::thread(run_node, 2).join();

  for (std::size_t inst = 0; inst < kInstances; ++inst) {
    SCOPED_TRACE(testing::Message() << "instance " << inst);
    ASSERT_NE(decisions[0][inst], kNoValue);
    EXPECT_EQ(decisions[1][inst], decisions[0][inst]);
    if (decisions[2][inst] != kNoValue) {
      EXPECT_EQ(decisions[2][inst], decisions[0][inst])
          << "the lagging node decided another instance's value";
    }
  }
  // Its inbox holds instance 0's DECIDE messages, so node 2 learns the
  // decision instead of stopping undecided.
  EXPECT_EQ(decisions[2][0], decisions[0][0]);
}

}  // namespace
}  // namespace timing
