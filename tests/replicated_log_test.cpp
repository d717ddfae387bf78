// Tests for the pipelined, batched ReplicatedLog: batch sealing (fullness
// vs flush deadline), out-of-order decision with in-order commit, slot
// retry/abandonment, the consistent() vs consistent_among() semantics
// with crashed replicas, and thread-count determinism of the
// smr/throughput scenario's results JSONL.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "scenario/registry.hpp"
#include "scenario/results.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/sampler.hpp"
#include "smr/replicated_log.hpp"

namespace timing {
namespace {

// ------------------------------------------------------- test samplers --

/// Every link timely every round: decisions in a handful of rounds.
class TimelySampler final : public TimelinessSampler {
 public:
  explicit TimelySampler(int n) : n_(n) {}
  int n() const noexcept override { return n_; }
  void sample_round(Round, LinkMatrix& out) override { out.fill(0); }
  void sample_round(Round, PackedLinkMatrix& out) override { out.fill(0); }

 private:
  int n_;
};

/// Every cross-process message lost before round `until`, fully timely
/// from `until` on (self-links always timely, as real samplers keep them).
class LostUntilSampler final : public TimelinessSampler {
 public:
  LostUntilSampler(int n, Round until) : n_(n), until_(until) {}
  int n() const noexcept override { return n_; }
  void sample_round(Round k, LinkMatrix& out) override {
    out.fill(k < until_ ? kLost : Delay{0});
    for (ProcessId i = 0; i < n_; ++i) out.set(i, i, 0);
  }
  void sample_round(Round k, PackedLinkMatrix& out) override {
    out.fill(k < until_ ? kLost : Delay{0});
    for (ProcessId i = 0; i < n_; ++i) out.set(i, i, 0);
  }

 private:
  int n_;
  Round until_;
};

std::vector<std::unique_ptr<StateMachine>> kv_machines(int n) {
  std::vector<std::unique_ptr<StateMachine>> ms;
  for (int i = 0; i < n; ++i) ms.push_back(std::make_unique<KvStateMachine>());
  return ms;
}

SlotEnvFactory timely_envs(int n) {
  return [n](int, int) {
    InstanceEnv env;
    env.sampler = std::make_unique<TimelySampler>(n);
    return env;
  };
}

/// Drive ticks until drained, with a liveness bound so a broken log
/// fails the test instead of hanging it.
void drain(ReplicatedLog& rlog, int max_ticks = 10000) {
  while (!rlog.drained()) {
    ASSERT_LT(rlog.now(), max_ticks) << "log did not drain";
    rlog.tick();
  }
}

// ------------------------------------------------------- batch sealing --

TEST(ReplicatedLog, NoSubmissionsMeansNoSlots) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  ReplicatedLog rlog(cfg, kv_machines(3), timely_envs(3));
  for (int i = 0; i < 10; ++i) rlog.tick();
  EXPECT_TRUE(rlog.drained());
  EXPECT_EQ(rlog.slots_started(), 0);
  EXPECT_TRUE(rlog.take_committed().empty());
  EXPECT_TRUE(rlog.log().empty());
}

TEST(ReplicatedLog, FullBatchSealsImmediately) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  cfg.batch = 2;
  cfg.flush_ticks = 1000;  // only fullness can seal
  ReplicatedLog rlog(cfg, kv_machines(3), timely_envs(3));
  rlog.submit(make_kv_command(1, 10));
  EXPECT_EQ(rlog.slots_started(), 1);  // batch opened = slot ordinal taken
  EXPECT_FALSE(rlog.drained());
  rlog.submit(make_kv_command(2, 20));  // fills the batch: seals now
  drain(rlog);
  const auto recs = rlog.take_committed();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].committed);
  EXPECT_EQ(recs[0].slot, 0);
  EXPECT_EQ(recs[0].sealed_tick, 0);  // sealed before the first tick
  ASSERT_EQ(recs[0].ops.size(), 2u);
  EXPECT_EQ(recs[0].ops[0].cmd, make_kv_command(1, 10));
  EXPECT_EQ(recs[0].ops[1].cmd, make_kv_command(2, 20));
  EXPECT_EQ(rlog.log(),
            (std::vector<Command>{make_kv_command(1, 10),
                                  make_kv_command(2, 20)}));
  EXPECT_TRUE(rlog.consistent());
}

TEST(ReplicatedLog, SingleOpSealsAtTheFlushDeadline) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  cfg.batch = 4;
  cfg.flush_ticks = 2;
  ReplicatedLog rlog(cfg, kv_machines(3), timely_envs(3));
  rlog.submit(make_kv_command(7, 70));  // opens at tick 0, never fills
  rlog.tick();                          // tick 1: deadline not reached
  EXPECT_EQ(rlog.in_flight(), 0);
  rlog.tick();  // tick 2: waited flush_ticks, seals and starts
  EXPECT_EQ(rlog.in_flight(), 1);
  drain(rlog);
  const auto recs = rlog.take_committed();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_TRUE(recs[0].committed);
  EXPECT_EQ(recs[0].sealed_tick, 2);
  ASSERT_EQ(recs[0].ops.size(), 1u);
  EXPECT_EQ(recs[0].ops[0].cmd, make_kv_command(7, 70));
}

// ------------------------------------- pipelining and commit ordering --

TEST(ReplicatedLog, InFlightNeverExceedsThePipeline) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  cfg.pipeline = 2;
  cfg.batch = 1;
  ReplicatedLog rlog(cfg, kv_machines(3), [](int, int) {
    InstanceEnv env;  // slow enough that slots queue behind the pipeline
    env.sampler = std::make_unique<LostUntilSampler>(3, 6);
    return env;
  });
  for (int i = 0; i < 6; ++i) rlog.submit(make_kv_command(0, 100 + i));
  EXPECT_EQ(rlog.slots_started(), 6);
  while (!rlog.drained()) {
    EXPECT_LE(rlog.in_flight(), cfg.pipeline);
    ASSERT_LT(rlog.now(), 1000);
    rlog.tick();
  }
  EXPECT_EQ(rlog.slots_committed(), 6);
  EXPECT_EQ(rlog.log().size(), 6u);
}

TEST(ReplicatedLog, PipeliningOverlapsInstances) {
  const int kCmds = 4;
  long long ticks_by_pipeline[2] = {0, 0};
  const int pipelines[2] = {1, 4};
  for (int v = 0; v < 2; ++v) {
    ReplicatedLogConfig cfg;
    cfg.n = 3;
    cfg.pipeline = pipelines[v];
    cfg.batch = 1;
    ReplicatedLog rlog(cfg, kv_machines(3), timely_envs(3));
    for (int i = 0; i < kCmds; ++i) rlog.submit(make_kv_command(0, i));
    drain(rlog);
    EXPECT_EQ(rlog.slots_committed(), kCmds);
    ticks_by_pipeline[v] = rlog.now();
  }
  // Serialized, the slots run back to back; pipelined, they share rounds.
  EXPECT_LT(ticks_by_pipeline[1], ticks_by_pipeline[0]);
}

TEST(ReplicatedLog, OutOfOrderDecisionStillCommitsInSlotOrder) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  cfg.pipeline = 2;
  cfg.batch = 1;
  // Slot 0's network is dead until round 12; slot 1's is timely from the
  // start, so slot 1 DECIDES first but must wait to COMMIT second.
  ReplicatedLog rlog(cfg, kv_machines(3), [](int slot, int) {
    InstanceEnv env;
    if (slot == 0) {
      env.sampler = std::make_unique<LostUntilSampler>(3, 12);
    } else {
      env.sampler = std::make_unique<TimelySampler>(3);
    }
    return env;
  });
  const Command a = make_kv_command(1, 111);
  const Command b = make_kv_command(2, 222);
  rlog.submit(a);
  rlog.submit(b);
  drain(rlog);
  const auto recs = rlog.take_committed();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].slot, 0);
  EXPECT_EQ(recs[1].slot, 1);
  EXPECT_TRUE(recs[0].committed);
  EXPECT_TRUE(recs[1].committed);
  // Decided out of order...
  EXPECT_LT(recs[1].decided_tick, recs[0].decided_tick);
  // ...but committed in slot order, and slot 1 waited for slot 0.
  EXPECT_LE(recs[0].committed_tick, recs[1].committed_tick);
  EXPECT_GT(recs[1].committed_tick, recs[1].decided_tick);
  // The applied sequence is the SLOT order, not the decision order.
  EXPECT_EQ(rlog.log(), (std::vector<Command>{a, b}));
  EXPECT_TRUE(rlog.consistent());
}

// ------------------------------------------------ retry and abandonment --

TEST(ReplicatedLog, AbandonsASlotAfterTheAttemptBudget) {
  ReplicatedLogConfig cfg;
  cfg.n = 3;
  cfg.batch = 1;
  cfg.max_attempts_per_slot = 2;
  std::vector<std::pair<int, int>> asked;  // (slot, attempt) requests
  ReplicatedLog rlog(cfg, kv_machines(3), [&asked](int slot, int attempt) {
    asked.emplace_back(slot, attempt);
    InstanceEnv env;  // never decides within its round budget
    env.sampler = std::make_unique<LostUntilSampler>(3, 1 << 28);
    env.max_rounds = 5;
    return env;
  });
  rlog.submit(make_kv_command(9, 90));
  drain(rlog);
  const auto recs = rlog.take_committed();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(recs[0].committed);
  EXPECT_EQ(recs[0].attempts, 2);
  EXPECT_TRUE(recs[0].applied.empty());
  EXPECT_EQ(rlog.slots_abandoned(), 1);
  EXPECT_EQ(rlog.slots_committed(), 0);
  // Each attempt asked the factory for a fresh environment.
  EXPECT_EQ(asked, (std::vector<std::pair<int, int>>{{0, 0}, {0, 1}}));
  // Abandoned commands are never applied anywhere.
  EXPECT_TRUE(rlog.log().empty());
  for (ProcessId i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<const KvStateMachine&>(rlog.machine(i)).applied(),
              0);
  }
  EXPECT_TRUE(rlog.consistent());
}

// ------------------------------ consistency with crashed replicas -------

TEST(ReplicatedLog, ConsistentAmongSurvivorsWithACrashedReplica) {
  const int kN = 5;
  const ProcessId kCrashed = 4;
  ReplicatedLogConfig cfg;
  cfg.n = kN;
  cfg.batch = 1;
  cfg.pipeline = 1;
  // Slots 0-1 are fault-free; replica 4 is crashed from round 1 of slot
  // 2's instance, so it misses that slot's command and ends BEHIND.
  ReplicatedLog rlog(cfg, kv_machines(kN), [kN, kCrashed](int slot, int) {
    InstanceEnv env;
    env.sampler = std::make_unique<TimelySampler>(kN);
    if (slot == 2) {
      env.crash_rounds.assign(kN, 0);
      env.crash_rounds[kCrashed] = 1;
    }
    return env;
  });
  for (int i = 0; i < 3; ++i) rlog.submit(make_kv_command(0, 10 + i));
  drain(rlog);
  EXPECT_EQ(rlog.slots_committed(), 3);
  // Behind is not divergent: the full-group check trips, the survivor
  // check must not (the regression this API exists for).
  EXPECT_FALSE(rlog.consistent());
  const std::vector<bool> alive = rlog.alive_at_end();
  ASSERT_EQ(alive.size(), static_cast<std::size_t>(kN));
  EXPECT_FALSE(alive[kCrashed]);
  EXPECT_TRUE(rlog.consistent_among(alive));
  // The crashed replica applied exactly the pre-crash prefix.
  const auto applied_of = [&rlog](ProcessId i) {
    return static_cast<const KvStateMachine&>(rlog.machine(i)).applied();
  };
  EXPECT_EQ(applied_of(kCrashed), 2);
  EXPECT_EQ(applied_of(0), 3);
}

// --------------------------------------------------- decree encoding ----

TEST(ReplicatedLog, SlotDecreesArePositiveDistinctAndOutsideCommands) {
  EXPECT_GT(slot_decree(0), 0);
  EXPECT_NE(slot_decree(0), kNoopCommand);
  EXPECT_NE(slot_decree(0), slot_decree(1));
  // Disjoint from the KV command encoding even at its extremes.
  EXPECT_NE(slot_decree(0), make_kv_command(0, 0));
  EXPECT_NE(slot_decree(1 << 20),
            make_kv_command(0x7fffffffu, 0x7fffffffu));
}

// -------------------------- smr/throughput JSONL thread determinism -----

std::string throughput_jsonl() {
  const scenario::Scenario* sc = scenario::find_scenario("smr/throughput");
  EXPECT_NE(sc, nullptr);
  scenario::ScenarioSpec spec = sc->defaults();
  spec.runs = 2;  // scaled down: determinism, not statistics
  spec.rounds_per_run = 12;
  spec.clients = 8;
  spec.pipeline = 4;
  spec.batch = 2;
  std::ostringstream text, jsonl;
  scenario::ResultWriter w(jsonl, "smr/throughput");
  scenario::RunContext ctx;
  ctx.out = &text;
  ctx.results = &w;
  EXPECT_EQ(sc->run(spec, ctx), 0);
  w.finish();
  return jsonl.str();
}

TEST(ReplicatedLog, ThroughputResultsBytesIdenticalAcrossThreadCounts) {
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    ScopedThreads st(threads);
    const std::string got = throughput_jsonl();
    if (baseline.empty()) {
      baseline = got;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(got, baseline) << "TIMING_THREADS=" << threads;
    }
  }
}

}  // namespace
}  // namespace timing
