// Tests for the state-machine-replication layer: the KV/journal machines,
// the deterministic engine-based SmrGroup (including chaos, crashes and
// leader election), and the network SmrNode over the in-process hub.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "giraf/engine.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "history/recorder.hpp"
#include "models/schedule.hpp"
#include "net/transport.hpp"
#include "oracles/omega.hpp"
#include "smr/smr.hpp"

namespace timing {
namespace {

// ------------------------------------------------------ state machines --

TEST(StateMachine, KvCommandEncoding) {
  const Command c = make_kv_command(7, 4242);
  EXPECT_EQ(kv_command_key(c), 7u);
  EXPECT_EQ(kv_command_argument(c), 4242u);
  EXPECT_GT(c, 0);
  const Command big = make_kv_command(0x7fffffffu, 0x7fffffffu);
  EXPECT_EQ(kv_command_key(big), 0x7fffffffu);
  EXPECT_EQ(kv_command_argument(big), 0x7fffffffu);
  EXPECT_NE(big, kNoValue);
}

TEST(StateMachine, KvApplyAndLookup) {
  KvStateMachine kv;
  kv.apply(make_kv_command(1, 10));
  kv.apply(make_kv_command(2, 20));
  kv.apply(make_kv_command(1, 11));  // overwrite
  kv.apply(kNoopCommand);            // counted, no effect on the map
  std::uint32_t out = 0;
  ASSERT_TRUE(kv.get(1, out));
  EXPECT_EQ(out, 11u);
  ASSERT_TRUE(kv.get(2, out));
  EXPECT_EQ(out, 20u);
  EXPECT_FALSE(kv.get(3, out));
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.applied(), 4);
}

TEST(StateMachine, FingerprintsDetectDivergence) {
  KvStateMachine a, b;
  a.apply(make_kv_command(1, 10));
  b.apply(make_kv_command(1, 10));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.apply(make_kv_command(1, 11));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  // Same final map, different applied count: still flagged (replicas
  // must agree on the SEQUENCE, not just the end state).
  a.apply(make_kv_command(1, 11));
  a.apply(kNoopCommand);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(StateMachine, JournalRecordsSequence) {
  JournalStateMachine j;
  j.apply(5);
  j.apply(9);
  EXPECT_EQ(j.journal(), (std::vector<Command>{5, 9}));
  JournalStateMachine k;
  k.apply(9);
  k.apply(5);
  EXPECT_NE(j.fingerprint(), k.fingerprint()) << "order must matter";
}

// ------------------------------------------------------------ SmrGroup --

std::vector<std::unique_ptr<StateMachine>> kv_machines(int n) {
  std::vector<std::unique_ptr<StateMachine>> ms;
  for (int i = 0; i < n; ++i) ms.push_back(std::make_unique<KvStateMachine>());
  return ms;
}

// ------------------------------------------------- shared SMR helpers --

// Regression: the agreement scan must skip EVERY undecided replica, not
// just crashed ones — reading decision() from a replica that never got
// there poisoned the check with garbage.
TEST(SmrHelpers, AgreedDecisionSkipsUndecidedReplicas) {
  const int n = 5;
  const Value decree = 4242;
  std::vector<std::unique_ptr<Protocol>> group;
  for (ProcessId i = 0; i < n; ++i) {
    group.push_back(make_smr_protocol(AlgorithmKind::kWlm, i, n, decree,
                                      /*use_election=*/false));
  }
  RoundEngine engine(std::move(group), std::make_shared<DesignatedOracle>(0));
  engine.crash_at(3, 1);  // executes no rounds: stays undecided forever
  const LinkMatrix timely(n, 0);
  while (!engine.all_alive_decided()) {
    ASSERT_LT(engine.current_round(), 50) << "timely group must decide";
    engine.step(timely);
  }
  ASSERT_FALSE(engine.process(3).has_decided());
  EXPECT_EQ(smr_agreed_decision(engine), decree);
}

// Regression: `1 + inst * stride` used to be computed in 32-bit Round
// arithmetic and silently wrapped at throughput-scale instance counts,
// violating the disjoint-wire-round-range invariant.
TEST(SmrHelpers, FirstRoundIsComputedIn64Bits) {
  const Round stride = 1 << 20;
  EXPECT_EQ(smr_first_round(0, stride), 1);
  EXPECT_EQ(smr_first_round(1, stride), 1 + (1 << 20));
  // The largest instance whose round RANGE (first..first+stride) still
  // fits: 1 + 2046 * 2^20 + 2^20 <= INT32_MAX.
  EXPECT_EQ(smr_first_round(2046, stride),
            static_cast<Round>(1 + 2046LL * (1 << 20)));
}

TEST(SmrHelpersDeathTest, FirstRoundOverflowAborts) {
  // One instance past the boundary: the range end no longer fits Round.
  EXPECT_DEATH(smr_first_round(2047, 1 << 20),
               "instance round range overflows Round");
}

TEST(SmrGroup, ReplicatesAcrossChaoticInstances) {
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.leader = 1;
  SmrGroup group(cfg, kv_machines(n));

  Rng rng(404);
  for (int inst = 0; inst < 10; ++inst) {
    std::vector<Command> proposals;
    for (int i = 0; i < n; ++i) {
      proposals.push_back(make_kv_command(
          static_cast<std::uint32_t>(rng.uniform_int(4)),
          static_cast<std::uint32_t>(1 + rng.uniform_int(1000))));
    }
    ScheduleConfig sched;
    sched.n = n;
    sched.model = TimingModel::kWlm;
    sched.leader = 1;
    sched.gsr = 1 + static_cast<Round>(rng.uniform_int(12));
    sched.pre_gsr_p = 0.3;
    sched.seed = 1000 + static_cast<std::uint64_t>(inst);
    ScheduleSampler network(sched);

    const auto r = group.run_instance(proposals, network);
    ASSERT_TRUE(r.decided) << "instance " << inst;
    EXPECT_NE(std::find(proposals.begin(), proposals.end(), r.command),
              proposals.end())
        << "decided command must be someone's proposal";
    ASSERT_TRUE(group.consistent()) << "instance " << inst;
  }
  EXPECT_EQ(group.instances_decided(), 10);
  const auto& kv = static_cast<const KvStateMachine&>(group.machine(0));
  EXPECT_EQ(kv.applied(), 10);
}

TEST(SmrGroup, UndecidedInstanceAppliesNothing) {
  const int n = 4;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.max_rounds_per_instance = 30;
  SmrGroup group(cfg, kv_machines(n));
  std::vector<Command> proposals{make_kv_command(1, 1), make_kv_command(1, 2),
                                 make_kv_command(1, 3), make_kv_command(1, 4)};
  ScheduleConfig sched;
  sched.n = n;
  sched.model = TimingModel::kWlm;
  sched.gsr = 1 << 28;  // never stabilizes
  sched.pre_gsr_p = 0.1;
  sched.seed = 3;
  ScheduleSampler network(sched);
  const auto r = group.run_instance(proposals, network);
  EXPECT_FALSE(r.decided);
  EXPECT_EQ(group.instances_decided(), 0);
  const auto& kv = static_cast<const KvStateMachine&>(group.machine(0));
  EXPECT_EQ(kv.applied(), 0);
  EXPECT_TRUE(group.consistent());
}

TEST(SmrGroup, WorksWithOnlineElection) {
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.use_election = true;  // no designated oracle at all
  SmrGroup group(cfg, kv_machines(n));
  for (int inst = 0; inst < 5; ++inst) {
    std::vector<Command> proposals;
    for (int i = 0; i < n; ++i) {
      proposals.push_back(
          make_kv_command(static_cast<std::uint32_t>(inst),
                          static_cast<std::uint32_t>(100 + i)));
    }
    ScheduleConfig sched;
    sched.n = n;
    sched.model = TimingModel::kWlm;
    sched.leader = 2;
    sched.gsr = 6;
    sched.seed = 50 + static_cast<std::uint64_t>(inst);
    ScheduleSampler network(sched);
    const auto r = group.run_instance(proposals, network);
    ASSERT_TRUE(r.decided) << "instance " << inst;
    ASSERT_TRUE(group.consistent());
  }
}

TEST(SmrGroup, NoopsFillIdleSlots) {
  const int n = 4;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  std::vector<std::unique_ptr<StateMachine>> ms;
  for (int i = 0; i < n; ++i) {
    ms.push_back(std::make_unique<JournalStateMachine>());
  }
  SmrGroup group(cfg, std::move(ms));
  std::vector<Command> proposals(static_cast<std::size_t>(n), kNoopCommand);
  ScheduleConfig sched;
  sched.n = n;
  sched.model = TimingModel::kWlm;
  sched.leader = 0;
  sched.gsr = 1;
  sched.seed = 5;
  ScheduleSampler network(sched);
  const auto r = group.run_instance(proposals, network);
  ASSERT_TRUE(r.decided);
  EXPECT_EQ(r.command, kNoopCommand);
  const auto& j = static_cast<const JournalStateMachine&>(group.machine(2));
  EXPECT_EQ(j.journal(), (std::vector<Command>{kNoopCommand}));
}

TEST(SmrGroup, SurvivesMinorityCrashes) {
  // Two of five replicas crash at different points of a 6-instance log;
  // the survivors keep deciding and stay mutually consistent.
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  SmrGroup group(cfg, kv_machines(n));

  for (int inst = 0; inst < 6; ++inst) {
    std::vector<Command> proposals;
    for (int i = 0; i < n; ++i) {
      proposals.push_back(make_kv_command(
          static_cast<std::uint32_t>(inst),
          static_cast<std::uint32_t>(100 * inst + i)));
    }
    // Instance 2 loses p4 mid-run; instance 4 additionally loses p3.
    std::vector<Round> crashes(static_cast<std::size_t>(n), 0);
    if (inst >= 2) crashes[4] = inst == 2 ? 5 : 1;
    if (inst >= 4) crashes[3] = inst == 4 ? 3 : 1;

    ScheduleConfig sched;
    sched.n = n;
    sched.model = TimingModel::kWlm;
    sched.leader = 0;
    sched.gsr = 8;
    sched.seed = 900 + static_cast<std::uint64_t>(inst);
    sched.crash_rounds = crashes;
    ScheduleSampler network(sched);

    const auto r = group.run_instance(proposals, network, &crashes);
    ASSERT_TRUE(r.decided) << "instance " << inst;
  }
  // Survivors p0..p2 applied everything and agree.
  std::vector<bool> survivors{true, true, true, false, false};
  EXPECT_TRUE(group.consistent_among(survivors));
  const auto& kv = static_cast<const KvStateMachine&>(group.machine(0));
  EXPECT_EQ(kv.applied(), 6);
  // The crashed replicas are BEHIND (shorter logs), not divergent: their
  // applied prefix lengths are smaller.
  const auto& kv4 = static_cast<const KvStateMachine&>(group.machine(4));
  EXPECT_LT(kv4.applied(), 6);
}

// ------------------------------------- register machine + op histories --

std::vector<std::unique_ptr<StateMachine>> register_machines(int n) {
  std::vector<std::unique_ptr<StateMachine>> ms;
  for (int i = 0; i < n; ++i) {
    ms.push_back(std::make_unique<RegisterStateMachine>());
  }
  return ms;
}

ScheduleSampler conforming_network(int n, ProcessId leader,
                                   std::uint64_t seed, Round gsr = 1) {
  ScheduleConfig sched;
  sched.n = n;
  sched.model = TimingModel::kWlm;
  sched.leader = leader;
  sched.gsr = gsr;
  sched.seed = seed;
  return ScheduleSampler(sched);
}

TEST(StateMachine, DuplicateRequestIdIsIdempotent) {
  RegisterStateMachine m;
  const Command cmd = make_register_command(op_func::kAppend, 5, 3, 0, 77, 0);
  m.apply(cmd);
  const Value chain1 = m.value(0);
  Value r1 = kNoValue;
  ASSERT_TRUE(m.last_result(3, r1));

  // A duplicate (client 3, rid 5) is recognized via the session table and
  // NOT re-executed: same state, same cached result.
  m.apply(cmd);
  EXPECT_EQ(m.value(0), chain1);
  EXPECT_EQ(m.effective(), 1);
  EXPECT_EQ(m.applied(), 2);
  Value r2 = kNoValue;
  ASSERT_TRUE(m.last_result(3, r2));
  EXPECT_EQ(r2, r1);

  // A fresh rid from the same client re-executes.
  m.apply(make_register_command(op_func::kAppend, 6, 3, 0, 77, 0));
  EXPECT_EQ(m.effective(), 2);
  EXPECT_NE(m.value(0), chain1);
}

TEST(SmrGroup, IdempotentResubmitAcrossInstances) {
  // A client that lost the ack re-submits the same (client, rid) command;
  // it wins a second instance, but replicas apply the effect once. The
  // recorded history stays linearizable: one invoke, one ok.
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  SmrGroup group(cfg, register_machines(n));
  HistoryRecorder rec;

  const Command cmd = make_register_command(op_func::kWrite, 1, 0, 0, 42, 0);
  rec.invoke(0, op_func::kWrite, 0, 1, 42);
  for (int inst = 0; inst < 2; ++inst) {
    std::vector<Command> proposals(static_cast<std::size_t>(n), cmd);
    ScheduleSampler network =
        conforming_network(n, 0, 700 + static_cast<std::uint64_t>(inst));
    const auto r = group.run_instance(proposals, network);
    ASSERT_TRUE(r.decided) << "instance " << inst;
    EXPECT_EQ(r.command, cmd);
  }
  const auto& m = static_cast<const RegisterStateMachine&>(group.machine(0));
  Value result = kNoValue;
  ASSERT_TRUE(m.last_result(0, result));
  rec.ok(0, result);

  EXPECT_TRUE(group.consistent());
  EXPECT_EQ(m.applied(), 2);    // both log entries applied...
  EXPECT_EQ(m.effective(), 1);  // ...but the write executed once
  EXPECT_EQ(m.value(0), 42);
  const History h = build_history(rec.events());
  ASSERT_TRUE(h.well_formed()) << h.error;
  EXPECT_TRUE(check_history(h).linearizable);
}

TEST(SmrGroup, RequestOutstandingAcrossLeaderFailover) {
  // The op is invoked, then the initial leader crashes mid-instance; the
  // online election fails over and the SAME instance still decides the
  // op. Its completion and the machine effect must agree.
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.use_election = true;
  SmrGroup group(cfg, register_machines(n));
  HistoryRecorder rec;

  const Command cmd = make_register_command(op_func::kWrite, 1, 2, 0, 66, 0);
  rec.invoke(2, op_func::kWrite, 0, 1, 66);

  std::vector<Round> crashes(static_cast<std::size_t>(n), 0);
  crashes[0] = 3;  // initial (lowest-id) leader dies mid-instance
  ScheduleConfig sched;
  sched.n = n;
  sched.model = TimingModel::kWlm;
  sched.leader = 1;  // post-failover stable leader
  sched.gsr = 8;
  sched.seed = 41;
  sched.crash_rounds = crashes;
  ScheduleSampler network(sched);

  std::vector<Command> proposals(static_cast<std::size_t>(n), cmd);
  const auto r = group.run_instance(proposals, network, &crashes);
  ASSERT_TRUE(r.decided);
  EXPECT_EQ(r.command, cmd);
  EXPECT_FALSE(r.applied[0]) << "crashed leader must not have applied";
  ASSERT_TRUE(r.applied[1]);

  const auto& m = static_cast<const RegisterStateMachine&>(group.machine(1));
  Value result = kNoValue;
  ASSERT_TRUE(m.last_result(2, result));
  rec.ok(2, result);
  EXPECT_EQ(result, 66);
  EXPECT_EQ(m.value(0), 66);
  EXPECT_EQ(m.effective(), 1);

  const History h = build_history(rec.events());
  ASSERT_TRUE(h.well_formed()) << h.error;
  EXPECT_TRUE(check_history(h).linearizable);
}

TEST(SmrGroup, PartitionedMinorityReadTimesOutAsInfo) {
  // A read submitted through a replica cut off in a minority partition
  // never decides — it must close as info (unknown), never fabricate an
  // ok, and the register state must be untouched by the attempt.
  const int n = 5;
  SmrGroupConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  SmrGroup group(cfg, register_machines(n));
  HistoryRecorder rec;

  // Committed baseline write through the majority side.
  const Command wcmd = make_register_command(op_func::kWrite, 1, 0, 0, 42, 0);
  rec.invoke(0, op_func::kWrite, 0, 1, 42);
  {
    std::vector<Command> proposals(static_cast<std::size_t>(n), kNoopCommand);
    proposals[0] = wcmd;
    ScheduleSampler network = conforming_network(n, 0, 11);
    const auto r = group.run_instance(proposals, network);
    ASSERT_TRUE(r.decided);
    ASSERT_EQ(r.command, wcmd);
    const auto& m =
        static_cast<const RegisterStateMachine&>(group.machine(0));
    Value result = kNoValue;
    ASSERT_TRUE(m.last_result(0, result));
    rec.ok(0, result);
  }

  // Read submitted via replica 1, which is partitioned into {1, 3} for
  // the whole instance; the majority {0, 2, 4} decides the leader's noop.
  const Command rcmd = make_register_command(op_func::kRead, 1, 1, 0, 0, 0);
  rec.invoke(1, op_func::kRead, 0, 1);
  {
    fault::FaultPlan plan;
    fault::FaultEvent part;
    part.kind = fault::FaultKind::kPartition;
    part.groups = {{1, 3}, {0, 2, 4}};
    part.from = 1;
    part.to = 1 << 20;
    plan.events.push_back(part);  // no gsr marker: a pure-safety plan
    ASSERT_EQ(fault::validate(plan, n, 0), "");

    ScheduleConfig sched;
    sched.n = n;
    sched.model = TimingModel::kWlm;
    sched.leader = 0;
    sched.gsr = 1;
    sched.seed = 12;
    ScheduleSampler inner(sched);
    fault::InjectorConfig icfg;
    icfg.n = n;
    icfg.leader = 0;
    icfg.seed = 13;
    fault::FaultInjector injector(plan, icfg);
    fault::FaultInjectedSampler network(inner, injector);

    std::vector<Command> proposals(static_cast<std::size_t>(n), kNoopCommand);
    proposals[1] = rcmd;
    const auto r = group.run_instance(proposals, network, nullptr, 60);
    EXPECT_FALSE(r.decided) << "partitioned instance must not decide";
    EXPECT_NE(r.command, rcmd) << "minority proposal must not win";
    rec.info(1);  // the client times out: unknown outcome, not a fail
  }

  // Fault-free retry through the majority-side replica completes ok and
  // observes the committed write.
  rec.invoke(1, op_func::kRead, 0, 2);
  const Command rcmd2 = make_register_command(op_func::kRead, 2, 1, 0, 0, 0);
  {
    std::vector<Command> proposals(static_cast<std::size_t>(n), kNoopCommand);
    proposals[0] = rcmd2;
    ScheduleSampler network = conforming_network(n, 0, 14);
    const auto r = group.run_instance(proposals, network);
    ASSERT_TRUE(r.decided);
    ASSERT_EQ(r.command, rcmd2);
    const auto& m =
        static_cast<const RegisterStateMachine&>(group.machine(0));
    Value result = kNoValue;
    ASSERT_TRUE(m.last_result(1, result));
    EXPECT_EQ(result, 42) << "retry must observe the committed write";
    rec.ok(1, result);
  }

  const auto& m = static_cast<const RegisterStateMachine&>(group.machine(0));
  EXPECT_EQ(m.effective(), 2);  // write + retry read; the partitioned
                                // read never decided, noops don't count
  EXPECT_EQ(m.value(0), 42);
  EXPECT_TRUE(group.consistent());
  const History h = build_history(rec.events());
  ASSERT_TRUE(h.well_formed()) << h.error;
  EXPECT_TRUE(check_history(h).linearizable);
}

// ------------------------------------------------------------- SmrNode --

TEST(SmrNode, ReplicatedKvOverTheHub) {
  constexpr int kN = 4;
  constexpr int kInstances = 4;
  auto hub = std::make_shared<InProcHub>(kN);

  struct Out {
    std::vector<SmrNodeInstance> log;
    std::uint64_t fingerprint = 0;
    long long applied = 0;
  };
  std::vector<Out> outs(kN);
  std::vector<std::thread> threads;
  for (ProcessId i = 0; i < kN; ++i) {
    threads.emplace_back([&, i] {
      InProcTransport transport(hub, i);
      SmrNodeConfig cfg;
      cfg.n = kN;
      cfg.self = i;
      cfg.timeout_ms = 20.0;
      cfg.leader = 1;
      cfg.max_rounds_per_instance = 200;
      auto machine = std::make_unique<KvStateMachine>();
      const auto* kv = machine.get();
      SmrNode node(cfg, transport, std::move(machine));
      outs[static_cast<std::size_t>(i)].log = node.run(
          kInstances, [i](int inst) {
            return make_kv_command(static_cast<std::uint32_t>(inst),
                                   static_cast<std::uint32_t>(10 * inst + i));
          });
      outs[static_cast<std::size_t>(i)].fingerprint = kv->fingerprint();
      outs[static_cast<std::size_t>(i)].applied = kv->applied();
    });
  }
  for (auto& t : threads) t.join();

  for (const auto& o : outs) {
    ASSERT_EQ(o.log.size(), static_cast<std::size_t>(kInstances));
    for (int inst = 0; inst < kInstances; ++inst) {
      ASSERT_TRUE(o.log[static_cast<std::size_t>(inst)].decided)
          << "instance " << inst;
      EXPECT_EQ(o.log[static_cast<std::size_t>(inst)].command,
                outs[0].log[static_cast<std::size_t>(inst)].command);
    }
    EXPECT_EQ(o.applied, kInstances);
    EXPECT_EQ(o.fingerprint, outs[0].fingerprint)
        << "replica state diverged";
  }
}

TEST(SmrNode, LaggingReplicaNeverDecidesAnotherSlotsCommand) {
  // Replicas 0 and 1 run every instance to completion before replica 2
  // starts (a start gate, not a sleep), so replica 2's inbox already holds
  // every instance's traffic. Each command replica 2 decides must be the
  // other replicas' command for that slot.
  constexpr int kN = 3;
  constexpr int kInstances = 2;
  auto hub = std::make_shared<InProcHub>(kN);
  std::vector<std::vector<SmrNodeInstance>> logs(kN);
  const auto run_replica = [&](ProcessId i) {
    InProcTransport transport(hub, i);
    SmrNodeConfig cfg;
    cfg.n = kN;
    cfg.self = i;
    cfg.timeout_ms = 10.0;
    cfg.leader = 1;
    cfg.max_rounds_per_instance = 60;
    SmrNode node(cfg, transport, std::make_unique<KvStateMachine>());
    logs[static_cast<std::size_t>(i)] = node.run(kInstances, [i](int inst) {
      return make_kv_command(static_cast<std::uint32_t>(inst),
                             static_cast<std::uint32_t>(10 * inst + i));
    });
  };
  std::thread replica0(run_replica, 0);
  std::thread replica1(run_replica, 1);
  replica0.join();
  replica1.join();
  std::thread(run_replica, 2).join();

  for (std::size_t slot = 0; slot < kInstances; ++slot) {
    SCOPED_TRACE(testing::Message() << "slot " << slot);
    ASSERT_TRUE(logs[0][slot].decided);
    ASSERT_TRUE(logs[1][slot].decided);
    EXPECT_EQ(logs[1][slot].command, logs[0][slot].command);
    if (logs[2][slot].decided) {
      EXPECT_EQ(logs[2][slot].command, logs[0][slot].command)
          << "the lagging replica decided another slot's command";
    }
  }
  EXPECT_TRUE(logs[2][0].decided);
}

}  // namespace
}  // namespace timing
