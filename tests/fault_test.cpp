// Tests for the fault-injection subsystem (src/fault): the plan grammar
// and validator, the sim-path injector's matrix edits, the no-fault
// byte-identity guarantee of the sampler decorator, determinism of the
// chaos harness across thread counts, and sim-vs-live agreement — the
// FaultInjectedTransport acting exactly where the shared FaultInjector
// says it must.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "adversary/mutate.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "consensus/factory.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/parser.hpp"
#include "fault/transport.hpp"
#include "giraf/engine.hpp"
#include "models/schedule.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace_analysis.hpp"
#include "oracles/omega.hpp"
#include "roundsync/roundsync.hpp"

namespace timing::fault {
namespace {

// ---------------------------------------------------------------------------
// Grammar: parse, round-trip, errors
// ---------------------------------------------------------------------------

TEST(FaultPlanParser, ParsesEveryStatementKind) {
  const char* text =
      "# adversary for the demo\n"
      "crash 1 @2\n"
      "recover 1 @5\n"
      "partition 0,2|3,4 @2..6\n"
      "drop 0->3 @2..6 p=0.5\n"
      "drop *->2 @3..4\n"
      "delay 4->0 +2.5ms @1..7\n"
      "suppress_leader @3..5\n"
      "gsr @8\n";
  const ParseResult pr = parse_fault_plan(text);
  ASSERT_TRUE(pr.ok()) << pr.error;
  ASSERT_EQ(pr.plan.events.size(), 8u);
  EXPECT_EQ(pr.plan.gsr, 8);
  EXPECT_EQ(pr.plan.events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(pr.plan.events[0].proc, 1);
  EXPECT_EQ(pr.plan.events[3].prob, 0.5);
  EXPECT_EQ(pr.plan.events[4].src, kNoProcess);  // '*' wildcard
  EXPECT_EQ(pr.plan.events[5].extra_ms, 2.5);
  ASSERT_EQ(pr.plan.events[2].groups.size(), 2u);
  EXPECT_EQ(pr.plan.events[2].groups[1], (std::vector<ProcessId>{3, 4}));
  EXPECT_TRUE(validate(pr.plan, 5, /*leader=*/0).empty());
}

TEST(FaultPlanParser, SpecRoundTripsExactly) {
  const char* text =
      "crash 2 @1; partition 0|1,3 @2..4; drop 1->0 @2..4 p=0.25; "
      "delay 0->1 +3ms @1..3; suppress_leader @2..3; gsr @5";
  const ParseResult pr = parse_fault_plan(text);
  ASSERT_TRUE(pr.ok()) << pr.error;
  const ParseResult again = parse_fault_plan(pr.plan.spec());
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.plan.events, pr.plan.events);
  EXPECT_EQ(again.plan.gsr, pr.plan.gsr);
}

// Property: every plan the generators can produce — 100 seeded random
// plans plus a 50-step mutation chain off each 10th — survives
// spec() -> parse -> spec() with structural equality and identical
// canonical bytes. The adversary archive stores plans as spec text, so
// any statement the grammar can emit but not re-read would silently
// corrupt regression fixtures.
TEST(FaultPlanParser, GeneratedPlansAlwaysRoundTrip) {
  const auto check = [](const FaultPlan& plan, const char* what) {
    const std::string spec = plan.spec();
    const ParseResult pr = parse_fault_plan(spec);
    ASSERT_TRUE(pr.ok()) << what << ": " << pr.error << "\n" << spec;
    EXPECT_TRUE(structurally_equal(pr.plan, plan)) << what << "\n" << spec;
    EXPECT_EQ(plan_hash(pr.plan), plan_hash(plan)) << what;
    EXPECT_EQ(pr.plan.spec(), spec) << what;  // canonical = fixed point
  };
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FaultPlan plan = random_fault_plan(5, 0, seed);
    check(plan, "random");
    if (seed % 10 != 0) continue;
    adversary::MutationConfig mcfg;
    mcfg.n = 5;
    mcfg.leader = 0;
    mcfg.mutate_links = false;  // this property targets the plan grammar
    Rng rng(seed);
    adversary::Candidate c;
    c.plan = plan;
    for (int step = 0; step < 50; ++step) {
      c = adversary::mutate(c, mcfg, rng);
      check(c.plan, "mutated");
    }
  }
}

TEST(FaultPlanParser, CommentsMayContainSemicolons) {
  // A '#' comment runs to end of line even in ';'-separated inline specs;
  // archive headers embed "key=value; key=value" freely.
  const ParseResult pr = parse_fault_plan(
      "# header: a=1; b=2; c=3\ncrash 1 @2\n# mid; comment\ngsr @5\n");
  ASSERT_TRUE(pr.ok()) << pr.error;
  ASSERT_EQ(pr.plan.events.size(), 2u);
  EXPECT_EQ(pr.plan.gsr, 5);
}

TEST(FaultPlanParser, ReportsLineAccurateErrors) {
  const ParseResult pr = parse_fault_plan("crash 1 @2\nfrob 3 @4\n");
  ASSERT_FALSE(pr.ok());
  EXPECT_NE(pr.error.find("line 2"), std::string::npos) << pr.error;
  EXPECT_NE(pr.error.find("frob"), std::string::npos) << pr.error;

  // Inline ';'-separated specs count statements instead.
  const ParseResult inl = parse_fault_plan("crash 1 @2; drop 0>1 @2..3");
  ASSERT_FALSE(inl.ok());
  EXPECT_NE(inl.error.find("statement 2"), std::string::npos) << inl.error;
}

TEST(FaultPlanValidate, RejectsStructuralViolations) {
  const auto err = [](const char* text, int n) {
    const ParseResult pr = parse_fault_plan(text);
    EXPECT_TRUE(pr.ok()) << pr.error;
    return validate(pr.plan, n);
  };
  EXPECT_NE(err("crash 1 @2; crash 1 @3; gsr @5", 3), "");   // double crash
  EXPECT_NE(err("recover 1 @3; gsr @5", 3), "");             // no crash
  EXPECT_NE(err("crash 2 @3; recover 2 @3; gsr @5", 3), ""); // not after
  EXPECT_NE(err("drop 0->0 @1..3; gsr @5", 3), "");          // self link
  EXPECT_NE(err("drop 0->1 @2..6; gsr @5", 3), "");          // past gsr
  EXPECT_NE(err("partition 0,1|1,2 @1..3; gsr @5", 3), "");  // overlap
  EXPECT_NE(err("crash 4 @1; gsr @5", 3), "");               // pid range
  EXPECT_NE(err("crash 1 @1; crash 2 @1; gsr @5", 3), "");   // majority
  EXPECT_EQ(err("crash 1 @1; gsr @5", 3), "");
  // The leader must stay correct under a terminal plan.
  const ParseResult pr = parse_fault_plan("crash 0 @2; gsr @5");
  ASSERT_TRUE(pr.ok());
  EXPECT_NE(validate(pr.plan, 3, /*leader=*/0), "");
  EXPECT_EQ(validate(pr.plan, 3, /*leader=*/1), "");
}

TEST(FaultPlan, MinProcessesAndTimeline) {
  const ParseResult pr =
      parse_fault_plan("drop 1->4 @2..3\ncrash 2 @1\ngsr @4\n");
  ASSERT_TRUE(pr.ok()) << pr.error;
  EXPECT_EQ(min_processes(pr.plan), 5);
  const std::string tl = timeline(pr.plan);
  // Sorted by activation round: the crash line precedes the drop line.
  EXPECT_LT(tl.find("crash 2"), tl.find("drop 1->4"));
  EXPECT_NE(tl.find("rounds 2..2"), std::string::npos) << tl;
}

TEST(FaultPlan, CrashRoundsKeepOnlyUnrecoveredCrashes) {
  const ParseResult pr = parse_fault_plan(
      "crash 1 @2; recover 1 @4; crash 1 @6; crash 3 @3; recover 3 @5; "
      "gsr @8");
  ASSERT_TRUE(pr.ok()) << pr.error;
  ASSERT_EQ(validate(pr.plan, 5, /*leader=*/0), "");
  // p1 crashes, recovers and crashes again: the second crash stands. p3
  // recovers for good, and p0, p2 and p4 never crash.
  EXPECT_EQ(crash_rounds(pr.plan, 5), (std::vector<Round>{0, 6, 0, 0, 0}));
  EXPECT_EQ(crash_rounds(FaultPlan{}, 3), (std::vector<Round>{0, 0, 0}));
}

// ---------------------------------------------------------------------------
// Sim-path injector semantics
// ---------------------------------------------------------------------------

FaultPlan golden_plan() {
  const ParseResult pr = parse_fault_plan(
      "crash 2 @2; recover 2 @4; partition 0,1|3 @2..4; "
      "drop 1->0 @2..4 p=1; gsr @5");
  TM_CHECK(pr.ok(), "golden plan must parse");
  return pr.plan;
}

TEST(FaultInjector, EditsMatchThePlan) {
  const int n = 4;
  InjectorConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  cfg.seed = 99;
  FaultInjector inj(golden_plan(), cfg);

  LinkMatrix a(n, 0);
  inj.apply(2, a);
  // Crash of 2: whole row and column lost (self link kept).
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 2) continue;
    EXPECT_EQ(a.at(2, p), kLost);
    EXPECT_EQ(a.at(p, 2), kLost);
  }
  EXPECT_EQ(a.at(2, 2), 0);
  // Partition {0,1} | {3}: cross-group lost, intra-group kept. Process 2
  // is in no group, so only its crash affects it.
  EXPECT_EQ(a.at(3, 0), kLost);
  EXPECT_EQ(a.at(0, 3), kLost);
  EXPECT_EQ(a.at(3, 1), kLost);
  EXPECT_EQ(a.at(0, 1), kLost);  // drop 1->0 at p=1: dst 0 hears src 1
  EXPECT_EQ(a.at(1, 0), 0);      // the reverse link is intra-group

  // Round 4: crash recovered, windows closed — no edits at all.
  LinkMatrix b(n, 0);
  inj.apply(4, b);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) EXPECT_EQ(b.at(d, s), 0);
  }
  // The gsr round itself is "active" — apply() emits the marker trace
  // event there — but it edits nothing; past it the plan is inert.
  EXPECT_TRUE(inj.active_in(5));
  LinkMatrix c(n, 0);
  inj.apply(5, c);
  for (ProcessId d = 0; d < n; ++d) {
    for (ProcessId s = 0; s < n; ++s) EXPECT_EQ(c.at(d, s), 0);
  }
  EXPECT_FALSE(inj.active_in(6));
  EXPECT_FALSE(inj.active_in(400));
}

TEST(FaultInjector, PackedAndUnpackedAgree) {
  const int n = 4;
  InjectorConfig cfg;
  cfg.n = n;
  cfg.leader = 0;
  cfg.seed = 7;
  FaultInjector inj(golden_plan(), cfg);
  for (Round k = 1; k <= 6; ++k) {
    LinkMatrix a(n, 0);
    PackedLinkMatrix p(n);
    p.fill(0);
    inj.apply(k, a);
    inj.apply(k, p);
    for (ProcessId d = 0; d < n; ++d) {
      for (ProcessId s = 0; s < n; ++s) {
        EXPECT_EQ(a.at(d, s), p.at(d, s)) << "k=" << k << " " << s << "->"
                                          << d;
      }
    }
  }
}

TEST(FaultInjector, PermanentCrashOutlivesGsr) {
  const ParseResult pr = parse_fault_plan("crash 3 @2; gsr @4");
  ASSERT_TRUE(pr.ok());
  InjectorConfig cfg;
  cfg.n = 5;
  cfg.seed = 1;
  FaultInjector inj(pr.plan, cfg);
  EXPECT_TRUE(inj.crashed_in(3, 100));
  EXPECT_TRUE(inj.active_in(100));
  LinkMatrix a(5, 0);
  inj.apply(100, a);
  EXPECT_EQ(a.at(0, 3), kLost);
}

TEST(FaultInjector, DropCoinsAreAPureFunctionOfTheCell) {
  const ParseResult pr = parse_fault_plan("drop *->* @1..9 p=0.5; gsr @9");
  ASSERT_TRUE(pr.ok());
  InjectorConfig cfg;
  cfg.n = 6;
  cfg.seed = 0xfeed;
  FaultInjector one(pr.plan, cfg);
  FaultInjector two(pr.plan, cfg);
  int fired = 0, held = 0;
  for (Round k = 1; k < 9; ++k) {
    for (ProcessId s = 0; s < 6; ++s) {
      for (ProcessId d = 0; d < 6; ++d) {
        if (s == d) continue;
        EXPECT_EQ(one.drop_fires(k, s, d), two.drop_fires(k, s, d));
        (one.drop_fires(k, s, d) ? fired : held)++;
      }
    }
  }
  // p=0.5 over 240 coins: both outcomes must occur.
  EXPECT_GT(fired, 0);
  EXPECT_GT(held, 0);
}

// ---------------------------------------------------------------------------
// No-fault byte-identity of the sampler decorator
// ---------------------------------------------------------------------------

std::string run_serialized(int n, bool decorated, std::uint64_t seed,
                           Round* decided_out) {
  ScheduleConfig sched;
  sched.n = n;
  sched.model = TimingModel::kWlm;
  sched.leader = 0;
  sched.gsr = 4;
  sched.pre_gsr_p = 0.5;
  sched.seed = seed;

  std::vector<Value> proposals;
  for (ProcessId i = 0; i < n; ++i) proposals.push_back(100 + i);
  auto oracle = std::make_shared<UnstableOracle>(n, 0, 3, seed ^ 0x9e37);
  RoundEngine engine(make_group(AlgorithmKind::kWlm, proposals), oracle);
  BufferSink sink;
  engine.set_trace_sink(&sink);

  ScheduleSampler inner(sched);
  Round decided = -1;
  if (decorated) {
    // The plan's only window sits far past every executed round, so the
    // decorator must pass every round through untouched.
    const ParseResult pr = parse_fault_plan("drop 0->1 @90..91 p=1; gsr @91");
    TM_CHECK(pr.ok(), "inactive plan must parse");
    InjectorConfig cfg;
    cfg.n = n;
    cfg.leader = 0;
    cfg.seed = seed;
    cfg.sink = &sink;
    FaultInjector injector(pr.plan, cfg);
    FaultInjectedSampler outer(inner, injector);
    decided = engine.run(outer, 40);
  } else {
    decided = engine.run(inner, 40);
  }
  if (decided_out != nullptr) *decided_out = decided;

  std::ostringstream os;
  write_trace_header(os, n);
  write_trial(os, 0, sink.events(), n);
  return os.str();
}

TEST(FaultInjectedSampler, NoFaultRunsAreByteIdentical) {
  for (std::uint64_t seed : {1ull, 42ull, 777ull}) {
    Round plain_round = -1, dec_round = -1;
    const std::string plain = run_serialized(5, false, seed, &plain_round);
    const std::string dec = run_serialized(5, true, seed, &dec_round);
    EXPECT_EQ(plain, dec) << "seed " << seed;
    EXPECT_EQ(plain_round, dec_round);
  }
}

// ---------------------------------------------------------------------------
// Chaos harness: guarantees + determinism across thread counts
// ---------------------------------------------------------------------------

TEST(Chaos, RandomPlansAlwaysValidate) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const FaultPlan plan = random_fault_plan(5, 0, seed);
    EXPECT_EQ(validate(plan, 5, 0), "");
    EXPECT_GE(plan.gsr, 6);
    // The canonical spec must replay to the same plan.
    const ParseResult pr = parse_fault_plan(plan.spec());
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_EQ(pr.plan.events, plan.events);
  }
}

/// The plan text a violation report quotes (everything between its
/// "fault plan (replayable):" line and its closing replay line), from a
/// run that max_rounds = 1 cuts off before any decision, so it always
/// reports a liveness violation.
std::string reported_plan(const FaultPlan& plan) {
  ChaosTrialConfig cfg;
  cfg.n = 5;
  cfg.leader = 0;
  cfg.seed = 99;
  cfg.max_rounds = 1;
  cfg.plan = plan;
  const ChaosRunResult r = run_chaos_algorithm(AlgorithmKind::kWlm, cfg);
  EXPECT_FALSE(r.liveness_ok);
  const std::string marker = "fault plan (replayable):\n";
  const std::size_t at = r.violation.find(marker);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no replayable plan in:\n" << r.violation;
    return "";
  }
  const std::size_t from = at + marker.size();
  const std::size_t replay = r.violation.rfind("\nreplay: timing_lab replay ");
  if (replay == std::string::npos || replay < from) {
    ADD_FAILURE() << "no replay line in:\n" << r.violation;
    return "";
  }
  return r.violation.substr(from, replay + 1 - from);
}

TEST(Chaos, ViolationReportCarriesAReplayablePlan) {
  // A generated plan carries no text; the report formats it on demand.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const FaultPlan plan = random_fault_plan(5, 0, seed);
    const ParseResult pr = parse_fault_plan(reported_plan(plan));
    ASSERT_TRUE(pr.ok()) << pr.error;
    EXPECT_TRUE(structurally_equal(pr.plan, plan)) << "seed " << seed;
  }

  // A parsed plan reports the text it was parsed from, comments and all.
  const std::string text =
      "# hand-written\ncrash 1 @2  # a follower\nrecover 1 @4\n"
      "drop 2->0 @3..5 p=0.5\ngsr @6\n";
  const ParseResult parent = parse_fault_plan(text);
  ASSERT_TRUE(parent.ok()) << parent.error;
  ASSERT_EQ(validate(parent.plan, 5, 0), "");
  EXPECT_EQ(reported_plan(parent.plan), text);

  // An edited child of that parsed plan reports its own plan, never the
  // parent's text.
  adversary::MutationConfig mcfg;
  mcfg.n = 5;
  mcfg.leader = 0;
  mcfg.mutate_links = false;  // every edit changes the plan itself
  Rng rng(3);
  adversary::Candidate c;
  c.plan = parent.plan;
  const adversary::Candidate child = adversary::mutate(c, mcfg, rng);
  ASSERT_FALSE(structurally_equal(child.plan, parent.plan));
  const std::string child_text = reported_plan(child.plan);
  EXPECT_EQ(child_text.find("hand-written"), std::string::npos) << child_text;
  const ParseResult back = parse_fault_plan(child_text);
  ASSERT_TRUE(back.ok()) << back.error;
  EXPECT_TRUE(structurally_equal(back.plan, child.plan)) << child_text;
}

std::string chaos_traces_serialized(int trials) {
  // One chaos run per (trial, algorithm), traces drained in trial order —
  // the serialized bytes must not depend on the worker count.
  struct Out {
    std::string bytes;
  };
  const auto outs =
      run_trials<Out>(static_cast<std::size_t>(trials), [&](std::size_t t) {
        const std::uint64_t seed = substream_seed(0xdead, t);
        ChaosTrialConfig cfg;
        cfg.n = 5;
        cfg.leader = 0;
        cfg.seed = seed;
        cfg.plan = random_fault_plan(5, 0, seed);
        cfg.max_rounds = 120;
        Out out;
        for (AlgorithmKind k :
             {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
              AlgorithmKind::kAfm5}) {
          BufferSink sink;
          cfg.trace = &sink;
          const ChaosRunResult r = run_chaos_algorithm(k, cfg);
          EXPECT_TRUE(r.ok()) << r.violation;
          std::ostringstream os;
          write_trial(os, static_cast<int>(t), sink.events(), cfg.n);
          out.bytes += os.str();
        }
        return out;
      });
  std::string all;
  for (const Out& o : outs) all += o.bytes;
  return all;
}

TEST(Chaos, TraceBytesIdenticalAcrossThreadCounts) {
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    ScopedThreads st(threads);
    const std::string got = chaos_traces_serialized(6);
    if (baseline.empty()) {
      baseline = got;
      EXPECT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(got, baseline) << "TIMING_THREADS=" << threads;
    }
  }
}

TEST(Chaos, ResultSummaryMatchesForwardedTrace) {
  // The harness summarizes its own recording of the run; the caller's
  // sink must receive exactly those events, and attaching it must not
  // change the result.
  for (std::uint64_t seed : {3ull, 17ull, 4242ull}) {
    ChaosTrialConfig cfg;
    cfg.n = 5;
    cfg.leader = 0;
    cfg.seed = seed;
    cfg.plan = random_fault_plan(5, 0, seed);
    cfg.max_rounds = 120;
    for (AlgorithmKind k :
         {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
          AlgorithmKind::kAfm5, AlgorithmKind::kLmOverWlm,
          AlgorithmKind::kPaxos}) {
      BufferSink sink;
      cfg.trace = &sink;
      const ChaosRunResult traced = run_chaos_algorithm(k, cfg);
      ASSERT_FALSE(sink.events().empty());
      EXPECT_EQ(traced.summary,
                summarize_trial(sink.events(), cfg.n, {3, 3, 4, 5}))
          << algorithm_key(k) << " seed " << seed;
      ParsedTrace trace;
      trace.version = kTraceSchemaVersion;
      trace.n = cfg.n;
      trace.trials.push_back(TrialTrace{0, cfg.n, sink.events()});
      EXPECT_EQ(validate_trace(trace), "");

      cfg.trace = nullptr;
      const ChaosRunResult untraced = run_chaos_algorithm(k, cfg);
      EXPECT_EQ(untraced, traced) << algorithm_key(k) << " seed " << seed;
    }
  }
}

TEST(Chaos, BackToBackExecutionsMatchFreshOnes) {
  // Each thread records into one reused buffer. A long run, a short run
  // and the long run again on one thread must each match a run with
  // nothing before it: a missed clear leaks the long run's events into
  // the short one, and a stale high-water mark shows in either.
  ChaosTrialConfig long_cfg;
  long_cfg.n = 5;
  long_cfg.leader = 0;
  long_cfg.seed = 11;
  long_cfg.plan = random_fault_plan(5, 0, long_cfg.seed);
  long_cfg.max_rounds = 120;
  ChaosTrialConfig short_cfg = long_cfg;
  short_cfg.max_rounds = 2;  // cut off long before any decision

  struct Run {
    ChaosRunResult result;
    std::vector<TraceEvent> events;
  };
  auto run = [](ChaosTrialConfig cfg) {
    BufferSink sink;
    cfg.trace = &sink;
    Run out;
    out.result = run_chaos_algorithm(AlgorithmKind::kPaxos, cfg);
    out.events = sink.events();
    return out;
  };

  const Run first = run(long_cfg);
  const Run brief = run(short_cfg);
  const Run again = run(long_cfg);
  Run fresh;
  std::thread worker([&] { fresh = run(short_cfg); });
  worker.join();

  EXPECT_EQ(again.result, first.result);
  EXPECT_EQ(again.events, first.events);
  EXPECT_EQ(brief.result, fresh.result);
  EXPECT_EQ(brief.events, fresh.events);
  // The two lengths must differ several-fold for the checks to bite.
  EXPECT_GE(first.events.size(), 4 * fresh.events.size());
}

// ---------------------------------------------------------------------------
// Chaos under granular link models
// ---------------------------------------------------------------------------

TEST(ChaosGranular, AllSyncVerdictsAreBitIdentical) {
  // An all-sync matrix must take the homogeneous code paths exactly:
  // same schedules, same RNG draws, same verdicts, same trace volume.
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    ChaosTrialConfig plain;
    plain.n = 5;
    plain.leader = 0;
    plain.seed = seed;
    plain.plan = random_fault_plan(5, 0, seed);
    plain.max_rounds = 120;
    ChaosTrialConfig granular = plain;
    granular.link_models = LinkModelMatrix(5);  // defaults all-sync
    for (AlgorithmKind k :
         {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
          AlgorithmKind::kAfm5}) {
      const ChaosRunResult a = run_chaos_algorithm(k, plain);
      const ChaosRunResult b = run_chaos_algorithm(k, granular);
      EXPECT_EQ(a.safety_ok, b.safety_ok);
      EXPECT_EQ(a.liveness_ok, b.liveness_ok);
      EXPECT_TRUE(b.liveness_enforced);
      EXPECT_EQ(a.global_decision_round, b.global_decision_round);
      EXPECT_EQ(a.summary.fault_events, b.summary.fault_events);
      EXPECT_EQ(a.violation, b.violation);
    }
  }
}

TEST(ChaosGranular, SupportsFollowsTheReliablePlane) {
  const int n = 5;
  LinkModelMatrix m(n);
  const std::vector<bool> all_alive;
  for (TimingModel model : kAllModels) {
    EXPECT_TRUE(granular_supports(model, 0, m, all_alive));
  }

  // One async non-leader link: only ES loses support.
  m.set(2, 3, LinkModelClass::kAsync);
  EXPECT_FALSE(granular_supports(TimingModel::kEs, 0, m, all_alive));
  EXPECT_TRUE(granular_supports(TimingModel::kLm, 0, m, all_alive));
  EXPECT_TRUE(granular_supports(TimingModel::kWlm, 0, m, all_alive));
  EXPECT_TRUE(granular_supports(TimingModel::kAfm, 0, m, all_alive));

  // An async leader entry kills the leader models for that row...
  m.set(2, 0, LinkModelClass::kAsync);
  EXPECT_FALSE(granular_supports(TimingModel::kLm, 0, m, all_alive));
  EXPECT_FALSE(granular_supports(TimingModel::kWlm, 0, m, all_alive));
  // ... unless that destination is crashed.
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  alive[2] = false;
  EXPECT_TRUE(granular_supports(TimingModel::kLm, 0, m, alive));
  EXPECT_TRUE(granular_supports(TimingModel::kWlm, 0, m, alive));

  // Starve row 1 below majority (needs 3 of 5): leave only self + one.
  LinkModelMatrix starved(n);
  for (ProcessId s = 0; s < n; ++s) {
    if (s != 1 && s != 0) starved.set(1, s, LinkModelClass::kAsync);
  }
  EXPECT_FALSE(granular_supports(TimingModel::kLm, 0, starved, all_alive));
  EXPECT_FALSE(granular_supports(TimingModel::kAfm, 0, starved, all_alive));
  // WLM only needs the leader's own row to reach majority.
  EXPECT_TRUE(granular_supports(TimingModel::kWlm, 0, starved, all_alive));
}

TEST(ChaosGranular, UnsupportedMatrixWaivesLivenessKeepsSafety) {
  const int n = 5;
  // Sever every non-self inbound link of the leader (who is never
  // permanently crashed by random plans, so the waiver cannot be
  // voided by the alive mask): no granular model can make it hear
  // anything reliably, so no liveness bound is owed — but
  // agreement/validity/integrity still are.
  LinkModelMatrix m(n);
  for (ProcessId s = 1; s < n; ++s) m.set(0, s, LinkModelClass::kAsync);
  for (std::uint64_t seed : {1ull, 5ull}) {
    ChaosTrialConfig cfg;
    cfg.n = n;
    cfg.leader = 0;
    cfg.seed = seed;
    cfg.plan = random_fault_plan(n, 0, seed);
    cfg.max_rounds = 120;
    cfg.link_models = m;
    for (AlgorithmKind k :
         {AlgorithmKind::kWlm, AlgorithmKind::kEs3, AlgorithmKind::kLm3,
          AlgorithmKind::kAfm5}) {
      const ChaosRunResult r = run_chaos_algorithm(k, cfg);
      EXPECT_TRUE(r.safety_ok) << r.violation;
      EXPECT_TRUE(r.liveness_ok) << r.violation;
      EXPECT_FALSE(r.liveness_enforced)
          << algorithm_key(k) << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Sim vs live: one plan, two backends, same injections
// ---------------------------------------------------------------------------

TEST(FaultInjectedTransport, LiveClusterMatchesTheSharedInjector) {
  const int n = 4;
  const ProcessId leader = 0;
  const FaultPlan plan = golden_plan();
  InjectorConfig icfg;
  icfg.n = n;
  icfg.leader = leader;
  icfg.seed = 4242;
  const FaultInjector injector(plan, icfg);

  std::vector<BufferSink> sinks(static_cast<std::size_t>(n));
  std::vector<Value> decisions(static_cast<std::size_t>(n), kNoValue);
  // Per-node slots written from the node threads: vector<bool> would
  // pack neighbours into one word and race.
  std::vector<char> decided(static_cast<std::size_t>(n), 0);
  auto hub = std::make_shared<InProcHub>(n);
  std::vector<std::thread> threads;
  for (ProcessId i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      auto protocol = make_protocol(AlgorithmKind::kWlm, i, n, 100 + i);
      DesignatedOracle oracle(leader);
      InProcTransport inner(hub, i);
      FaultInjectedTransport transport(inner, injector);
      transport.set_trace_sink(&sinks[static_cast<std::size_t>(i)]);
      RoundSyncConfig cfg;
      cfg.timeout_ms = 25.0;
      cfg.max_rounds = 200;
      RoundSyncRunner runner(*protocol, &oracle, transport, n, cfg);
      const RoundSyncResult r = runner.run();
      decided[static_cast<std::size_t>(i)] = r.decided;
      decisions[static_cast<std::size_t>(i)] = protocol->decision();
    });
  }
  for (auto& t : threads) t.join();

  // Safety across the fault window: everyone decides the same proposal.
  Value agreed = kNoValue;
  for (ProcessId i = 0; i < n; ++i) {
    ASSERT_TRUE(decided[static_cast<std::size_t>(i)]) << "node " << i;
    if (agreed == kNoValue) agreed = decisions[static_cast<std::size_t>(i)];
    EXPECT_EQ(decisions[static_cast<std::size_t>(i)], agreed);
  }

  // Every action the live backend took is one the sim injector mandates
  // for that exact (round, link) — the two backends cannot drift.
  std::size_t live_actions = 0;
  std::set<Round> crash_rounds;
  for (const BufferSink& sink : sinks) {
    for (const TraceEvent& e : sink.events()) {
      if (e.kind != EventKind::kFaultInjected) continue;
      ++live_actions;
      switch (static_cast<FaultKind>(e.rule)) {
        case FaultKind::kCrash:
          EXPECT_TRUE(injector.crashed_in(e.proc, e.round))
              << "crash action at round " << e.round;
          crash_rounds.insert(e.round);
          break;
        case FaultKind::kPartition:
          EXPECT_TRUE(injector.partitioned(e.src, e.dst, e.round));
          break;
        case FaultKind::kDrop:
          EXPECT_TRUE(injector.drop_fires(e.round, e.src, e.dst));
          break;
        case FaultKind::kDelay:
          EXPECT_GT(injector.extra_delay_ms(e.round, e.src, e.dst), 0.0);
          break;
        case FaultKind::kSuppressLeader:
          EXPECT_TRUE(injector.suppressed(e.src, e.round));
          break;
        default:
          ADD_FAILURE() << "unexpected fault rule " << int(e.rule);
      }
    }
  }
  // The crash window [2, 4) is where every crash-isolation action lands.
  for (Round k : crash_rounds) {
    EXPECT_GE(k, 2);
    EXPECT_LT(k, 4);
  }
  EXPECT_GT(live_actions, 0u)
      << "the plan's rounds ran but nothing was injected";

  // Sim side, same plan: the harness holds every guarantee.
  ChaosTrialConfig ccfg;
  ccfg.n = n;
  ccfg.leader = leader;
  ccfg.seed = icfg.seed;
  ccfg.plan = plan;
  ccfg.max_rounds = 100;
  const ChaosRunResult sim = run_chaos_algorithm(AlgorithmKind::kWlm, ccfg);
  EXPECT_TRUE(sim.ok()) << sim.violation;
  EXPECT_GT(sim.summary.fault_events, 0);
}

TEST(FaultInjectedTransport, DelaysDeliverLateButIntact) {
  const int n = 2;
  const ParseResult pr = parse_fault_plan("delay 0->1 +30ms @1..3; gsr @3");
  ASSERT_TRUE(pr.ok()) << pr.error;
  InjectorConfig icfg;
  icfg.n = n;
  icfg.seed = 5;
  const FaultInjector injector(pr.plan, icfg);

  auto hub = std::make_shared<InProcHub>(n);
  InProcTransport a(hub, 0), raw_b(hub, 1);
  FaultInjectedTransport b(raw_b, injector);

  // An envelope stamped round 1 rides the delayed link.
  Bytes wire;
  frame_envelope(Envelope{1, 0, Message{}}, wire);
  ASSERT_TRUE(a.send(1, wire));
  Bytes got;
  ProcessId from = kNoProcess;
  const auto t0 = Clock::now();
  ASSERT_TRUE(b.recv(got, from, t0 + std::chrono::seconds(2)));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          Clock::now() - t0)
                          .count();
  EXPECT_EQ(from, 0);
  EXPECT_GE(waited, 25) << "the +30ms delay rule must hold the datagram";

  // Round 3 is past the window: immediate delivery.
  wire.clear();
  frame_envelope(Envelope{3, 0, Message{}}, wire);
  ASSERT_TRUE(a.send(1, wire));
  ASSERT_TRUE(b.recv(got, from, Clock::now() + std::chrono::seconds(2)));
}

// Writes a faulted trace for the ctest-level trace_tool runs (see
// tests/CMakeLists.txt: FIXTURES_SETUP fault_trace): `validate` must
// accept the fault events and `summary` must count them in its
// fault-event column.
TEST(TraceToolFixture, WritesFaultedTraceForCli) {
  ChaosTrialConfig cfg;
  cfg.n = 5;
  cfg.leader = 0;
  cfg.seed = 31337;
  cfg.plan = random_fault_plan(5, 0, cfg.seed);
  cfg.max_rounds = 120;
  BufferSink sink;
  cfg.trace = &sink;
  const ChaosRunResult r = run_chaos_algorithm(AlgorithmKind::kWlm, cfg);
  ASSERT_TRUE(r.ok()) << r.violation;
  ASSERT_GT(r.summary.fault_events, 0);
  std::ofstream out("fault_cli_trace.jsonl", std::ios::trunc);
  ASSERT_TRUE(out.good());
  write_trace_header(out, cfg.n);
  write_trial(out, 0, sink.events(), cfg.n);
}

}  // namespace
}  // namespace timing::fault
