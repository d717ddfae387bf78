// Tests for the observability layer (src/obs): trace event ordering
// invariants, lossless JSONL round-trips, thread-count-invariant trace
// bytes, a golden trace for a tiny deterministic run, and the acceptance
// property that offline trace analysis reproduces the online harness's
// numbers exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "consensus/factory.hpp"
#include "giraf/engine.hpp"
#include "harness/algorithm_runs.hpp"
#include "harness/measurement.hpp"
#include "models/schedule.hpp"
#include "net/ping.hpp"
#include "net/transport.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "obs/span_analysis.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_sink.hpp"
#include "oracles/omega.hpp"
#include "roundsync/roundsync.hpp"
#include "sim/sampler.hpp"
#include "smr/client.hpp"

namespace timing {
namespace {

::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(a));
  std::memcpy(&bb, &b, sizeof(b));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

// ---------------------------------------------------------------------
// Sinks.

TEST(TraceSink, NullSinkIsANoOp) {
  // TM_TRACE on a null sink must be safe (the off-by-default path) and
  // must not even build the event; with a sink it builds it once.
  int built = 0;
  const auto make = [&] {
    ++built;
    return TraceEvent::round_end(7);
  };
  TraceSink* off = nullptr;
  TM_TRACE(off, make());
  EXPECT_EQ(built, 0);
  BufferSink sink;
  TM_TRACE(&sink, make());
  EXPECT_EQ(built, 1);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::kRoundEnd);
  EXPECT_EQ(sink.events()[0].round, 7);
}

// ---------------------------------------------------------------------
// JSONL encoding.

std::vector<TraceEvent> one_of_each(int n) {
  return {
      TraceEvent::round_start(1),
      TraceEvent::crash(1, n - 1),
      TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
      TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 1),
      TraceEvent::msg(EventKind::kMsgLate, 1, 1, 0, /*delay=*/3),
      TraceEvent::msg(EventKind::kMsgLost, 1, 1, 2),
      TraceEvent::oracle(1, 0, 2),
      TraceEvent::predicates(1, 0b1010),
      TraceEvent::decide(1, 0, 42, decide_rule::kCommitQuorum),
      TraceEvent::round_end(1),
  };
}

TEST(Jsonl, RoundTripIsLossless) {
  const std::vector<TraceEvent> events = one_of_each(4);
  const std::vector<TraceEvent> small = one_of_each(3);
  std::ostringstream out;
  write_trace_header(out, 4);
  write_trial(out, 0, events);
  write_trial(out, 1, small, /*n=*/3);  // per-trial n survives too

  std::istringstream in(out.str());
  const ParsedTrace trace = parse_trace(in);
  EXPECT_EQ(trace.version, kTraceSchemaVersion);
  EXPECT_EQ(trace.n, 4);
  ASSERT_EQ(trace.trials.size(), 2u);
  EXPECT_EQ(trace.trials[0].id, 0);
  EXPECT_EQ(trace.trials[0].n, 0);
  EXPECT_EQ(trace.trials[1].n, 3);
  // Defaulted operator== on the flat struct: every field round-trips.
  EXPECT_EQ(trace.trials[0].events, events);
  EXPECT_EQ(trace.trials[1].events, small);
}

TEST(Jsonl, ReencodingIsByteIdentical) {
  const std::vector<TraceEvent> events = one_of_each(4);
  std::ostringstream a;
  write_trace_header(a, 4);
  write_trial(a, 0, events);
  std::istringstream in(a.str());
  const ParsedTrace trace = parse_trace(in);
  std::ostringstream b;
  write_trace_header(b, trace.n);
  write_trial(b, trace.trials[0].id, trace.trials[0].events);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Jsonl, ParserRejectsMalformedInput) {
  auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return parse_trace(in);
  };
  const std::string header = "{\"schema\":\"timing-trace\",\"v\":1,\"n\":3}\n";
  const std::string trial = "{\"e\":\"trial\",\"id\":0}\n";

  EXPECT_THROW(parse(""), std::runtime_error);  // no header
  EXPECT_THROW(parse("{\"schema\":\"other\",\"v\":1,\"n\":3}\n" + trial),
               std::runtime_error);  // unknown schema
  EXPECT_THROW(parse("{\"schema\":\"timing-trace\",\"v\":99,\"n\":3}\n" +
                     trial),
               std::runtime_error);  // future version
  EXPECT_THROW(parse(header), std::runtime_error);  // no trials
  EXPECT_THROW(parse(header + "{\"e\":\"round_start\",\"k\":1}\n"),
               std::runtime_error);  // event before first trial marker
  EXPECT_THROW(parse(header + trial + "{\"e\":\"warp\",\"k\":1}\n"),
               std::runtime_error);  // unknown event
  EXPECT_THROW(parse(header + trial + "{\"e\":\"crash\",\"k\":1}\n"),
               std::runtime_error);  // missing field
  EXPECT_THROW(
      parse(header + trial + "{\"e\":\"sent\",\"k\":1,\"s\":7,\"d\":0}\n"),
      std::runtime_error);  // pid out of range
  EXPECT_THROW(parse(header + trial +
                     "{\"e\":\"late\",\"k\":1,\"s\":0,\"d\":1,\"delay\":0}\n"),
               std::runtime_error);  // late with no delay
  EXPECT_THROW(parse(header + trial +
                     "{\"e\":\"pred\",\"k\":1,\"sat\":16}\n"),
               std::runtime_error);  // sat mask beyond 4 models
  EXPECT_THROW(parse(header + "{\"e\":\"trial\",\"id\":1,\"n\":9}\n"),
               std::runtime_error);  // per-trial n above header n
}

// ---------------------------------------------------------------------
// Structural validation.

ParsedTrace wrap(std::vector<TraceEvent> events, int n = 3) {
  ParsedTrace trace;
  trace.version = kTraceSchemaVersion;
  trace.n = n;
  TrialTrace t;
  t.id = 0;
  t.events = std::move(events);
  trace.trials.push_back(std::move(t));
  return trace;
}

TEST(ValidateTrace, AcceptsAWellFormedTrial) {
  EXPECT_EQ(validate_trace(wrap({
                TraceEvent::round_start(1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 1),
                TraceEvent::predicates(1, 0b0001),
                TraceEvent::round_end(1),
                TraceEvent::round_start(2),
                TraceEvent::decide(2, 0, 7, decide_rule::kForwarded),
                TraceEvent::round_end(2),
            })),
            "");
}

TEST(ValidateTrace, CatchesOrderingViolations) {
  // Round numbers must strictly increase.
  EXPECT_NE(validate_trace(wrap({
                TraceEvent::round_start(2),
                TraceEvent::round_end(2),
                TraceEvent::round_start(2),
                TraceEvent::round_end(2),
            })),
            "");
  // Events outside any round.
  EXPECT_NE(validate_trace(wrap({TraceEvent::predicates(1, 1)})), "");
  // Event round must match the open round.
  EXPECT_NE(validate_trace(wrap({
                TraceEvent::round_start(1),
                TraceEvent::predicates(2, 1),
                TraceEvent::round_end(1),
            })),
            "");
  // Phases may not go backwards (a send after the predicate eval).
  EXPECT_NE(validate_trace(wrap({
                TraceEvent::round_start(1),
                TraceEvent::predicates(1, 1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
                TraceEvent::round_end(1),
            })),
            "");
  // In a trial that records sends, a delivery needs a preceding send.
  EXPECT_NE(validate_trace(wrap({
                TraceEvent::round_start(1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 1),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 2, 1),
                TraceEvent::round_end(1),
            })),
            "");
  // A process decides at most once.
  EXPECT_NE(validate_trace(wrap({
                TraceEvent::round_start(1),
                TraceEvent::decide(1, 0, 7, decide_rule::kForwarded),
                TraceEvent::decide(1, 0, 7, decide_rule::kForwarded),
                TraceEvent::round_end(1),
            })),
            "");
  // An open round must be closed.
  EXPECT_NE(validate_trace(wrap({TraceEvent::round_start(1)})), "");
}

/// validate_trial over events held in a vector.
std::string validate_events(const std::vector<TraceEvent>& events,
                            int trial_id = 0) {
  return validate_trial(events, trial_id);
}

TEST(ValidateTrace, NamesTheFirstViolationsEventKindAndRound) {
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(1),
                TraceEvent::decide(1, 0, 7, decide_rule::kForwarded),
                TraceEvent::round_end(1),
                TraceEvent::round_start(2),
                TraceEvent::decide(2, 1, 7, decide_rule::kForwarded),
                TraceEvent::decide(2, 0, 7, decide_rule::kForwarded),
                TraceEvent::round_end(2),
            }, 4),
            "trial 4 event 5 (decide, round 2): process decided twice");
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(3),
                TraceEvent::crash(3, 2),
                TraceEvent::crash(3, 1),
                TraceEvent::crash(3, 2),
                TraceEvent::round_end(3),
            }),
            "trial 0 event 3 (crash, round 3): process crashed twice");
  // A send covers its link for the round it was made in only.
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 1),
                TraceEvent::round_end(1),
                TraceEvent::round_start(2),
                TraceEvent::msg(EventKind::kMsgSent, 2, 1, 0),
                TraceEvent::msg(EventKind::kMsgTimely, 2, 1, 0),
                TraceEvent::msg(EventKind::kMsgTimely, 2, 0, 1),
                TraceEvent::round_end(2),
            }, 2),
            "trial 2 event 7 (timely, round 2): delivery/loss without a "
            "preceding send on the link");
  // A send covers its own direction only.
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 0, 2),
                TraceEvent::msg(EventKind::kMsgLost, 1, 0, 2),
                TraceEvent::msg(EventKind::kMsgLate, 1, 1, 0, 2),
                TraceEvent::round_end(1),
            }),
            "trial 0 event 4 (late, round 1): delivery/loss without a "
            "preceding send on the link");
}

TEST(ValidateTrace, HoldsProcessIdsPast63ToTheSameRules) {
  const std::vector<TraceEvent> valid = {
      TraceEvent::round_start(1),
      TraceEvent::crash(1, 64),
      TraceEvent::msg(EventKind::kMsgSent, 1, 70, 100),
      TraceEvent::msg(EventKind::kMsgSent, 1, 100, 70),
      TraceEvent::msg(EventKind::kMsgSent, 1, 0, 127),
      TraceEvent::msg(EventKind::kMsgTimely, 1, 100, 70),
      TraceEvent::msg(EventKind::kMsgLost, 1, 70, 100),
      TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 127),
      TraceEvent::decide(1, 100, 7, decide_rule::kForwarded),
      TraceEvent::decide(1, 36, 7, decide_rule::kForwarded),
      TraceEvent::decide(1, 70, 7, decide_rule::kForwarded),
      TraceEvent::round_end(1),
  };
  EXPECT_EQ(validate_trial(valid), "");

  // One event inserted at `at` into the valid trial.
  auto with = [&](std::size_t at, TraceEvent e) {
    std::vector<TraceEvent> events = valid;
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(at), e);
    return events;
  };
  EXPECT_EQ(validate_trial(with(8, TraceEvent::msg(EventKind::kMsgLost, 1,
                                                   127, 0))),
            "trial 0 event 8 (lost, round 1): delivery/loss without a "
            "preceding send on the link");
  EXPECT_EQ(validate_trial(with(11, TraceEvent::decide(
                                        1, 100, 7, decide_rule::kForwarded))),
            "trial 0 event 11 (decide, round 1): process decided twice");
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(5),
                TraceEvent::crash(5, 64),
                TraceEvent::crash(5, 0),
                TraceEvent::crash(5, 65),
                TraceEvent::crash(5, 64),
                TraceEvent::round_end(5),
            }),
            "trial 0 event 4 (crash, round 5): process crashed twice");
  EXPECT_EQ(validate_events({
                TraceEvent::round_start(1),
                TraceEvent::msg(EventKind::kMsgSent, 1, 1, 0),
                TraceEvent::msg(EventKind::kMsgSent, 1, 64, 65),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 1, 0),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 64, 65),
                TraceEvent::msg(EventKind::kMsgTimely, 1, 0, 64),
                TraceEvent::round_end(1),
            }),
            "trial 0 event 5 (timely, round 1): delivery/loss without a "
            "preceding send on the link");
}

// A round's leader is agreed when every process that reported an oracle
// output reported the same one; a process reporting twice in a round
// counts with its last output.
TEST(SummarizeTrial, LeaderSpansFoldEachProcesssLastOutputPerRound) {
  const auto spans = [](std::vector<TraceEvent> events) {
    return summarize_trial(events, 4, {3, 3, 4, 5}).leader_spans;
  };
  // Disagreement breaks the span; agreement resumes a new one.
  EXPECT_EQ(spans({
                TraceEvent::oracle(1, 0, 1), TraceEvent::oracle(1, 1, 1),
                TraceEvent::oracle(1, 2, 1), TraceEvent::oracle(1, 3, 1),
                TraceEvent::oracle(2, 0, 1), TraceEvent::oracle(2, 1, 2),
                TraceEvent::oracle(2, 2, 1), TraceEvent::oracle(2, 3, 1),
                TraceEvent::oracle(3, 0, 1), TraceEvent::oracle(3, 1, 1),
                TraceEvent::oracle(4, 0, 1), TraceEvent::oracle(4, 1, 1),
            }),
            (std::vector<LeaderSpan>{{1, 1, 1}, {3, 4, 1}}));
  // Outputs out of process order, and processes skipped, still agree;
  // a round with no outputs at all ends the span.
  EXPECT_EQ(spans({
                TraceEvent::oracle(1, 3, 2), TraceEvent::oracle(1, 0, 2),
                TraceEvent::oracle(1, 2, 2),
                TraceEvent::oracle(2, 2, 2), TraceEvent::oracle(2, 1, 2),
                TraceEvent::oracle(4, 1, 2),
                TraceEvent::oracle(5, 3, 0), TraceEvent::oracle(5, 0, 0),
            }),
            (std::vector<LeaderSpan>{{1, 2, 2}, {4, 4, 2}, {5, 5, 0}}));
  // A process that reports twice in a round counts with its last output.
  EXPECT_EQ(spans({
                TraceEvent::oracle(1, 0, 1), TraceEvent::oracle(1, 1, 2),
                TraceEvent::oracle(1, 0, 2),
                TraceEvent::oracle(2, 0, 2), TraceEvent::oracle(2, 1, 2),
                TraceEvent::oracle(2, 1, 3),
                TraceEvent::oracle(3, 3, 2), TraceEvent::oracle(3, 3, 3),
                TraceEvent::oracle(3, 3, 2),
            }),
            (std::vector<LeaderSpan>{{1, 1, 2}, {3, 3, 2}}));
  // Other events in between do not close the round.
  EXPECT_EQ(spans({
                TraceEvent::round_start(1),
                TraceEvent::oracle(1, 1, 3),
                TraceEvent::decide(1, 1, 7, decide_rule::kForwarded),
                TraceEvent::oracle(1, 0, 3),
                TraceEvent::round_end(1),
            }),
            (std::vector<LeaderSpan>{{1, 1, 3}}));
}

// ---------------------------------------------------------------------
// Engine + protocol wiring, and the golden trace.

struct WlmRun {
  BufferSink sink;
  EngineStats stats;
  Round decided = -1;
  Round engine_global = -1;
};

WlmRun tiny_wlm_run() {
  ScheduleConfig sched;
  sched.n = 3;
  sched.model = TimingModel::kWlm;
  sched.leader = 0;
  sched.gsr = 1;
  sched.seed = 2026;
  ScheduleSampler sampler(sched);

  auto protocols = make_group(AlgorithmKind::kWlm, {10, 20, 30});
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine engine(std::move(protocols), oracle);
  WlmRun out;
  engine.set_trace_sink(&out.sink);
  out.decided = engine.run(sampler, 50);
  out.stats = engine.stats();
  out.engine_global = engine.global_decision_round();
  return out;
}

// The full expected trace of the deterministic 3-process <>WLM run
// above: Algorithm 2 with a stable leader from round 1. The leader
// (process 0) decides in round 3 by commit quorum; the others decide in
// round 4 on the forwarded DECIDE. Any change to engine emission order,
// protocol decide paths or the JSONL encoding shows up here.
constexpr const char* kGoldenWlmTrace =
    R"({"schema":"timing-trace","v":1,"n":3}
{"e":"trial","id":0}
{"e":"round_start","k":1}
{"e":"sent","k":1,"s":0,"d":1}
{"e":"timely","k":1,"s":0,"d":1}
{"e":"sent","k":1,"s":0,"d":2}
{"e":"timely","k":1,"s":0,"d":2}
{"e":"sent","k":1,"s":1,"d":0}
{"e":"timely","k":1,"s":1,"d":0}
{"e":"sent","k":1,"s":2,"d":0}
{"e":"late","k":1,"s":2,"d":0,"delay":1}
{"e":"oracle","k":1,"p":0,"ld":0}
{"e":"oracle","k":1,"p":1,"ld":0}
{"e":"oracle","k":1,"p":2,"ld":0}
{"e":"round_end","k":1}
{"e":"round_start","k":2}
{"e":"sent","k":2,"s":0,"d":1}
{"e":"timely","k":2,"s":0,"d":1}
{"e":"sent","k":2,"s":0,"d":2}
{"e":"timely","k":2,"s":0,"d":2}
{"e":"sent","k":2,"s":1,"d":0}
{"e":"timely","k":2,"s":1,"d":0}
{"e":"sent","k":2,"s":2,"d":0}
{"e":"timely","k":2,"s":2,"d":0}
{"e":"oracle","k":2,"p":0,"ld":0}
{"e":"oracle","k":2,"p":1,"ld":0}
{"e":"oracle","k":2,"p":2,"ld":0}
{"e":"round_end","k":2}
{"e":"round_start","k":3}
{"e":"sent","k":3,"s":0,"d":1}
{"e":"timely","k":3,"s":0,"d":1}
{"e":"sent","k":3,"s":0,"d":2}
{"e":"timely","k":3,"s":0,"d":2}
{"e":"sent","k":3,"s":1,"d":0}
{"e":"timely","k":3,"s":1,"d":0}
{"e":"sent","k":3,"s":2,"d":0}
{"e":"late","k":3,"s":2,"d":0,"delay":1}
{"e":"oracle","k":3,"p":0,"ld":0}
{"e":"decide","k":3,"p":0,"v":20,"rule":2}
{"e":"oracle","k":3,"p":1,"ld":0}
{"e":"oracle","k":3,"p":2,"ld":0}
{"e":"round_end","k":3}
{"e":"round_start","k":4}
{"e":"sent","k":4,"s":0,"d":1}
{"e":"timely","k":4,"s":0,"d":1}
{"e":"sent","k":4,"s":0,"d":2}
{"e":"timely","k":4,"s":0,"d":2}
{"e":"sent","k":4,"s":1,"d":0}
{"e":"timely","k":4,"s":1,"d":0}
{"e":"sent","k":4,"s":2,"d":0}
{"e":"late","k":4,"s":2,"d":0,"delay":1}
{"e":"oracle","k":4,"p":0,"ld":0}
{"e":"oracle","k":4,"p":1,"ld":0}
{"e":"decide","k":4,"p":1,"v":20,"rule":1}
{"e":"oracle","k":4,"p":2,"ld":0}
{"e":"decide","k":4,"p":2,"v":20,"rule":1}
{"e":"round_end","k":4}
)";

TEST(EngineTrace, GoldenTinyWlmRun) {
  WlmRun run = tiny_wlm_run();
  EXPECT_EQ(run.decided, 4);
  std::ostringstream out;
  write_trace_header(out, 3);
  write_trial(out, 0, run.sink.events());
  EXPECT_EQ(out.str(), kGoldenWlmTrace);
}

TEST(EngineTrace, IsStructurallyValidAndMatchesEngineStats) {
  WlmRun run = tiny_wlm_run();
  ParsedTrace trace = wrap(run.sink.events());
  EXPECT_EQ(validate_trace(trace), "");

  // Satellite cross-check: the engine's (previously write-only) stats
  // are exposed and agree with the trace event counts exactly.
  const TrialSummary s =
      summarize_trial(trace.trials[0], 3, {3, 3, 4, 5});
  EXPECT_EQ(s.totals.sent, run.stats.messages_sent);
  EXPECT_EQ(s.totals.timely, run.stats.timely_deliveries);
  EXPECT_EQ(s.totals.late, run.stats.late_messages);
  EXPECT_EQ(s.totals.lost, run.stats.lost_messages);
  EXPECT_EQ(s.totals.sent, s.totals.timely + s.totals.late + s.totals.lost);
  // Realized arrivals can lag the sampled fates (messages still in
  // flight when the run ends) but never exceed them.
  EXPECT_LE(run.stats.late_arrivals, run.stats.late_messages);

  // Decide events mirror the engine's decision accounting.
  ASSERT_EQ(s.decides.size(), 3u);
  for (const TraceEvent& d : s.decides) EXPECT_EQ(d.value, 20);
  EXPECT_EQ(s.global_decision_round, run.engine_global);
  EXPECT_EQ(s.global_decision_round, run.decided);

  // The stable leader yields one unbroken leader-stability interval.
  ASSERT_EQ(s.leader_spans.size(), 1u);
  EXPECT_EQ(s.leader_spans[0], (LeaderSpan{1, 4, 0}));
}

TEST(EngineTrace, CrashesAreRecorded) {
  ScheduleConfig sched;
  sched.n = 5;
  sched.model = TimingModel::kWlm;
  sched.leader = 0;
  sched.gsr = 6;
  sched.seed = 11;
  sched.crash_rounds = {0, 0, 3, 0, 0};
  ScheduleSampler sampler(sched);

  auto protocols = make_group(AlgorithmKind::kWlm, {1, 2, 3, 4, 5});
  auto oracle = std::make_shared<DesignatedOracle>(0);
  RoundEngine engine(std::move(protocols), oracle);
  engine.crash_at(2, 3);
  BufferSink sink;
  engine.set_trace_sink(&sink);
  engine.run(sampler, 60);

  ParsedTrace trace = wrap(sink.events(), 5);
  EXPECT_EQ(validate_trace(trace), "");
  const TrialSummary s =
      summarize_trial(trace.trials[0], 5, {3, 3, 4, 5});
  ASSERT_EQ(s.crashes.size(), 1u);
  EXPECT_EQ(s.crashes[0].proc, 2);
  EXPECT_EQ(s.crashes[0].round, 3);
  // The crashed process neither sends nor decides from round 3 on.
  for (const TraceEvent& e : trace.trials[0].events) {
    if (e.kind == EventKind::kMsgSent && e.src == 2) {
      EXPECT_LT(e.round, 3);
    }
    if (e.kind == EventKind::kDecide) {
      EXPECT_NE(e.proc, 2);
    }
  }
}

TEST(AlgorithmRuns, EngineStatsAccessorCrossChecks) {
  AlgorithmRunConfig cfg;
  cfg.kind = AlgorithmKind::kWlm;
  cfg.schedule.n = 4;
  cfg.schedule.model = TimingModel::kWlm;
  cfg.schedule.leader = 1;
  cfg.schedule.gsr = 3;
  cfg.schedule.seed = 77;
  cfg.proposals = {1, 2, 3, 4};
  CountingSink sink;
  cfg.trace = &sink;
  const AlgorithmRunResult res = run_algorithm(cfg);
  EXPECT_TRUE(res.all_decided);
  // The new accessor agrees with the legacy total and balances exactly.
  EXPECT_EQ(res.engine.messages_sent, res.total_messages);
  EXPECT_EQ(res.engine.messages_sent,
            res.engine.timely_deliveries + res.engine.late_messages +
                res.engine.lost_messages);
  EXPECT_LE(res.engine.late_arrivals, res.engine.late_messages);
  EXPECT_GT(sink.count(), 0u);
}

// ---------------------------------------------------------------------
// measure_run trials traced the way ablation/group_size traces them:
// offline analysis reproduces the online numbers.

constexpr std::array<int, kTraceNumModels> kNeeded{3, 3, 4, 5};

std::vector<RunMeasurement> traced_sweep(std::ostream& trace_out, int n,
                                         int num_runs, int rounds) {
  std::vector<BufferSink> sinks(static_cast<std::size_t>(num_runs));
  auto ms = run_trials<RunMeasurement>(sinks.size(), [&](std::size_t run) {
    IidTimelinessSampler sampler(n, 0.85, substream_seed(505, run));
    return measure_run(sampler, rounds, /*leader=*/0, &sinks[run]);
  });
  std::vector<TrialTrace> trials;
  for (std::size_t run = 0; run < sinks.size(); ++run) {
    trials.push_back(TrialTrace{static_cast<int>(run), n, sinks[run].take()});
  }
  write_trace(trace_out, trials);
  return ms;
}

TEST(MeasureRunTrace, OfflineSummaryMatchesOnlineHarnessExactly) {
  const int n = 5, num_runs = 6, rounds = 120;
  std::ostringstream out;
  const auto ms = traced_sweep(out, n, num_runs, rounds);

  std::istringstream in(out.str());
  const ParsedTrace trace = parse_trace(in);
  EXPECT_EQ(validate_trace(trace), "");
  const TraceSummary summary = summarize_trace(trace, kNeeded);
  ASSERT_EQ(summary.trials.size(), static_cast<std::size_t>(num_runs));

  for (int run = 0; run < num_runs; ++run) {
    const RunMeasurement& online = ms[static_cast<std::size_t>(run)];
    const TrialSummary& offline =
        summary.trials[static_cast<std::size_t>(run)];
    EXPECT_EQ(offline.pred_rounds, rounds);
    // Every message has exactly one fate.
    EXPECT_EQ(online.messages_total, online.messages_timely +
                                         online.messages_late +
                                         online.messages_lost);
    EXPECT_EQ(offline.totals.timely, online.messages_timely);
    EXPECT_EQ(offline.totals.late, online.messages_late);
    EXPECT_EQ(offline.totals.lost, online.messages_lost);
    for (int m = 0; m < kTraceNumModels; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      // P_M incidence: exact, down to the last bit.
      EXPECT_TRUE(bits_equal(offline.incidence(m),
                             online.incidence(static_cast<TimingModel>(m))));
      // Rounds until the global-decision conditions hold: the offline
      // first_window must equal the online rounds_until_conditions.
      const DecisionWindow w =
          rounds_until_conditions(online.sat[mi], 0, kNeeded[mi]);
      if (w.censored) {
        EXPECT_EQ(offline.first_window[mi], -1) << "model " << m;
      } else {
        EXPECT_EQ(static_cast<double>(offline.first_window[mi]), w.rounds)
            << "model " << m;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Diff mode.

TEST(DiffTraces, ReportsFirstDivergence) {
  WlmRun run = tiny_wlm_run();
  ParsedTrace a = wrap(run.sink.events());
  ParsedTrace b = a;
  EXPECT_TRUE(diff_traces(a, b).identical);

  // Flip one message fate in trial 0.
  for (TraceEvent& e : b.trials[0].events) {
    if (e.kind == EventKind::kMsgTimely) {
      e.kind = EventKind::kMsgLost;
      break;
    }
  }
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("first divergence"), std::string::npos);
}

TEST(DiffTraces, SummarizesEachSideAtItsOwnGroupSize) {
  WlmRun run = tiny_wlm_run();
  const ParsedTrace a = wrap(run.sink.events(), 3);
  // The same run with a fourth process that sends once and reports an
  // oracle output: its events index past a 3-process summary's tables.
  std::vector<TraceEvent> events = run.sink.events();
  const auto end1 = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.kind == EventKind::kRoundEnd; });
  ASSERT_NE(end1, events.end());
  events.insert(end1, {TraceEvent::oracle(1, 3, 0)});
  const auto sent = std::find_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.kind == EventKind::kMsgSent; });
  ASSERT_NE(sent, events.end());
  events.insert(sent, {TraceEvent::msg(EventKind::kMsgSent, 1, 3, 0),
                       TraceEvent::msg(EventKind::kMsgLost, 1, 3, 0)});
  const ParsedTrace b = wrap(events, 4);
  EXPECT_EQ(validate_trace(b), "");

  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_NE(d.report.find("group size differs: 3 vs 4\n"), std::string::npos)
      << d.report;
  EXPECT_NE(d.report.find("message fates (timely/late/lost): "),
            std::string::npos)
      << d.report;
}

// Writes a trace for the ctest-level `trace_tool validate` run (see
// tests/CMakeLists.txt: FIXTURES_SETUP obs_trace); the CLI must accept
// what the library emits.
TEST(TraceToolFixture, WritesTraceForCliValidation) {
  WlmRun run = tiny_wlm_run();
  std::ofstream out("obs_cli_trace.jsonl", std::ios::trunc);
  ASSERT_TRUE(out.good());
  write_trace_header(out, 3);
  write_trial(out, 0, run.sink.events());
}

// ---------------------------------------------------------------------
// Net-layer drop paths (satellite: transports share the TraceSink).

/// Latency model that loses every message.
class BlackholeModel final : public LatencyModel {
 public:
  explicit BlackholeModel(int n) : n_(n) {}
  int n() const noexcept override { return n_; }
  void begin_round(Round) override {}
  double sample_ms(ProcessId, ProcessId) override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  int n_;
};

TEST(NetTrace, HubLossSurfacesAsLostEvent) {
  auto hub = std::make_shared<InProcHub>(2);
  hub->set_latency_model(std::make_unique<BlackholeModel>(2), 10.0);
  InProcTransport t0(hub, 0);
  BufferSink sink;
  t0.set_trace_sink(&sink);
  EXPECT_TRUE(t0.send(1, {1, 2, 3}));  // locally fine, wire eats it
  ASSERT_EQ(sink.events().size(), 1u);
  const TraceEvent& e = sink.events()[0];
  EXPECT_EQ(e.kind, EventKind::kMsgLost);
  EXPECT_EQ(e.round, 0);  // transport-level, below the round abstraction
  EXPECT_EQ(e.src, 0);
  EXPECT_EQ(e.dst, 1);
}

TEST(NetTrace, PingDropsMalformedFrames) {
  auto hub = std::make_shared<InProcHub>(2);
  InProcTransport t0(hub, 0);
  InProcTransport t1(hub, 1);
  BufferSink sink;
  t0.set_trace_sink(&sink);
  // Node 1 sends garbage; node 0's probe loop must drop (and record) it.
  t1.send(0, {0xde, 0xad, 0xbe, 0xef});
  PingConfig cfg;
  cfg.pings_per_peer = 1;
  cfg.probe_interval = std::chrono::milliseconds(2);
  cfg.total_duration = std::chrono::milliseconds(50);
  measure_peer_rtts(t0, 2, cfg);
  bool saw_drop = false;
  for (const TraceEvent& e : sink.events()) {
    if (e.kind == EventKind::kMsgLost && e.src == 1 && e.dst == 0) {
      saw_drop = true;
    }
  }
  EXPECT_TRUE(saw_drop);
}

// ---------------------------------------------------------------------
// LogHistogram: the latency accumulator behind op.commit_ns/op.queue_ns.

TEST(LogHistogram, SmallValuesAreExactAndNegativesClampToZero) {
  LogHistogram h;
  for (long long v = 0; v < LogHistogram::kSub; ++v) h.record(v);
  h.record(-17);  // clamps to 0
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(LogHistogram::kSub + 1));
  EXPECT_EQ(h.max(), LogHistogram::kSub - 1);
  // Below kSub every bucket holds exactly one value, so quantiles are
  // exact: the median of {0, 0, 1, ..., 63} is 31.
  EXPECT_EQ(h.quantile(0.5), 31);
  EXPECT_EQ(h.quantile(1.0), h.max());
  EXPECT_EQ(h.quantile(0.0), 0);
}

TEST(LogHistogram, QuantileReturnsBucketLowerBound) {
  LogHistogram h;
  const long long v = 123456789;
  h.record(v);
  // One observation: every quantile is that value's deterministic
  // bucket representative, within the documented ~3% of the true value
  // -- except the max-covering quantile, which is exact.
  const long long lo = LogHistogram::bucket_lo(LogHistogram::bucket_of(
      static_cast<unsigned long long>(v)));
  EXPECT_LE(lo, v);
  EXPECT_GE(lo, static_cast<long long>(static_cast<double>(v) * 0.96));
  EXPECT_EQ(h.quantile(0.5), h.max());  // rank 1 covers the last observation
  EXPECT_EQ(h.quantile(1.0), v);
  EXPECT_EQ(h.sum(), v);
}

TEST(LogHistogram, MergeIsExactlyAssociativeAndEmptySafe) {
  const auto fill = [](LogHistogram& h, std::uint64_t seed) {
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      h.record(static_cast<long long>(rng.uniform_int(1u << 20)));
    }
  };
  LogHistogram a, b, c;
  fill(a, 1);
  fill(b, 2);
  fill(c, 3);
  LogHistogram left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  LogHistogram bc = b;     // a + (b + c)
  bc.merge(c);
  LogHistogram right = a;
  right.merge(bc);
  EXPECT_EQ(left, right);
  // Merging a never-touched histogram is the identity, both ways.
  LogHistogram empty;
  LogHistogram a2 = a;
  a2.merge(empty);
  EXPECT_EQ(a2, a);
  empty.merge(a);
  EXPECT_EQ(empty, a);
}

// ---------------------------------------------------------------------
// Span ids and the span/metrics JSONL encoding.

TEST(SpanId, PacksCoordinatesAndLabels) {
  const std::uint64_t id = make_span_id(span_kind::kMsg, 3, 0, 2);
  const SpanIdParts p = split_span_id(id);
  EXPECT_EQ(p.kind, span_kind::kMsg);
  EXPECT_EQ(p.a, 3u);
  EXPECT_EQ(p.b, 0u);
  EXPECT_EQ(p.c, 2u);
  EXPECT_EQ(span_label(id), "msg(k=3,0->2)");
  EXPECT_EQ(span_label(make_span_id(span_kind::kOp, 1, 2)), "op(c=1,rid=2)");
  EXPECT_EQ(span_label(make_span_id(span_kind::kInstance, 4)), "instance(4)");
  EXPECT_EQ(span_label(make_span_id(span_kind::kRound, 7, 1)),
            "round(k=7,at=1)");
  // Distinct kinds with equal coordinates never collide, and the id
  // stays within the positive range of the JSONL integer encoding.
  EXPECT_NE(id, make_span_id(span_kind::kRound, 3, 0, 2));
  EXPECT_GT(static_cast<long long>(make_span_id(span_kind::kMsg, 0xFFFFFFF,
                                                0xFFFF, 0xFFFF)),
            0);
}

std::vector<TraceEvent> span_one_of_each() {
  const std::uint64_t op = make_span_id(span_kind::kOp, 0, 1);
  const std::uint64_t q = make_span_id(span_kind::kQueue, 0, 1);
  const std::uint64_t cm = make_span_id(span_kind::kCommit, 0, 1);
  const std::uint64_t inst = make_span_id(span_kind::kInstance, 0);
  const std::uint64_t rs = make_span_id(span_kind::kRound, 1, 0);
  return {
      TraceEvent::span(span_phase::kBegin, op, 0, span_kind::kOp),
      TraceEvent::span(span_phase::kBegin, q, op, span_kind::kQueue, 0, 10),
      TraceEvent::span(span_phase::kEnd, q, 0, span_kind::kQueue, 0, 25),
      TraceEvent::span(span_phase::kBegin, cm, op, span_kind::kCommit),
      TraceEvent::span(span_phase::kBegin, inst, 0, span_kind::kInstance),
      TraceEvent::span(span_phase::kBegin, rs, inst, span_kind::kRound, 1),
      TraceEvent::span(span_phase::kEnd, rs, 0, span_kind::kRound, 1),
      TraceEvent::span(span_phase::kEnd, inst, 0, span_kind::kInstance),
      TraceEvent::span(span_phase::kCause, cm, inst, span_kind::kCommit),
      TraceEvent::span(span_phase::kEnd, cm, 0, span_kind::kCommit),
      TraceEvent::span(span_phase::kEnd, op, 0, span_kind::kOp),
      TraceEvent::metrics(0, 0, 5, 10, 20, 30, 40, 55),
      TraceEvent::metrics(0, 1, 5, 1, 2, 3, 4, 5),
  };
}

TEST(Jsonl, SpanAndMetricsEventsRoundTripLosslessly) {
  const std::vector<TraceEvent> events = span_one_of_each();
  std::ostringstream out;
  write_trace_header(out, 3);
  write_trial(out, 0, events);
  std::istringstream in(out.str());
  const ParsedTrace trace = parse_trace(in);
  ASSERT_EQ(trace.trials.size(), 1u);
  EXPECT_EQ(trace.trials[0].events, events);
  // Re-encoding is byte-identical (the golden-trace property extends to
  // the span schema).
  std::ostringstream again;
  write_trace_header(again, 3);
  write_trial(again, 0, trace.trials[0].events);
  EXPECT_EQ(out.str(), again.str());
}

/// Runs the strict parser on `text` and returns the error message, or ""
/// when it parsed cleanly — lets the negative tests pin the line number.
std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)parse_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Jsonl, SpanLifecycleErrorsAreLineAccurate) {
  const std::string header = "{\"schema\":\"timing-trace\",\"v\":1,\"n\":3}\n";
  const std::string trial = "{\"e\":\"trial\",\"id\":0}\n";
  const std::string begin =
      "{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"op\",\"sph\":\"begin\"}\n";
  const std::string end =
      "{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"op\",\"sph\":\"end\"}\n";

  // Lines 1-2 are header and trial marker, so the duplicated begin on
  // line 4 (and so on) must be named exactly.
  EXPECT_NE(parse_error(header + trial + begin + begin)
                .find("trace line 4: duplicate span begin for id 5"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial + end)
                .find("trace line 3: span end before begin for id 5"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial + begin + end + end)
                .find("trace line 5: duplicate span end for id 5"),
            std::string::npos);
  // The lifecycle map resets at each trial marker: a begin in trial 0
  // does not license an end in trial 1.
  EXPECT_NE(parse_error(header + trial + begin +
                        "{\"e\":\"trial\",\"id\":1}\n" + end)
                .find("span end before begin"),
            std::string::npos);
  // A cause edge after the cause span ended is legal (commit <- instance
  // edges are emitted after the instance completed).
  const std::string cause =
      "{\"e\":\"span\",\"k\":0,\"sp\":9,\"sk\":\"commit\",\"sph\":\"cause\","
      "\"pa\":5}\n";
  EXPECT_EQ(parse_error(header + trial + begin + end + cause), "");
}

TEST(Jsonl, RejectsMalformedSpanAndMetricsLines) {
  const std::string header = "{\"schema\":\"timing-trace\",\"v\":1,\"n\":3}\n";
  const std::string trial = "{\"e\":\"trial\",\"id\":0}\n";
  const auto bad = [&](const std::string& line, const char* why) {
    const std::string err = parse_error(header + trial + line + "\n");
    EXPECT_NE(err.find("trace line 3"), std::string::npos) << line;
    EXPECT_NE(err.find(why), std::string::npos) << line << "\n  got: " << err;
  };
  bad("{\"e\":\"span\",\"k\":0,\"sk\":\"op\",\"sph\":\"begin\"}",
      "missing field 'sp'");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":0,\"sk\":\"op\",\"sph\":\"begin\"}",
      "span id must be positive");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"warp\",\"sph\":\"begin\"}",
      "bad or missing span kind 'sk'");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"op\",\"sph\":\"during\"}",
      "bad or missing span phase 'sph'");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"op\",\"sph\":\"begin\","
      "\"pa\":0}",
      "span parent must be positive");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"op\",\"sph\":\"begin\","
      "\"t\":-3}",
      "negative span timestamp");
  bad("{\"e\":\"span\",\"k\":0,\"sp\":5,\"sk\":\"commit\",\"sph\":\"cause\"}",
      "cause edge without 'pa'");
  bad("{\"e\":\"metrics\",\"k\":0,\"m\":\"op.bogus_ns\",\"c\":1,\"p50\":1,"
      "\"p90\":1,\"p99\":1,\"p999\":1,\"max\":1}",
      "bad or missing metric name 'm'");
  bad("{\"e\":\"metrics\",\"k\":0,\"m\":\"op.commit_ns\",\"c\":0,\"p50\":1,"
      "\"p90\":1,\"p99\":1,\"p999\":1,\"max\":1}",
      "metrics count must be >= 1");
  bad("{\"e\":\"metrics\",\"k\":0,\"m\":\"op.commit_ns\",\"c\":1,\"p50\":-1,"
      "\"p90\":1,\"p99\":1,\"p999\":1,\"max\":1}",
      "negative metrics quantile");
  bad("{\"e\":\"metrics\",\"k\":0,\"m\":\"op.commit_ns\",\"c\":1,\"p50\":9,"
      "\"p90\":1,\"p99\":1,\"p999\":1,\"max\":1}",
      "metrics quantiles not monotone");
}

TEST(Jsonl, RejectsMalformedGeneralLines) {
  const std::string header = "{\"schema\":\"timing-trace\",\"v\":1,\"n\":3}\n";
  const std::string trial = "{\"e\":\"trial\",\"id\":0}\n";
  // Previously-untested strict-parser paths.
  EXPECT_NE(parse_error(header + header + trial).find("duplicate header"),
            std::string::npos);
  EXPECT_NE(parse_error(header + "round_start k=1\n")
                .find("not a JSON object"),
            std::string::npos);
  EXPECT_NE(parse_error(header + "{\"e\":\"trial\",\"id\":x}\n")
                .find("bad integer for 'id'"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial + "{\"e\":\"round_start\",\"k\":-1}\n")
                .find("'k' -1 out of range"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial + "{\"k\":1}\n")
                .find("missing event name"),
            std::string::npos);
  const std::string op_tail =
      ",\"f\":\"read\",\"key\":0,\"id\":0}\n";
  EXPECT_NE(parse_error(header + trial +
                        "{\"e\":\"op\",\"k\":1,\"p\":0,\"ph\":\"zap\"" +
                        op_tail)
                .find("bad or missing op phase 'ph'"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial +
                        "{\"e\":\"op\",\"k\":1,\"p\":0,\"ph\":\"ok\","
                        "\"f\":\"frob\",\"key\":0,\"id\":0}\n")
                .find("bad or missing op function 'f'"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial +
                        "{\"e\":\"op\",\"k\":1,\"p\":-1,\"ph\":\"ok\"" +
                        op_tail)
                .find("'p' -1 out of range"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial +
                        "{\"e\":\"op\",\"k\":1,\"p\":0,\"ph\":\"ok\","
                        "\"f\":\"read\",\"key\":-2,\"id\":0}\n")
                .find("'key' -2 out of range"),
            std::string::npos);
  EXPECT_NE(parse_error(header + trial +
                        "{\"e\":\"op\",\"k\":1,\"p\":0,\"ph\":\"ok\","
                        "\"f\":\"read\",\"key\":0,\"id\":-1}\n")
                .find("negative op id"),
            std::string::npos);
  // Blank and comment lines are skipped, not errors.
  EXPECT_EQ(parse_error(header + "\n# a comment\n" + trial +
                        "{\"e\":\"round_start\",\"k\":1}\n"),
            "");
}

TEST(Jsonl, RejectsIntegersOutsideTheirField) {
  // Trial id, round, delays, client id and op key are 32-bit event
  // fields: a wider value is an error on its line, never wrapped (2^32 + 1
  // used to read back as 1).
  const std::string header = "{\"schema\":\"timing-trace\",\"v\":1,\"n\":3}\n";
  const std::string trial = "{\"e\":\"trial\",\"id\":0}\n";
  const auto bad = [&](const std::string& lines, const char* why) {
    const std::string err = parse_error(header + lines);
    EXPECT_NE(err.find(why), std::string::npos) << lines << "\n  got: " << err;
  };
  bad("{\"e\":\"trial\",\"id\":4294967296}\n",
      "trace line 2: 'id' 4294967296 out of range");
  bad(trial +
          "{\"e\":\"late\",\"k\":4294967297,\"s\":0,\"d\":1,"
          "\"delay\":4294967298}\n",
      "trace line 3: 'k' 4294967297 out of range");
  bad(trial +
          "{\"e\":\"late\",\"k\":1,\"s\":0,\"d\":1,"
          "\"delay\":4294967298}\n",
      "trace line 3: 'delay' 4294967298 out of range");
  bad(trial + "{\"e\":\"late\",\"k\":1,\"s\":0,\"d\":1,\"delay\":0}\n",
      "trace line 3: 'delay' 0 out of range");
  bad(trial + "{\"e\":\"fault\",\"k\":1,\"fk\":3,\"delay\":4294967297}\n",
      "trace line 3: 'delay' 4294967297 out of range");
  bad(trial +
          "{\"e\":\"op\",\"k\":1,\"p\":4294967296,\"ph\":\"ok\","
          "\"f\":\"read\",\"key\":0,\"id\":0}\n",
      "trace line 3: 'p' 4294967296 out of range");
  bad(trial +
          "{\"e\":\"op\",\"k\":1,\"p\":0,\"ph\":\"ok\","
          "\"f\":\"read\",\"key\":2147483648,\"id\":0}\n",
      "trace line 3: 'key' 2147483648 out of range");
  // The field's own extremes still parse.
  EXPECT_EQ(parse_error(header + "{\"e\":\"trial\",\"id\":-2147483648}\n" +
                        "{\"e\":\"late\",\"k\":2147483647,\"s\":0,"
                        "\"d\":1,\"delay\":2147483647}\n"),
            "");
}

TEST(ValidateTrace, EnforcesSpanLifecycleOnStructs) {
  const std::uint64_t id = make_span_id(span_kind::kOp, 0, 1);
  const auto begin = TraceEvent::span(span_phase::kBegin, id, 0, span_kind::kOp);
  const auto end = TraceEvent::span(span_phase::kEnd, id, 0, span_kind::kOp);
  EXPECT_EQ(validate_trace(wrap({begin, end})), "");
  EXPECT_NE(validate_trace(wrap({begin, begin, end})), "");  // dup begin
  EXPECT_NE(validate_trace(wrap({end})), "");                // end first
  EXPECT_NE(validate_trace(wrap({begin, end, end})), "");    // dup end
  TraceEvent zero = begin;
  zero.span_id = 0;
  EXPECT_NE(validate_trace(wrap({zero})), "");
  TraceEvent bad_kind = begin;
  bad_kind.span_kind = span_kind::kNone;
  EXPECT_NE(validate_trace(wrap({bad_kind})), "");
  TraceEvent orphan_cause =
      TraceEvent::span(span_phase::kCause, id, 0, span_kind::kOp);
  EXPECT_NE(validate_trace(wrap({begin, orphan_cause, end})), "");
}

// ---------------------------------------------------------------------
// SpanTracer mechanics and the TIMING_SPANS knob.

TEST(SpanTracer, ModesGateEmissionAndTimestamps) {
  BufferSink sink;
  SpanTracer off(&sink, SpanMode::kOff);
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.begin(1, 0, span_kind::kOp), 0);
  EXPECT_TRUE(sink.events().empty());

  SpanTracer ids(&sink, SpanMode::kIds);
  EXPECT_TRUE(ids.enabled());
  EXPECT_FALSE(ids.timed());
  EXPECT_EQ(ids.begin(1, 0, span_kind::kOp), 0);
  EXPECT_EQ(ids.end(1, span_kind::kOp), 0);
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].t_ns, -1);  // ids mode: no timestamps
  sink.clear();

  SpanTracer timed(&sink, SpanMode::kTimed);
  EXPECT_TRUE(timed.timed());
  const long long t0 = timed.begin(2, 0, span_kind::kOp);
  const long long t1 = timed.end(2, span_kind::kOp);
  EXPECT_GE(t0, 0);
  EXPECT_GE(t1, t0);
  ASSERT_EQ(sink.events().size(), 2u);
  // The returned reading IS the recorded one — the property the
  // online-equals-offline latency check stands on.
  EXPECT_EQ(sink.events()[0].t_ns, t0);
  EXPECT_EQ(sink.events()[1].t_ns, t1);

  // Null-sink tracer disables regardless of mode.
  SpanTracer null_sink(nullptr, SpanMode::kTimed);
  EXPECT_FALSE(null_sink.enabled());
}

TEST(SpanTracer, ReadsTimingSpansEnvKnob) {
  ::unsetenv("TIMING_SPANS");
  EXPECT_EQ(span_mode_from_env(), SpanMode::kOff);
  ::setenv("TIMING_SPANS", "ids", 1);
  EXPECT_EQ(span_mode_from_env(), SpanMode::kIds);
  ::setenv("TIMING_SPANS", "timed", 1);
  EXPECT_EQ(span_mode_from_env(), SpanMode::kTimed);
  ::setenv("TIMING_SPANS", "sideways", 1);
  EXPECT_EQ(span_mode_from_env(), SpanMode::kOff);  // warn-once, off
  ::unsetenv("TIMING_SPANS");
  std::uint8_t k = 0;
  EXPECT_TRUE(span_kind_from_string("msg", k));
  EXPECT_EQ(k, span_kind::kMsg);
  EXPECT_FALSE(span_kind_from_string("", k));
}

TEST(SpanTracer, MetricsSnapshotIsTimedModeOnly) {
  SpanLatencies lat;
  lat.commit.record(100);
  lat.commit.record(200);

  BufferSink sink;
  SpanTracer ids(&sink, SpanMode::kIds);
  EXPECT_EQ(emit_metrics_snapshot(&ids, lat), 0);  // would break ids bytes
  EXPECT_TRUE(sink.events().empty());

  SpanTracer timed(&sink, SpanMode::kTimed);
  // Only op.commit_ns has data, so exactly one line appears.
  EXPECT_EQ(emit_metrics_snapshot(&timed, lat, /*seq=*/2), 1);
  ASSERT_EQ(sink.events().size(), 1u);
  const TraceEvent& e = sink.events()[0];
  EXPECT_EQ(e.kind, EventKind::kMetricsSnapshot);
  EXPECT_EQ(e.round, 2);
  EXPECT_EQ(e.op_key, 0);  // kSpanMetricNames index of op.commit_ns
  const LogHistogram& h = lat.commit;
  EXPECT_EQ(e.op_id, static_cast<long long>(h.count()));
  EXPECT_EQ(e.value, h.quantile(0.50));
  EXPECT_EQ(static_cast<long long>(e.span_id), h.max());
}

// ---------------------------------------------------------------------
// The live SMR path: client-harness spans, thread-count determinism and
// the acceptance property that offline latency rebuilds are EQUAL to
// the online latency record.

/// Fault-free instance environments (the history_test idiom): a
/// conforming schedule from round 1, independently seeded per instance.
InstanceEnvFactory span_env(const SmrClientConfig& cfg, std::uint64_t seed) {
  const int n = cfg.n;
  const ProcessId leader = cfg.leader;
  return [n, leader, seed](int index) {
    InstanceEnv env;
    ScheduleConfig scfg;
    scfg.n = n;
    scfg.model = TimingModel::kWlm;
    scfg.leader = leader;
    scfg.gsr = 1;
    scfg.seed = substream_seed(seed, static_cast<std::uint64_t>(index));
    env.sampler = std::make_unique<ScheduleSampler>(scfg);
    return env;
  };
}

struct SpannedRun {
  SmrClientReport rep;
  std::vector<TraceEvent> events;  ///< ops, then spans, then snapshots
  int n = 0;
};

/// Runs the serialized client harness, or the pipelined one at
/// pipeline=8 batch=4, over the fault-free environments above.
SmrClientReport run_span_clients(const SmrClientConfig& cfg, bool pipelined) {
  const InstanceEnvFactory env_of =
      span_env(cfg, substream_seed(cfg.seed, 99));
  if (!pipelined) return run_smr_clients(cfg, env_of);
  SmrPipelineConfig pcfg;
  pcfg.pipeline = 8;
  pcfg.batch = 4;
  return run_pipelined_smr_clients(
      cfg, pcfg,
      [env_of](int slot, int attempt) { return env_of(16 * slot + attempt); });
}

/// One client-harness trial with span tracing attached, events assembled
/// the way runners_history.cpp assembles them.
SpannedRun spanned_clients_run(SpanMode mode, std::uint64_t seed,
                               bool pipelined = false) {
  SpannedRun out;
  SmrClientConfig cfg;
  cfg.seed = seed;
  out.n = cfg.n;
  BufferSink sink;
  SpanTracer tracer(&sink, mode);
  cfg.spans = &tracer;
  out.rep = run_span_clients(cfg, pipelined);
  if (mode == SpanMode::kTimed) {
    emit_metrics_snapshot(&tracer, out.rep.latencies);
  }
  out.events = out.rep.events;
  out.events.insert(out.events.end(), sink.events().begin(),
                    sink.events().end());
  return out;
}

/// Serialize + strict-parse one SpannedRun into a single-trial trace.
ParsedTrace reparse(const SpannedRun& run) {
  std::ostringstream out;
  write_trace_header(out, run.n);
  write_trial(out, 0, run.events);
  std::istringstream in(out.str());
  return parse_trace(in);
}

TEST(SpanTrace, ClientOpsFormCausalTreesInIdsMode) {
  const SpannedRun run = spanned_clients_run(SpanMode::kIds, 3);
  ASSERT_GT(run.rep.ops_ok, 0);
  // ids mode records no latencies.
  EXPECT_TRUE(run.rep.latencies.commit.empty());
  EXPECT_TRUE(run.rep.latencies.queue.empty());

  const ParsedTrace trace = reparse(run);  // lifecycle-checked by parsing
  EXPECT_EQ(validate_trace(trace), "");
  const SpanIndex idx = index_spans(trace.trials[0]);
  EXPECT_FALSE(idx.timed);

  int ops = 0, commits_with_cause = 0;
  for (const auto& [id, rec] : idx.spans) {
    const SpanIdParts p = split_span_id(id);
    if (p.kind == span_kind::kOp) {
      ++ops;
      EXPECT_EQ(rec.parent, 0u);  // op spans are roots
      // Every op owns its queue child, keyed by the same (client, rid).
      const SpanRecord* q =
          idx.find(make_span_id(span_kind::kQueue, p.a, p.b));
      ASSERT_NE(q, nullptr) << span_label(id);
      EXPECT_EQ(q->parent, id);
    } else if (p.kind == span_kind::kCommit && !rec.causes.empty()) {
      ++commits_with_cause;
      // Commit spans are caused by the consensus instances the op was
      // proposed into — never by anything else.
      for (const std::uint64_t c : rec.causes) {
        EXPECT_EQ(split_span_id(c).kind, span_kind::kInstance)
            << span_label(id) << " <- " << span_label(c);
        EXPECT_NE(idx.find(c), nullptr);
      }
    }
  }
  EXPECT_GT(ops, 0);
  EXPECT_GT(commits_with_cause, 0);
  EXPECT_FALSE(render_span_trees(trace.trials[0], 3).empty());
}

TEST(SpanTrace, IdsModeBytesAreThreadCountInvariant) {
  // Both client harnesses: the serialized one and the pipelined one.
  const auto spanned_bytes = [](bool pipelined) {
    const auto trials = run_trials<std::string>(6, [&](std::size_t t) {
      SmrClientConfig cfg;
      cfg.seed = substream_seed(0x5eed, t);
      BufferSink sink;
      SpanTracer tracer(&sink, SpanMode::kIds);
      cfg.spans = &tracer;
      const SmrClientReport rep = run_span_clients(cfg, pipelined);
      std::vector<TraceEvent> events = rep.events;
      events.insert(events.end(), sink.events().begin(),
                    sink.events().end());
      std::ostringstream out;
      write_trial(out, static_cast<int>(t), events);
      return out.str();
    });
    std::string all;
    for (const std::string& s : trials) all += s;
    return all;
  };
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    std::string base;
    {
      ScopedThreads serial(1);
      base = spanned_bytes(pipelined);
    }
    ASSERT_NE(base.find("\"e\":\"span\""), std::string::npos);
    for (int threads : {2, 8}) {
      ScopedThreads st(threads);
      EXPECT_EQ(base, spanned_bytes(pipelined)) << "threads=" << threads;
    }
  }
}

// A committed pipelined probe read names the log slot that committed it,
// as a main-phase op does, so critpath follows its chain past its commit
// span.
TEST(SpanTrace, PipelinedProbeReadsNameTheirCommittingSlot) {
  const SpannedRun run = spanned_clients_run(SpanMode::kIds, 5, true);
  const ParsedTrace trace = reparse(run);
  const SpanIndex idx = index_spans(trace.trials[0]);
  const int clients = SmrClientConfig{}.clients;
  int probes = 0;
  for (const TraceEvent& e : run.rep.events) {
    if (e.op_phase != op_phase::kOk || e.proc < clients) continue;
    ++probes;
    const SpanRecord* commit = idx.find(make_span_id(
        span_kind::kCommit, static_cast<std::uint64_t>(e.proc),
        static_cast<std::uint64_t>(e.op_id)));
    ASSERT_NE(commit, nullptr) << "probe client " << e.proc;
    ASSERT_EQ(commit->causes.size(), 1u) << span_label(commit->id);
    EXPECT_EQ(split_span_id(commit->causes[0]).kind, span_kind::kSlot);
    EXPECT_NE(idx.find(commit->causes[0]), nullptr);
  }
  EXPECT_GT(probes, 0);
}

// The acceptance property, for both client harnesses: the percentiles
// trace_tool rebuilds from the recorded trace alone are the SAME numbers
// the online harness reported — histogram-for-histogram equality, not
// approximation.
void check_offline_latency_rebuild(const SpannedRun& run, bool pipelined) {
  ASSERT_GT(run.rep.ops_ok, 0);
  const LogHistogram& commit = run.rep.latencies.commit;
  const LogHistogram& queue = run.rep.latencies.queue;
  // Every ok op recorded exactly one commit-latency observation.
  EXPECT_EQ(commit.count(), static_cast<std::uint64_t>(run.rep.ops_ok));
  if (pipelined) {
    // A pipelined op leaves its queue the tick it is invoked; probe reads
    // open no queue span.
    const int clients = SmrClientConfig{}.clients;
    std::uint64_t main_invokes = 0;
    for (const TraceEvent& e : run.rep.events) {
      if (e.op_phase == op_phase::kInvoke && e.proc < clients) ++main_invokes;
    }
    EXPECT_EQ(queue.count(), main_invokes);
  } else {
    EXPECT_GE(queue.count(), commit.count());
  }

  const ParsedTrace trace = reparse(run);
  EXPECT_EQ(validate_trace(trace), "");
  const SpanIndex idx = index_spans(trace.trials[0]);
  EXPECT_TRUE(idx.timed);

  const SpanLatencies lat = rebuild_latencies(trace.trials[0]);
  EXPECT_EQ(lat.commit, commit);
  EXPECT_EQ(lat.queue, queue);
  EXPECT_EQ(latency_row(lat.commit), latency_row(commit));

  // The snapshot rows embedded in the trace agree with both.
  const std::map<int, LatencyRow> rows = snapshot_rows(trace.trials[0]);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.at(0), latency_row(commit));
  EXPECT_EQ(rows.at(1), latency_row(queue));

  // And the critpath report quotes the same percentile line.
  const std::string report = render_critpath(trace.trials[0], 3);
  std::ostringstream want;
  want << "op.commit_ns: n=" << commit.count();
  EXPECT_NE(report.find(want.str()), std::string::npos) << report;
}

TEST(SpanTrace, OfflineLatencyRebuildEqualsOnlineRegistryExactly) {
  for (const bool pipelined : {false, true}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "serialized");
    check_offline_latency_rebuild(
        spanned_clients_run(SpanMode::kTimed, 4, pipelined), pipelined);
  }
}

// ---------------------------------------------------------------------
// The live roundsync path: message spans ride the wire and come back as
// causality edges on the receiving node's round spans.

TEST(RoundSyncSpans, LiveMessageSpansCarryCausality) {
  constexpr int kNodes = 3;
  auto hub = std::make_shared<InProcHub>(kNodes);
  std::vector<BufferSink> sinks(kNodes);
  std::vector<RoundSyncResult> results(kNodes);
  std::vector<std::thread> threads;
  for (ProcessId i = 0; i < kNodes; ++i) {
    threads.emplace_back([&, i] {
      auto protocol = make_protocol(AlgorithmKind::kWlm, i, kNodes, 100 + i);
      DesignatedOracle oracle(0);
      InProcTransport transport(hub, i);
      SpanTracer tracer(&sinks[static_cast<std::size_t>(i)], SpanMode::kIds);
      RoundSyncConfig cfg;
      cfg.timeout_ms = 25.0;
      cfg.max_rounds = 200;
      cfg.spans = &tracer;
      cfg.parent_span = make_span_id(span_kind::kInstance, 0);
      RoundSyncRunner runner(*protocol, &oracle, transport, kNodes, cfg);
      results[static_cast<std::size_t>(i)] = runner.run();
    });
  }
  for (std::thread& t : threads) t.join();

  for (ProcessId i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(results[static_cast<std::size_t>(i)].decided) << "node " << i;
    // Each node's stream must be a valid single-trial span trace.
    std::ostringstream out;
    write_trace_header(out, kNodes);
    write_trial(out, i, sinks[static_cast<std::size_t>(i)].events());
    std::istringstream in(out.str());
    const ParsedTrace trace = parse_trace(in);
    EXPECT_EQ(validate_trace(trace), "");

    const SpanIndex idx = index_spans(trace.trials[0]);
    int rounds = 0, msgs = 0, causes = 0;
    for (const auto& [id, rec] : idx.spans) {
      const SpanIdParts p = split_span_id(id);
      if (p.kind == span_kind::kRound) {
        ++rounds;
        EXPECT_EQ(rec.parent, make_span_id(span_kind::kInstance, 0));
        EXPECT_EQ(p.b, static_cast<std::uint64_t>(i));  // our own rounds
        for (const std::uint64_t c : rec.causes) {
          ++causes;
          // A round's causes are the arriving envelopes' message spans:
          // msg ids pack (round, src, dst), so dst must be us and src a
          // peer — the id the SENDER minted crossed the wire intact.
          const SpanIdParts cp = split_span_id(c);
          EXPECT_EQ(cp.kind, span_kind::kMsg);
          EXPECT_EQ(cp.c, static_cast<std::uint64_t>(i));
          EXPECT_NE(cp.b, static_cast<std::uint64_t>(i));
        }
      } else if (p.kind == span_kind::kMsg) {
        ++msgs;
        // We only begin/end msg spans for envelopes we sent.
        EXPECT_EQ(p.b, static_cast<std::uint64_t>(i));
        EXPECT_TRUE(rec.complete());
      }
    }
    EXPECT_GT(rounds, 0) << "node " << i;
    EXPECT_GT(msgs, 0) << "node " << i;
    EXPECT_GT(causes, 0) << "node " << i;
  }
}

}  // namespace
}  // namespace timing
