// Tests for the scenario layer: spec validation, the shared override
// grammar, the registry (and `timing_lab describe` over every entry), the
// results JSONL schema (round-trip + strict rejection), checked parsing,
// and the harness kernel's rejection of incoherent ExperimentConfigs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "fault/parser.hpp"
#include "harness/experiments.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "obs/trace_analysis.hpp"
#include "oracles/omega.hpp"
#include "scenario/cli.hpp"
#include "scenario/overrides.hpp"
#include "scenario/registry.hpp"
#include "scenario/results.hpp"
#include "scenario/spec.hpp"

namespace timing::scenario {
namespace {

// ---------------------------------------------------------------------------
// Checked parsing
// ---------------------------------------------------------------------------

TEST(ParseTest, IntAcceptsExactStringsOnly) {
  int v = -1;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int("-7", v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("12x", v));   // atoi would return 12
  EXPECT_FALSE(parse_int("x12", v));   // atoi would return 0
  EXPECT_FALSE(parse_int("1.5", v));
  EXPECT_FALSE(parse_int("99999999999999999999", v));  // overflow
}

TEST(ParseTest, U64RejectsNegatives) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ull);
  EXPECT_FALSE(parse_u64("-1", v));
  EXPECT_FALSE(parse_u64("abc", v));
}

TEST(ParseTest, DoubleRejectsTrailingGarbageAndNonFinite) {
  double v = 0;
  EXPECT_TRUE(parse_double("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_FALSE(parse_double("1.5.2", v));
  EXPECT_FALSE(parse_double("inf", v));
  EXPECT_FALSE(parse_double("nan", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(ParseTest, Lists) {
  std::vector<int> is;
  EXPECT_TRUE(parse_int_list("4,8,16", is));
  EXPECT_EQ(is, (std::vector<int>{4, 8, 16}));
  EXPECT_FALSE(parse_int_list("4,,8", is));
  EXPECT_FALSE(parse_int_list("", is));
  EXPECT_FALSE(parse_int_list("4,8,", is));
  std::vector<double> ds;
  EXPECT_TRUE(parse_double_list("140,200.5", ds));
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds[1], 200.5);
}

// ---------------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------------

ScenarioSpec wan_spec() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kWan;
  s.timeouts_ms = {140, 200};
  return s;
}

TEST(SpecTest, DefaultWanSpecIsValid) {
  EXPECT_EQ(validate(wan_spec()), "");
}

TEST(SpecTest, RejectsZeroRuns) {
  ScenarioSpec s = wan_spec();
  s.runs = 0;
  EXPECT_EQ(validate(s), "runs must be >= 1");
}

TEST(SpecTest, RejectsShortRuns) {
  ScenarioSpec s = wan_spec();
  s.rounds_per_run = 1;
  EXPECT_EQ(validate(s), "rounds_per_run must be >= 2");
}

TEST(SpecTest, RejectsEmptyTimeoutSweep) {
  ScenarioSpec s = wan_spec();
  s.timeouts_ms.clear();
  EXPECT_EQ(validate(s), "empty timeout sweep");
}

TEST(SpecTest, RejectsNonPositiveTimeouts) {
  ScenarioSpec s = wan_spec();
  s.timeouts_ms = {140, 0};
  EXPECT_EQ(validate(s), "timeouts_ms entries must be > 0");
}

TEST(SpecTest, RejectsOutOfRangeLeader) {
  ScenarioSpec s = wan_spec();
  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = s.n;  // one past the end
  EXPECT_EQ(validate(s), "leader out of range [0, n)");
  s.leader = -1;
  EXPECT_EQ(validate(s), "leader out of range [0, n)");
  s.leader = s.n - 1;
  EXPECT_EQ(validate(s), "");
}

TEST(SpecTest, RejectsProfileMismatchedN) {
  ScenarioSpec s = wan_spec();
  s.n = 5;  // the WAN profile has 8 sites
  EXPECT_NE(validate(s), "");
}

TEST(SpecTest, RejectsBadIidP) {
  ScenarioSpec s;
  s.sampler = SamplerKind::kIid;
  s.iid_p = 0.0;
  EXPECT_EQ(validate(s), "iid_p must be in (0, 1]");
  s.iid_p = 1.5;
  EXPECT_EQ(validate(s), "iid_p must be in (0, 1]");
}

TEST(SpecTest, RejectsBadDecisionRounds) {
  ScenarioSpec s = wan_spec();
  s.decision_rounds[2] = 0;
  EXPECT_EQ(validate(s), "decision_rounds entries must be >= 1");
}

TEST(SpecTest, DecisionWindowScenariosRejectRunsNoLongerThanAWindow) {
  // A run of rounds_per_run <= max(decision_rounds) rounds cannot hold a
  // decision window; the scenarios that measure windows must reject it
  // up front instead of tripping the window tracker's check, while the
  // ones that read rounds_per_run as a round cap keep accepting small
  // values.
  const std::set<std::string> windowed = {
      "fig1c", "fig1d", "fig1e", "fig1f", "fig1g", "fig1h", "fig1i",
      "ablation/group_size", "granular/fig1", "granular/ablation"};
  for (const Scenario& sc : registry()) {
    EXPECT_EQ(sc.decision_windows, windowed.count(sc.name) == 1) << sc.name;
    ScenarioSpec s = sc.defaults();
    s.rounds_per_run = 5;  // the default <>AFM window
    EXPECT_EQ(validate(sc, s),
              sc.decision_windows
                  ? "rounds_per_run must exceed the longest decision "
                    "window (5 rounds)"
                  : "")
        << sc.name;
    s.rounds_per_run = 6;
    EXPECT_EQ(validate(sc, s), "") << sc.name;
  }
  const Scenario& fig1g = *find_scenario("fig1g");
  ScenarioSpec s = fig1g.defaults();
  s.decision_rounds = {3, 3, 9, 5};
  s.rounds_per_run = 9;
  EXPECT_EQ(validate(fig1g, s),
            "rounds_per_run must exceed the longest decision window (9 "
            "rounds)");
  s.runs = 0;  // spec-level errors still come first
  EXPECT_EQ(validate(fig1g, s), "runs must be >= 1");
}

TEST(SpecTest, RandomFaultPlanScenariosNeedThreeProcesses) {
  // Random fault plans crash processes beyond a correct majority, so a
  // run that draws them needs n >= 3; a fixed fault= plan does not.
  const std::string err =
      "random fault plans need n >= 3 (a crash needs a spare process "
      "beyond the majority)";
  const std::set<std::string> random_plans = {
      "chaos/consensus", "chaos/single", "smr/linearizable",
      "adversary/search"};
  for (const Scenario& sc : registry()) {
    ScenarioSpec s = sc.defaults();
    if (s.sampler == SamplerKind::kLan || s.sampler == SamplerKind::kWan) {
      continue;  // n is pinned to the testbed profile
    }
    s.n = 2;
    EXPECT_EQ(validate(sc, s), random_plans.count(sc.name) ? err : "")
        << sc.name;
  }
  const Scenario& single = *find_scenario("chaos/single");
  ScenarioSpec s = single.defaults();
  s.n = 2;
  EXPECT_EQ(apply_override(s, "fault", "gsr @3"), "");
  EXPECT_EQ(validate(single, s), "");
  EXPECT_EQ(apply_override(s, "fault", ""), "");
  s.n = 3;
  EXPECT_EQ(validate(single, s), "");
}

TEST(SpecTest, RejectsBadGroupSizes) {
  ScenarioSpec s;
  s.sampler = SamplerKind::kAnalysis;
  s.group_sizes = {4, 1};
  EXPECT_EQ(validate(s), "group_sizes entries must be >= 2");
}

TEST(SpecTest, LoweringMapsLeaderPolicy) {
  ScenarioSpec s = wan_spec();
  ExperimentConfig cfg = to_experiment_config(s);
  EXPECT_EQ(cfg.leader, kNoProcess);
  EXPECT_EQ(cfg.testbed, Testbed::kWan);
  EXPECT_EQ(cfg.timeouts_ms, s.timeouts_ms);

  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = 3;
  EXPECT_EQ(to_experiment_config(s).leader, 3);

  s.leader_policy = LeaderPolicy::kAverage;
  const ProcessId avg = to_experiment_config(s).leader;
  EXPECT_GE(avg, 0);
  EXPECT_LT(avg, s.n);
  // The WAN default (the UK site) is the well-connected choice, not the
  // average one.
  EXPECT_EQ(avg, pick_average_leader(expected_rtt_matrix(to_experiment_config(
                     wan_spec()))));
}

// ---------------------------------------------------------------------------
// Override grammar
// ---------------------------------------------------------------------------

CliArgs apply(ScenarioSpec& spec, std::vector<std::string> argv_s) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("bench"));
  for (auto& s : argv_s) argv.push_back(s.data());
  return apply_cli_args(spec, static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(OverrideTest, AppliesScalarsAndLists) {
  ScenarioSpec s = wan_spec();
  const CliArgs a = apply(s, {"runs=2", "rounds_per_run=20", "seed=99",
                              "timeouts_ms=140,200", "iid_p=0.9",
                              "group_sizes=4,8", "decision_rounds=2,2,3,4"});
  EXPECT_TRUE(a.error.empty()) << a.error;
  EXPECT_FALSE(a.csv);
  EXPECT_EQ(s.runs, 2);
  EXPECT_EQ(s.rounds_per_run, 20);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.timeouts_ms, (std::vector<double>{140, 200}));
  EXPECT_DOUBLE_EQ(s.iid_p, 0.9);
  EXPECT_EQ(s.group_sizes, (std::vector<int>{4, 8}));
  EXPECT_EQ(s.decision_rounds, (std::array<int, kNumModels>{2, 2, 3, 4}));
}

TEST(OverrideTest, LeaderGrammar) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(apply(s, {"leader=3"}).error.empty());
  EXPECT_EQ(s.leader_policy, LeaderPolicy::kFixed);
  EXPECT_EQ(s.leader, 3);
  EXPECT_TRUE(apply(s, {"leader=average"}).error.empty());
  EXPECT_EQ(s.leader_policy, LeaderPolicy::kAverage);
  EXPECT_TRUE(apply(s, {"leader=default"}).error.empty());
  EXPECT_EQ(s.leader_policy, LeaderPolicy::kDefault);
  EXPECT_NE(apply(s, {"leader=boss"}).error, "");
}

TEST(OverrideTest, FlagsAndErrors) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(apply(s, {"--csv"}).csv);
  EXPECT_TRUE(apply(s, {"--help"}).help);
  EXPECT_TRUE(apply(s, {"-h"}).help);

  // Unknown arguments are rejected, not ignored.
  EXPECT_EQ(apply(s, {"--frobnicate"}).error,
            "unknown argument '--frobnicate'");
  EXPECT_EQ(apply(s, {"extra"}).error, "unknown argument 'extra'");
  // Unknown keys and malformed values are usage errors.
  EXPECT_NE(apply(s, {"bogus_key=3"}).error, "");
  EXPECT_NE(apply(s, {"runs=abc"}).error, "");
  EXPECT_NE(apply(s, {"runs=12x"}).error, "");  // atoi would accept this
  EXPECT_NE(apply(s, {"decision_rounds=3,3"}).error, "");  // arity 4
  EXPECT_NE(apply(s, {"timeouts_ms="}).error, "");
}

TEST(OverrideTest, FaultPlanValidatedWithTheSpec) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(
      apply(s, {"fault=crash 1 @2; recover 1 @5; gsr @8"}).error.empty());
  EXPECT_EQ(s.fault_spec.text(), "crash 1 @2; recover 1 @5; gsr @8");
  EXPECT_EQ(validate(s), "");

  // Malformed plans and plans that do not fit the spec's n are scenario
  // validation errors, reported with the parser's statement location.
  EXPECT_TRUE(apply(s, {"fault=crash 1 @2; crunch 3"}).error.empty());
  EXPECT_NE(validate(s).find("statement 2"), std::string::npos)
      << validate(s);
  EXPECT_TRUE(apply(s, {"fault=crash 99 @2; gsr @8"}).error.empty());
  EXPECT_NE(validate(s).find("out of range"), std::string::npos)
      << validate(s);
}

// The `fault=` override loads a plan file once, when it is applied:
// validate() and the run use that plan whatever later happens to the
// file.
TEST(OverrideTest, FaultPlanFileIsReadOnceWhenApplied) {
  const Scenario& single = *find_scenario("chaos/single");
  const std::string path = testing::TempDir() + "fault_override_plan.txt";
  const auto write = [&](const char* text) { std::ofstream(path) << text; };
  const auto run = [&](const ScenarioSpec& spec) {
    std::ostringstream out;
    RunContext ctx;
    ctx.out = &out;
    EXPECT_EQ(single.run(spec, ctx), 0);
    return out.str();
  };
  write("crash 1 @2\nrecover 1 @5\ngsr @7\n");
  ScenarioSpec spec = single.defaults();
  spec.runs = 4;
  ASSERT_EQ(apply_override(spec, "fault", path), "");
  ScenarioSpec inline_spec = spec;
  ASSERT_EQ(apply_override(inline_spec, "fault",
                           "crash 1 @2; recover 1 @5; gsr @7"),
            "");
  const std::string applied = run(inline_spec);

  // Another valid plan in the file.
  write("partition 0,1|2,3,4 @1..8\ngsr @9\n");
  EXPECT_EQ(validate(single, spec), "");
  EXPECT_EQ(run(spec), applied);

  // No file at all.
  std::remove(path.c_str());
  EXPECT_EQ(validate(single, spec), "");
  EXPECT_EQ(run(spec), applied);
}

// Only chaos/consensus, chaos/single, smr/linearizable and
// smr/throughput read a `fault=` plan; every other scenario rejects one
// instead of running as if it were not there.
TEST(SpecTest, OnlyTheFaultPlanReadersAcceptOne) {
  const std::set<std::string> readers = {"chaos/consensus", "chaos/single",
                                         "smr/linearizable",
                                         "smr/throughput"};
  for (const Scenario& sc : registry()) {
    ScenarioSpec s = sc.defaults();
    ASSERT_EQ(apply_override(s, "fault", "gsr @5"), "");
    EXPECT_EQ(validate(sc, s),
              readers.count(sc.name)
                  ? ""
                  : "fault= is read only by chaos/consensus, chaos/single, "
                    "smr/linearizable, smr/throughput")
        << sc.name;
  }
}

TEST(OverrideTest, PipelineBatchAndProfile) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(apply(s, {"pipeline=8", "batch=4"}).error.empty());
  EXPECT_EQ(s.pipeline, 8);
  EXPECT_EQ(s.batch, 4);
  // Zero is rejected at validation, not parse, time.
  EXPECT_TRUE(apply(s, {"pipeline=0"}).error.empty());
  EXPECT_NE(validate(s), "");
  s = wan_spec();
  EXPECT_TRUE(apply(s, {"batch=0"}).error.empty());
  EXPECT_NE(validate(s), "");

  // profile= swaps the whole testbed: sampler kind, group size, timeout.
  s = wan_spec();
  EXPECT_TRUE(apply(s, {"profile=lan"}).error.empty());
  EXPECT_EQ(s.sampler, SamplerKind::kLan);
  EXPECT_EQ(s.n, s.lan.n);
  EXPECT_EQ(s.timeouts_ms, (std::vector<double>{0.2}));
  EXPECT_TRUE(apply(s, {"profile=wan"}).error.empty());
  EXPECT_EQ(s.sampler, SamplerKind::kWan);
  EXPECT_EQ(s.n, s.wan.n);
  EXPECT_EQ(s.timeouts_ms, (std::vector<double>{200}));
  EXPECT_NE(apply(s, {"profile=metro"}).error, "");
}

TEST(OverrideTest, RejectsDuplicateKeys) {
  ScenarioSpec s = wan_spec();
  // The last write would silently win without the check; the error names
  // both argument positions so the offender is easy to find in a long
  // command line.
  const CliArgs a = apply(s, {"runs=2", "seed=7", "runs=3"});
  EXPECT_EQ(a.error,
            "duplicate override 'runs=3' (argument 3): "
            "'runs=' was already set by argument 1");
  // Distinct keys and repeated flags stay fine.
  EXPECT_TRUE(apply(s, {"runs=2", "rounds_per_run=20"}).error.empty());
  EXPECT_TRUE(apply(s, {"--csv", "--csv", "runs=2"}).error.empty());
}

TEST(OverrideTest, LinkModelKeys) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(apply(s, {"link_models=sync:all;async:0->2"}).error.empty());
  EXPECT_EQ(s.link_models, "sync:all;async:0->2");
  EXPECT_EQ(validate(s), "");

  EXPECT_TRUE(apply(s, {"async_fracs=0,0.25,0.5", "psync_frac=0.3"})
                  .error.empty());
  EXPECT_EQ(s.async_fracs, (std::vector<double>{0, 0.25, 0.5}));
  EXPECT_DOUBLE_EQ(s.psync_frac, 0.3);
  EXPECT_EQ(validate(s), "");
}

TEST(SpecTest, RejectsBadLinkModels) {
  ScenarioSpec s = wan_spec();
  // The matrix spec is parsed at validation time, against the spec's n.
  s.link_models = "sync:all;turbo:0->1";
  EXPECT_NE(validate(s).find("bad link_models"), std::string::npos)
      << validate(s);
  s.link_models = "async:0->99";  // out of range for n = 8
  EXPECT_NE(validate(s).find("bad link_models"), std::string::npos)
      << validate(s);
  s.link_models = "sync:all";
  EXPECT_EQ(validate(s), "");

  s = wan_spec();
  s.async_fracs = {0.5, 1.5};
  EXPECT_EQ(validate(s), "async_fracs entries must be in [0, 1]");
  s = wan_spec();
  s.psync_frac = -0.1;
  EXPECT_EQ(validate(s), "psync_frac must be in [0, 1]");
}

TEST(OverrideTest, AlgorithmKeys) {
  ScenarioSpec s = wan_spec();
  EXPECT_TRUE(apply(s, {"algorithm=paxos"}).error.empty());
  EXPECT_EQ(s.algorithm, AlgorithmKind::kPaxos);
  for (AlgorithmKind k : all_algorithm_kinds()) {
    AlgorithmKind parsed{};
    EXPECT_TRUE(parse_algorithm_kind(algorithm_key(k), parsed));
    EXPECT_EQ(parsed, k);
  }
  EXPECT_NE(apply(s, {"algorithm=raft"}).error, "");
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(RegistryTest, HasAllScenariosWithUniqueNames) {
  EXPECT_GE(registry().size(), 15u);
  std::set<std::string> names;
  for (const Scenario& s : registry()) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
  }
  // Mirrors tm_smoke_scenarios in tests/CMakeLists.txt: a new entry must
  // also get a `ctest -L scenario` smoke run.
  const std::set<std::string> expected{
      "fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "fig1g",
      "fig1h", "fig1i", "appc", "ablation/paxos_recovery",
      "ablation/algorithms_live", "ablation/window_formula",
      "ablation/simulation_cost", "ablation/group_size",
      "ablation/smr_cost", "granular/fig1", "granular/ablation",
      "chaos/consensus", "chaos/single",
      "adversary/search", "chaos/regression",
      "smr/linearizable", "smr/throughput"};
  EXPECT_EQ(names, expected);
}

TEST(RegistryTest, EveryDefaultSpecValidates) {
  for (const Scenario& s : registry()) {
    EXPECT_EQ(validate(s.defaults()), "") << s.name;
  }
}

TEST(RegistryTest, FindScenario) {
  ASSERT_NE(find_scenario("fig1g"), nullptr);
  ASSERT_NE(find_scenario("ablation/group_size"), nullptr);
  EXPECT_EQ(find_scenario("fig1z"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
}

TEST(RegistryTest, EveryScenarioDescribes) {
  for (const Scenario& sc : registry()) {
    std::string name = sc.name;
    std::string cmd = "describe";
    std::string prog = "timing_lab";
    char* argv[] = {prog.data(), cmd.data(), name.data()};
    std::ostringstream out;
    std::streambuf* const saved = std::cout.rdbuf(out.rdbuf());
    const int rc = lab_main(3, argv);
    std::cout.rdbuf(saved);
    EXPECT_EQ(rc, 0) << sc.name;
    EXPECT_NE(out.str().find(sc.description), std::string::npos) << sc.name;
  }
}

TEST(RegistryTest, FigureDefaultsMatchThePaper) {
  const Scenario* g = find_scenario("fig1g");
  ASSERT_NE(g, nullptr);
  const ScenarioSpec s = g->defaults();
  EXPECT_EQ(s.runs, 33);
  EXPECT_EQ(s.rounds_per_run, 300);
  EXPECT_EQ(s.start_points, 15);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_TRUE(s.honor_env_runs);
  EXPECT_EQ(s.timeouts_ms.size(), 12u);
}

TEST(RunnerTest, WanSweepCaptionsStateTheSampleSize) {
  // The fig1d / fig1e captions (also the results JSONL table captions)
  // report the spec's own sample size, not the paper default's.
  const std::pair<const char*, const char*> cases[] = {
      {"fig1d", "(8 PlanetLab-profile sites, 2 runs x 20 rounds)"},
      {"fig1e", "(mean over 2 runs, 95% CI)"}};
  for (const auto& [name, caption] : cases) {
    const Scenario& sc = *find_scenario(name);
    ScenarioSpec spec = sc.defaults();
    spec.runs = 2;
    spec.rounds_per_run = 20;
    std::ostringstream out;
    RunContext ctx;
    ctx.out = &out;
    ASSERT_EQ(sc.run(spec, ctx), 0) << name;
    EXPECT_NE(out.str().find(caption), std::string::npos)
        << name << ":\n" << out.str();
  }
}

// The one trace path: the trace ablation/group_size and smr/linearizable
// (ids spans) collect through RunContext::trace, laid out by write_trace,
// is a valid trace with the same bytes at 1 and 4 threads. Each trial
// fills its own sink on a pool thread, which puts this suite in the tsan
// subset.
TEST(RunnerTest, CollectedTraceBytesAreThreadCountInvariant) {
  const auto traced = [](const char* name, std::string shape,
                          int threads) {
    const Scenario& sc = *find_scenario(name);
    ScenarioSpec spec = sc.defaults();
    char* argv[] = {shape.data()};
    EXPECT_EQ(apply_cli_args(spec, 1, argv, 0).error, "");
    std::ostringstream tables;
    std::vector<TrialTrace> trials;
    RunContext ctx;
    ctx.out = &tables;
    ctx.trace = &trials;
    ctx.spans = SpanMode::kIds;
    ScopedThreads st(threads);
    EXPECT_EQ(sc.run(spec, ctx), 0) << name;
    std::ostringstream bytes;
    write_trace(bytes, trials);
    return bytes.str();
  };
  const std::pair<const char*, const char*> cases[] = {
      {"ablation/group_size", "rounds_per_run=50"},
      {"smr/linearizable", "runs=6"}};
  for (const auto& [name, shape] : cases) {
    const std::string serial = traced(name, shape, 1);
    std::istringstream in(serial);
    const ParsedTrace trace = parse_trace(in);
    EXPECT_FALSE(trace.trials.empty()) << name;
    EXPECT_EQ(validate_trace(trace), "") << name;
    EXPECT_EQ(serial, traced(name, shape, 4)) << name;
  }
}

// ---------------------------------------------------------------------------
// Chaos replay lines
// ---------------------------------------------------------------------------

/// The words a shell makes of a printed command: blanks separate them,
/// double quotes group (and are dropped).
std::vector<std::string> shell_words(const std::string& cmd) {
  std::vector<std::string> words;
  std::string word;
  bool quoted = false;
  bool in_word = false;
  for (char c : cmd) {
    if (c == '"') {
      quoted = !quoted;
      in_word = true;
    } else if (c == ' ' && !quoted) {
      if (in_word) words.push_back(word);
      word.clear();
      in_word = false;
    } else {
      word += c;
      in_word = true;
    }
  }
  if (in_word) words.push_back(word);
  return words;
}

struct LabRun {
  int rc = 0;
  std::string out;
};

/// `timing_lab <words...>` (words[0] is the program name), stdout kept.
LabRun run_lab(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  std::ostringstream out;
  std::streambuf* const saved = std::cout.rdbuf(out.rdbuf());
  LabRun r;
  r.rc = lab_main(static_cast<int>(argv.size()), argv.data());
  std::cout.rdbuf(saved);
  r.out = out.str();
  return r;
}

// A chaos trial's replay command, fed back to timing_lab, re-runs that
// trial: same verdict, same decision round. The trial differs from
// replay's defaults in its round cap, its granular matrix and a pre-gsr
// p that two decimals would not keep.
TEST(ChaosReplayTest, ReplayCommandRerunsTheTrial) {
  fault::ChaosTrialConfig cfg;
  cfg.n = 5;
  cfg.leader = 1;
  cfg.seed = substream_seed(0xc4a05, 7);
  cfg.pre_gsr_p = 0.3725;
  ASSERT_EQ(parse_link_models("sync:all;psync:0->2;async:3->4", cfg.n,
                              cfg.link_models),
            "");
  const fault::ParseResult pr = fault::parse_fault_plan(
      "crash 2 @2; recover 2 @5; drop 0->1 @3..6 p=0.35; gsr @7");
  ASSERT_TRUE(pr.ok()) << pr.error;
  cfg.plan = pr.plan;
  for (AlgorithmKind kind : {AlgorithmKind::kWlm, AlgorithmKind::kPaxos}) {
    cfg.max_rounds = fault::round_cap(kind, cfg.plan.gsr, 20);
    const fault::ChaosRunResult r = fault::run_chaos_algorithm(kind, cfg);
    const std::string cmd = fault::replay_command(kind, cfg);
    EXPECT_NE(cmd.find(" iid_p=0.3725 "), std::string::npos) << cmd;
    EXPECT_NE(cmd.find(" rounds_per_run="), std::string::npos) << cmd;
    EXPECT_NE(cmd.find(" link_models=\""), std::string::npos) << cmd;
    const LabRun lab = run_lab(shell_words(cmd));
    EXPECT_EQ(lab.rc, r.ok() ? 0 : 1) << cmd << "\n" << lab.out;
    EXPECT_NE(lab.out.find("decided at round " +
                           std::to_string(r.global_decision_round) + " "),
              std::string::npos)
        << cmd << "\n" << lab.out;
  }
}

// The same through printed reports: ROADMAP item 1's afm5 plan misses
// its bound on some trials of this run (at rounds_per_run and iid_p
// other than replay's defaults), and each report's replay line must
// give back its verdict and decision round. Once afm5 keeps its bound
// there is no report to replay, and the case skips.
TEST(ChaosReplayTest, ViolationReportsReplayTheirTrial) {
  const Scenario& single = *find_scenario("chaos/single");
  ScenarioSpec spec = single.defaults();
  for (const char* arg : {"algorithm=afm5", "runs=300", "seed=2",
                          "iid_p=0.37", "rounds_per_run=20"}) {
    ASSERT_EQ(apply(spec, {arg}).error, "") << arg;
  }
  ASSERT_EQ(apply_override(spec, "fault", "partition 0,1,2|3,4 @1..6; gsr @7"),
            "");
  ASSERT_EQ(validate(single, spec), "");
  std::ostringstream out;
  RunContext ctx;
  ctx.out = &out;
  const int rc = single.run(spec, ctx);
  std::istringstream lines(out.str());
  std::string verdict;
  std::string decided_at;
  int replayed = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("chaos violation: ", 0) == 0) {
      verdict = line.rfind("chaos violation: liveness", 0) == 0 ? "liveness"
                                                                 : "safety";
      const std::size_t at = line.find("decided_at=") + 11;
      decided_at = line.substr(at, line.find(' ', at) - at);
    }
    if (line.rfind("replay: ", 0) != 0) continue;
    const LabRun lab = run_lab(shell_words(line.substr(8)));
    EXPECT_EQ(lab.rc, 1) << line;
    EXPECT_NE(lab.out.find("verdict: " + verdict + "\n"), std::string::npos)
        << line << "\n" << lab.out;
    EXPECT_NE(lab.out.find("decided at round " + decided_at + " "),
              std::string::npos)
        << line << "\n" << lab.out;
    ++replayed;
  }
  EXPECT_EQ(rc, replayed > 0 ? 1 : 0);
  if (replayed == 0) GTEST_SKIP() << "no chaos violation to replay";
}

/// One trial's report in smr/linearizable's output: from its "trial t ("
/// line up to and including its replay line; "" if there is none.
std::string smr_trial_report(const std::string& out, int t) {
  const std::size_t at = out.find("\ntrial " + std::to_string(t) + " (");
  if (at == std::string::npos) return "";
  const std::size_t replay = out.find("\nreplay: ", at + 1);
  if (replay == std::string::npos) return "";
  return out.substr(at + 1, out.find('\n', replay + 1) - at);
}

/// smr/linearizable's header line without its trial count.
std::string smr_header_settings(const std::string& out) {
  const std::string header = out.substr(0, out.find('\n'));
  const std::size_t trials = header.find(" trials, ");
  return trials == std::string::npos ? header : header.substr(trials);
}

// smr/linearizable's replay line, fed back to timing_lab, re-runs the
// reported trial under the same configuration: every setting below
// differs from the scenario's defaults.
TEST(SmrReplayTest, ReplayLineRerunsTheReportedTrial) {
  const LabRun run = run_lab(
      {"timing_lab", "run", "smr/linearizable", "--no-jsonl", "runs=3",
       "corrupt=stale", "n=4", "algorithm=paxos", "leader=1", "iid_p=0.3725",
       "clients=8", "reg_keys=3", "append_keys=2", "rounds_per_run=70"});
  EXPECT_EQ(run.rc, 1) << run.out;
  const std::string report = smr_trial_report(run.out, 1);
  ASSERT_NE(report, "") << run.out;
  const std::size_t replay = report.find("replay: ");
  const std::string line =
      report.substr(replay + 8, report.find('\n', replay) - replay - 8);
  EXPECT_NE(run.out.find(report + "(it re-runs trials 0..1, this one last)"),
            std::string::npos)
      << run.out;

  std::vector<std::string> words = shell_words(line);
  words.push_back("--no-jsonl");
  const LabRun again = run_lab(words);
  EXPECT_EQ(again.rc, 1) << line << "\n" << again.out;
  EXPECT_EQ(smr_trial_report(again.out, 1), report) << line;
  EXPECT_EQ(smr_header_settings(again.out), smr_header_settings(run.out))
      << line;
}

// ---------------------------------------------------------------------------
// Results JSONL
// ---------------------------------------------------------------------------

TEST(ResultsTest, RoundTrip) {
  std::stringstream ss;
  ResultWriter w(ss, "fig1g");
  w.add_table("caption with \"quotes\" and\nnewline", {"a", "b"},
              {{"1", "2"}, {"3", ">=4"}});
  w.add_table("second", {"x"}, {});
  w.finish();
  EXPECT_EQ(w.tables(), 2);
  EXPECT_EQ(w.rows(), 2);

  const ParsedResults r = parse_results(ss);
  EXPECT_EQ(r.version, kResultsSchemaVersion);
  EXPECT_EQ(r.scenario, "fig1g");
  ASSERT_EQ(r.tables.size(), 2u);
  EXPECT_EQ(r.tables[0].caption, "caption with \"quotes\" and\nnewline");
  EXPECT_EQ(r.tables[0].cols, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r.tables[0].rows.size(), 2u);
  EXPECT_EQ(r.tables[0].rows[1], (std::vector<std::string>{"3", ">=4"}));
  EXPECT_TRUE(r.tables[1].rows.empty());
  EXPECT_EQ(r.total_rows(), 2);
}

std::string valid_results() {
  return
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"table\",\"id\":0,\"caption\":\"c\",\"cols\":[\"a\",\"b\"]}\n"
      "{\"e\":\"row\",\"id\":0,\"v\":[\"1\",\"2\"]}\n"
      "{\"e\":\"end\",\"tables\":1,\"rows\":1}\n";
}

void expect_rejects(const std::string& text, const char* why) {
  std::stringstream ss(text);
  EXPECT_THROW(parse_results(ss), std::runtime_error) << why;
}

TEST(ResultsTest, AcceptsTheReferenceFile) {
  std::stringstream ss(valid_results());
  const ParsedResults r = parse_results(ss);
  EXPECT_EQ(r.scenario, "x");
  EXPECT_EQ(r.total_rows(), 1);
}

TEST(ResultsTest, StrictRejections) {
  expect_rejects("", "empty file");
  expect_rejects("{\"e\":\"end\",\"tables\":0,\"rows\":0}\n",
                 "record before header");
  // Truncation: no end marker.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n",
      "missing end");
  // Duplicate header.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n",
      "duplicate header");
  // Unsupported version.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":2,\"scenario\":\"x\"}\n",
      "future version");
  // Unknown record kind.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"blob\"}\n",
      "unknown record");
  // Row for a table that was never declared.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"row\",\"id\":0,\"v\":[\"1\"]}\n",
      "row before table");
  // Row arity != column count.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"table\",\"id\":0,\"caption\":\"c\",\"cols\":[\"a\",\"b\"]}\n"
      "{\"e\":\"row\",\"id\":0,\"v\":[\"1\"]}\n"
      "{\"e\":\"end\",\"tables\":1,\"rows\":1}\n",
      "arity mismatch");
  // End marker counts must match.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"end\",\"tables\":3,\"rows\":0}\n",
      "end mismatch");
  // Nothing may follow the end marker.
  expect_rejects(valid_results() + "{\"e\":\"end\",\"tables\":1,\"rows\":1}\n",
                 "content after end");
  // Non-sequential table ids.
  expect_rejects(
      "{\"schema\":\"timing-lab-results\",\"v\":1,\"scenario\":\"x\"}\n"
      "{\"e\":\"table\",\"id\":1,\"caption\":\"c\",\"cols\":[\"a\"]}\n"
      "{\"e\":\"end\",\"tables\":1,\"rows\":0}\n",
      "non-sequential ids");
}

TEST(ResultsTest, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# a comment\n\n" + valid_results());
  EXPECT_EQ(parse_results(ss).total_rows(), 1);
}

// ---------------------------------------------------------------------------
// Harness kernel rejection (TM_CHECK aborts)
// ---------------------------------------------------------------------------

using ExperimentDeathTest = ::testing::Test;

TEST(ExperimentDeathTest, RejectsZeroRuns) {
  ExperimentConfig cfg;
  cfg.timeouts_ms = {140};
  cfg.runs = 0;
  EXPECT_DEATH(run_experiment(cfg), "bad run shape");
}

TEST(ExperimentDeathTest, RejectsEmptyTimeoutSweep) {
  ExperimentConfig cfg;
  EXPECT_DEATH(run_experiment(cfg), "no timeouts configured");
}

TEST(ExperimentDeathTest, RejectsOutOfRangeLeader) {
  ExperimentConfig cfg;
  cfg.timeouts_ms = {140};
  cfg.runs = 1;
  cfg.rounds_per_run = 2;
  cfg.leader = 8;  // WAN profile has sites 0..7
  EXPECT_DEATH(run_experiment(cfg), "leader out of range");
}

TEST(ScenarioDeathTest, RunExperimentValidatesFirst) {
  ScenarioSpec s = wan_spec();
  s.runs = 0;
  EXPECT_DEATH(scenario::run_experiment(s), "runs must be >= 1");
}

// ---------------------------------------------------------------------------
// TIMING_RUNS handling
// ---------------------------------------------------------------------------

TEST(EnvRunsTest, ParsesValidOverridesAndKeepsDefaultOtherwise) {
  // Warn-once is a static; the return values are what matters here.
  ::setenv("TIMING_RUNS", "7", 1);
  EXPECT_EQ(runs_or_default(33), 7);
  ::setenv("TIMING_RUNS", "abc", 1);
  EXPECT_EQ(runs_or_default(33), 33);
  ::setenv("TIMING_RUNS", "12x", 1);  // strtol would have said 12
  EXPECT_EQ(runs_or_default(33), 33);
  ::setenv("TIMING_RUNS", "0", 1);
  EXPECT_EQ(runs_or_default(33), 33);
  ::setenv("TIMING_RUNS", "200001", 1);
  EXPECT_EQ(runs_or_default(33), 100000);
  ::unsetenv("TIMING_RUNS");
  EXPECT_EQ(runs_or_default(33), 33);
}

}  // namespace
}  // namespace timing::scenario
