// Tests for the scenario layer: spec validation, the shared override
// grammar, the registry, the results JSONL schema (round-trip + strict
// rejection), checked parsing, and the harness kernel's rejection of
// incoherent ExperimentConfigs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "harness/experiments.hpp"
#include "oracles/omega.hpp"
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
  EXPECT_EQ(s.fault_spec, "crash 1 @2; recover 1 @5; gsr @8");
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
  std::set<std::string> names, binaries;
  for (const Scenario& s : registry()) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_TRUE(binaries.insert(s.binary).second) << "duplicate " << s.binary;
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
  EXPECT_STREQ(find_scenario("fig1g")->binary, "fig1g_wan_rounds");
  ASSERT_NE(find_scenario("ablation/group_size"), nullptr);
  EXPECT_EQ(find_scenario("fig1z"), nullptr);
  EXPECT_EQ(find_scenario(""), nullptr);
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
