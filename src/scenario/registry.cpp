// Scenario registry: the paper's figures, the appendix, and our
// ablations, each with the default (paper) parameters the former bench
// mains hardcoded. Keep the defaults in sync with EXPERIMENTS.md — the
// golden tests pin the default stdout of the fig1c/fig1g entries.
#include "scenario/registry.hpp"

#include <algorithm>

#include "scenario/runners.hpp"

namespace timing::scenario {

namespace {

// -- Figure sweeps -----------------------------------------------------

ScenarioSpec analysis_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kAnalysis;
  s.n = 8;
  return s;
}

// bench_util.hpp's wan_config(): the paper's WAN methodology.
ScenarioSpec wan_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kWan;
  s.timeouts_ms = {140, 150, 160, 170, 180, 190, 200,
                   210, 230, 260, 300, 350};
  s.runs = 33;            // the paper's repetition count
  s.rounds_per_run = 300;  // the paper's run length
  s.start_points = 15;     // the paper's random starting points
  s.seed = 42;
  s.honor_env_runs = true;
  return s;
}

// bench_util.hpp's lan_config().
ScenarioSpec lan_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kLan;
  s.timeouts_ms = {0.1, 0.15, 0.2, 0.25, 0.35, 0.5, 0.7, 0.9, 1.2, 1.6};
  s.runs = 25;
  s.rounds_per_run = 300;
  s.seed = 7;
  s.honor_env_runs = true;
  return s;
}

ScenarioSpec fig1i_defaults() {
  ScenarioSpec s = wan_defaults();
  s.timeouts_ms = {140, 150, 160, 165, 170, 175, 180, 190,
                   200, 210, 220, 230, 250, 270, 300};
  return s;
}

ScenarioSpec appc_defaults() {
  ScenarioSpec s = analysis_defaults();
  s.iid_p = 0.95;
  s.group_sizes = {4, 8, 16, 32, 64, 128, 256, 512};
  return s;
}

// -- Ablations ---------------------------------------------------------

ScenarioSpec paxos_recovery_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.runs = 1;  // the adversarial schedule is deterministic
  s.group_sizes = {5, 7, 9, 11, 13, 15, 21, 31};
  return s;
}

ScenarioSpec algorithms_live_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kWan;
  s.timeouts_ms = {160, 200, 260};
  s.runs = 60;             // consensus instances per (algorithm, timeout)
  s.rounds_per_run = 400;  // round cap per instance
  s.seed = 0x1234;
  return s;
}

ScenarioSpec window_formula_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kIid;
  s.runs = 20000;  // Monte-Carlo trials per grid cell
  s.seed = 20240707;
  return s;
}

ScenarioSpec simulation_cost_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.runs = 1;              // stable schedules are deterministic per seed
  s.rounds_per_run = 200;  // round cap per protocol option
  s.seed = 77;
  s.group_sizes = {8, 16, 32};
  return s;
}

ScenarioSpec group_size_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kIid;
  s.iid_p = 0.95;
  s.runs = 1;               // one measurement run per group size
  s.rounds_per_run = 4000;  // run length (censoring horizon)
  s.start_points = 40;
  s.seed = 0xabc;
  s.group_sizes = {4, 6, 8, 12, 16, 24, 32, 48};
  return s;
}

// -- Granular (per-link timing models) ---------------------------------

ScenarioSpec granular_fig1_defaults() {
  ScenarioSpec s = wan_defaults();
  // One PlanetLab-style site (node 7) whose outgoing links carry no
  // timing obligations, and a flaky inbound path to node 6 downgraded to
  // partial synchrony. Override with link_models=SPEC.
  s.link_models = "sync:all;psync:*->6;async:7->*";
  return s;
}

ScenarioSpec granular_ablation_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kIid;
  s.n = 8;
  s.iid_p = 0.95;
  s.runs = 20;              // measurement runs per sweep point
  s.rounds_per_run = 1000;  // rounds per run
  s.start_points = 15;
  s.seed = 0x9a41;
  s.async_fracs = {0.0, 0.05, 0.1, 0.2, 0.3, 0.5};
  s.psync_frac = 0.25;  // psync share of the remaining links
  return s;
}

// -- Chaos (fault-injection safety harness) ----------------------------

ScenarioSpec chaos_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.n = 5;
  s.iid_p = 0.4;  // pre-gsr per-link timeliness under the faults
  s.runs = 200;   // fault plans (one fresh seeded plan per trial)
  s.rounds_per_run = 80;  // floor for the round cap (bound-extended)
  s.seed = 0xc4a05;
  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = 0;
  return s;
}

ScenarioSpec adversary_search_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.n = 5;
  s.iid_p = 0.4;  // pre-gsr per-link timeliness under the faults
  s.runs = 5;     // chaos executions averaged per candidate evaluation
  s.rounds_per_run = 80;  // floor for the per-evaluation round cap
  s.seed = 0xad5e7;
  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = 0;
  s.algorithm = AlgorithmKind::kPaxos;  // no constant bound: most headroom
  s.budget = 2000;
  s.baseline = 2000;
  return s;
}

ScenarioSpec chaos_regression_defaults() {
  ScenarioSpec s = adversary_search_defaults();
  s.archive = "tests/golden/adversary";
  return s;
}

ScenarioSpec smr_linearizable_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.n = 5;
  s.iid_p = 0.4;  // pre-gsr per-link timeliness under the faults
  s.runs = 200;   // seeded trials (fresh fault plans per instance)
  s.rounds_per_run = 60;  // floor for the per-instance round cap
  s.seed = 0x115ab1e;
  s.leader_policy = LeaderPolicy::kFixed;
  s.leader = 0;
  return s;
}

ScenarioSpec smr_throughput_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kWan;  // profile=lan switches testbeds
  s.n = 8;
  s.timeouts_ms = {200};  // round timeout = one virtual tick
  s.runs = 5;             // independent seeded trials
  s.rounds_per_run = 64;  // submission ticks per trial
  s.seed = 0x70b5;
  s.pipeline = 8;
  s.batch = 4;
  s.clients = 64;  // closed-loop clients (one outstanding op each)
  return s;
}

ScenarioSpec smr_cost_defaults() {
  ScenarioSpec s;
  s.sampler = SamplerKind::kSchedule;
  s.runs = 50;  // committed commands per (algorithm, n) point
  s.seed = 0x1000;
  s.group_sizes = {4, 8, 16, 32, 64};
  return s;
}

const std::vector<Scenario> kRegistry = {
    {"fig1a", "fig1a_analysis_high_p", "Figure 1(a)",
     "IID analysis: E[rounds] vs p, high-reliability regime", analysis_defaults,
     run_fig1a},
    {"fig1b", "fig1b_analysis_low_p", "Figure 1(b)",
     "IID analysis: E[rounds] vs p in [0.9, 1), ES off-chart",
     analysis_defaults, run_fig1b},
    {"fig1c", "fig1c_lan_pm", "Figure 1(c)",
     "LAN: measured vs IID-predicted P_M per timeout, both leaders",
     lan_defaults, run_fig1c, true},
    {"fig1d", "fig1d_wan_timeout_to_p", "Figure 1(d)",
     "WAN: round timeout -> fraction of timely messages", wan_defaults,
     run_fig1d, true},
    {"fig1e", "fig1e_wan_pm", "Figure 1(e)",
     "WAN: measured P_M per timeout with 95% CIs", wan_defaults, run_fig1e,
     true},
    {"fig1f", "fig1f_wan_variance", "Figure 1(f)",
     "WAN: across-run variance of P_M per timeout", wan_defaults, run_fig1f,
     true},
    {"fig1g", "fig1g_wan_rounds", "Figure 1(g)",
     "WAN: average rounds until global-decision conditions hold",
     wan_defaults, run_fig1g, true},
    {"fig1h", "fig1h_wan_time", "Figure 1(h)",
     "WAN: average time (rounds x timeout) to decision conditions",
     wan_defaults, run_fig1h, true},
    {"fig1i", "fig1i_timeout_tradeoff", "Figure 1(i)",
     "WAN: timeout-tuning zoom for <>LM / <>WLM (fine sweep)",
     fig1i_defaults, run_fig1i, true},
    {"appc", "appc_asymptotics", "Appendix C",
     "Asymptotics of expected decision time as n grows", appc_defaults,
     run_appc_asymptotics},
    {"ablation/paxos_recovery", "ablation_paxos_recovery", "ablation",
     "Paxos vs Algorithm 2 recovery under an adversarial <>WLM schedule",
     paxos_recovery_defaults, run_ablation_paxos_recovery},
    {"ablation/algorithms_live", "ablation_algorithms_live", "ablation",
     "Live algorithm executions over the simulated WAN",
     algorithms_live_defaults, run_ablation_algorithms_live},
    {"ablation/window_formula", "ablation_window_formula", "ablation",
     "Paper E(D) formula vs exact renewal expectation vs Monte-Carlo",
     window_formula_defaults, run_ablation_window_formula},
    {"ablation/simulation_cost", "ablation_simulation_cost", "ablation",
     "Wire cost of the Appendix B reduction vs direct Algorithm 2",
     simulation_cost_defaults, run_ablation_simulation_cost},
    {"ablation/group_size", "ablation_group_size", "ablation",
     "Sensitivity of the model comparison to the group size n",
     group_size_defaults, run_ablation_group_size, true},
    {"ablation/smr_cost", "ablation_smr_cost", "ablation",
     "Steady-state replication cost per committed command",
     smr_cost_defaults, run_ablation_smr_cost},
    {"granular/fig1", "granular_fig1_wan", "granular",
     "WAN Figure-1 sweep under per-link timing models (link_models=SPEC): "
     "granular P_M, per-class conformance, rounds to decision",
     granular_fig1_defaults, run_granular_fig1, true},
    {"granular/ablation", "granular_ablation_mix", "granular",
     "Async link-fraction sweep on IID links: measured granular P_M vs "
     "the Poisson-binomial analysis",
     granular_ablation_defaults, run_granular_ablation, true},
    {"chaos/consensus", "chaos_consensus", "chaos",
     "All four consensus algorithms under seeded random fault plans",
     chaos_defaults, run_chaos_consensus},
    {"chaos/single", "chaos_single", "chaos",
     "One algorithm (algorithm=KEY) under random or given fault plans",
     chaos_defaults, run_chaos_single},
    {"smr/linearizable", "smr_linearizable", "chaos",
     "Client op histories against the SMR layer checked for "
     "linearizability under fault injection",
     smr_linearizable_defaults, run_smr_linearizable},
    {"adversary/search", "adversary_search", "adversary",
     "Fitness-guided hunt for worst-case fault schedules (algorithm=KEY, "
     "budget=N evaluations, baseline=N uniform plans to beat)",
     adversary_search_defaults, run_adversary_search},
    {"chaos/regression", "chaos_regression", "adversary",
     "Replay the archived minimized adversary plans (archive=DIR) and "
     "hold each to its recorded verdict and fitness",
     chaos_regression_defaults, run_chaos_regression},
    {"smr/throughput", "smr_throughput", "smr",
     "Pipelined, batched replicated-log load: ops/sec and commit-latency "
     "quantiles vs the serialized baseline",
     smr_throughput_defaults, run_smr_throughput},
};

}  // namespace

const std::vector<Scenario>& registry() { return kRegistry; }

std::string validate(const Scenario& sc, const ScenarioSpec& spec) {
  const std::string err = validate(spec);
  if (!err.empty() || !sc.decision_windows) return err;
  const int longest = *std::max_element(spec.decision_rounds.begin(),
                                        spec.decision_rounds.end());
  if (spec.rounds_per_run <= longest) {
    return "rounds_per_run must exceed the longest decision window (" +
           std::to_string(longest) + " rounds)";
  }
  return "";
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : kRegistry) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace timing::scenario
