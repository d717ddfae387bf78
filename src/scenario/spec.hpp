// Declarative experiment descriptions: every figure and ablation of the
// paper's evaluation (Section 5, Figures 1(a)-(i), the appendices, and
// our own ablations) is a named ScenarioSpec in the registry
// (scenario/registry.hpp) instead of a hand-wired main(). A spec carries
// the full parameter set an experiment family sweeps — testbed, sampler,
// algorithm, group sizes, timeout sweep, run shape, seeds, leader policy,
// decision-round requirements — so "run the WAN rounds figure at two
// timeouts with 2 runs" is a CLI override, not a recompile.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "consensus/factory.hpp"
#include "fault/parser.hpp"
#include "harness/experiments.hpp"
#include "models/link_model_matrix.hpp"
#include "sim/latency_model.hpp"

namespace timing::scenario {

/// What generates per-round timeliness for the scenario.
enum class SamplerKind {
  kAnalysis,  ///< no sampling: closed-form Section 4 / Appendix C curves
  kLan,       ///< calibrated LAN latency profile (Section 5.2)
  kWan,       ///< calibrated 8-site PlanetLab WAN profile (Section 5.3)
  kIid,       ///< IID Bernoulli(p) links (the Section 4 world, measured)
  kSchedule,  ///< adversarial / model-conforming schedules (live runs)
};

std::string to_string(SamplerKind k);

/// How the designated leader is chosen before a run.
enum class LeaderPolicy {
  kDefault,  ///< paper's method: UK site on the WAN, best LAN node
  kAverage,  ///< the "average leader" variant of Section 5.2
  kFixed,    ///< ScenarioSpec::leader names the process explicitly
};

std::string to_string(LeaderPolicy p);

/// The `fault=` override as applied: the value as given (a plan-file
/// path or an inline ';'-separated spec, grammar in fault/parser.hpp) and
/// the plan the override loaded from it. A plan file is read once, when
/// the override is applied; validate() reports a load error, and runners,
/// `describe` and `replay` read plan(). Empty = no fixed plan.
class FaultOverride {
 public:
  FaultOverride() = default;
  FaultOverride(std::string text, fault::ParseResult loaded)
      : text_(std::move(text)), loaded_(std::move(loaded)) {}

  bool empty() const noexcept { return text_.empty(); }
  const std::string& text() const noexcept { return text_; }
  /// The load's parse error; "" when the plan parsed.
  const std::string& error() const noexcept { return loaded_.error; }
  const fault::FaultPlan& plan() const noexcept { return loaded_.plan; }

 private:
  std::string text_;
  fault::ParseResult loaded_;
};

struct ScenarioSpec {
  SamplerKind sampler = SamplerKind::kWan;
  /// Group size for single-n scenarios (the paper fixes n = 8).
  int n = 8;
  /// Per-link timely probability for IID samplers / analysis curves.
  double iid_p = 0.95;
  /// Round-timeout sweep (ms); required for latency-model scenarios.
  std::vector<double> timeouts_ms;
  /// Independent runs per sweep point. Scenario families reuse this as
  /// their natural repetition count: consensus instances for the live
  /// ablation, committed commands for the SMR ablation, Monte-Carlo
  /// trials for the window-formula ablation.
  int runs = 33;
  /// Rounds per run; doubles as the round cap for live-algorithm runs.
  int rounds_per_run = 300;
  /// Random decision-window start points per run (the paper uses 15).
  int start_points = 15;
  std::uint64_t seed = 42;
  LeaderPolicy leader_policy = LeaderPolicy::kDefault;
  /// Explicit leader; only consulted under LeaderPolicy::kFixed.
  ProcessId leader = kNoProcess;
  /// Rounds of conforming network needed for global decision per model
  /// (paper defaults: ES 3, LM 3, WLM 4, AFM 5).
  std::array<int, kNumModels> decision_rounds{3, 3, 4, 5};
  /// Protocol under test for live-run scenarios.
  AlgorithmKind algorithm = AlgorithmKind::kWlm;
  /// Group-size sweep for the n-scaling scenarios (empty = fixed n).
  std::vector<int> group_sizes;
  /// Honour TIMING_RUNS (the paper-figure sweeps do; ablations pin their
  /// repetition counts).
  bool honor_env_runs = false;
  LanProfile lan{};
  WanProfile wan{};
  /// Results JSONL output path; empty disables structured emission.
  std::string results_path;
  /// Fault plan (`fault=` override), read by chaos/consensus,
  /// chaos/single, smr/linearizable and smr/throughput. Empty = no fixed
  /// plan: the first three then draw a fresh seeded random plan per
  /// trial (or instance), smr/throughput injects nothing.
  FaultOverride fault_spec;
  /// Closed-loop SMR clients per trial (smr/linearizable only).
  int clients = 4;
  /// Register keys (read/write/cas) per trial (smr/linearizable only).
  int reg_keys = 2;
  /// Append (hash-chain) keys per trial (smr/linearizable only).
  int append_keys = 1;
  /// Test-only corruption hook (`corrupt=` override): empty = off, else
  /// the name of one of smr/client.hpp's CorruptMode values
  /// (smr/linearizable only).
  std::string corrupt_spec;
  /// Consensus instances kept in flight by the replicated-log scenarios
  /// (smr/throughput; smr/linearizable switches to the pipelined harness
  /// when pipeline or batch exceeds 1). 1 = fully serialized.
  int pipeline = 1;
  /// Commands batched into one decree per log slot (the flush deadline
  /// still seals partial batches). 1 = one command per slot.
  int batch = 1;
  /// Per-link timing assumptions (`link_models=` override): a spec in the
  /// grammar of models/link_model_matrix.hpp, e.g.
  /// "sync:all;async:0->2,3->*". Empty = homogeneous (every link carries
  /// the model's obligations, the pre-granular behaviour); "sync:all"
  /// reproduces the homogeneous results bit-for-bit.
  std::string link_models;
  /// Async link-fraction sweep for granular/ablation (each point builds a
  /// seeded LinkModelMatrix::mixed with this fraction of async links).
  std::vector<double> async_fracs;
  /// Fraction of the remaining (non-async) links made partial-sync in the
  /// mixed matrices of the granular/ablation sweep.
  double psync_frac = 0.0;
  /// Chaos-evaluation budget for the adversary hunt (`budget=` override,
  /// adversary/search only). The search runs whole generations, so the
  /// spent count rounds up to a multiple of its walker count.
  int budget = 2000;
  /// Uniform random_fault_plan samples the hunt must beat
  /// (adversary/search). 0 disables the comparison gate.
  int baseline = 0;
  /// Archive directory (`archive=` override): adversary/search writes
  /// minimized winners there; chaos/regression replays every *.plan in
  /// it. Empty keeps the hunt's winners in the report only.
  std::string archive;
};

/// Empty string when the spec is coherent; otherwise a one-line reason
/// (first violation wins). Checked before every scenario run and by the
/// override parser's callers. A `fault=` plan must have loaded and must
/// fit n and scenario_leader(); the rules that depend on the scenario
/// live in validate(const Scenario&, const ScenarioSpec&).
std::string validate(const ScenarioSpec& spec);

/// The `link_models=` override parsed against spec.n: its one parser.
/// Empty text gives the empty matrix (n() == 0: homogeneous predicates).
/// With `error` null, a spec validate() rejected is a checked error;
/// validate() passes `error` to report the parse failure instead.
LinkModelMatrix link_model_matrix(const ScenarioSpec& spec,
                                  std::string* error = nullptr);

/// Lower the declarative spec onto the harness execution config.
/// LeaderPolicy is resolved here (kAverage elects the average leader from
/// the testbed's expected-RTT matrix).
ExperimentConfig to_experiment_config(const ScenarioSpec& spec);

/// The leader a scenario runs with: on the LAN and WAN testbeds the one
/// the spec resolves to (kDefault follows the paper's method; kAverage
/// elects the average leader), otherwise the fixed leader, or 0 under
/// any other policy. validate() checks a `fault=` plan against it.
ProcessId scenario_leader(const ScenarioSpec& spec);

/// Validate + lower + run the Section 5 sweep kernel
/// (harness/experiments.hpp) for a latency-testbed spec.
std::vector<TimeoutResult> run_experiment(const ScenarioSpec& spec);

}  // namespace timing::scenario
