// The named scenario registry: one entry per paper figure / ablation.
// tools/timing_lab runs the entries by name with `key=value` overrides
// (`timing_lab run fig1g runs=4`) — experiments are data, not code.
#pragma once

#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"

namespace timing::scenario {

struct Scenario {
  /// Registry key ("fig1g", "ablation/group_size").
  const char* name;
  /// Paper anchor ("Figure 1(g)", "Appendix C", "ablation").
  const char* figure;
  /// One-line description for `timing_lab list`.
  const char* summary;
  /// What the scenario measures and the paper's claims it reproduces
  /// (or the ablation's setup), printed by `timing_lab describe`.
  const char* description;
  /// Default (paper) parameters. A function, not a static, so profile
  /// defaults are constructed on demand.
  ScenarioSpec (*defaults)();
  /// Execute over a (possibly overridden) spec. Returns a process exit
  /// code; 0 on success.
  int (*run)(const ScenarioSpec& spec, const RunContext& ctx);
  /// The scenario measures rounds until decision conditions hold, i.e.
  /// looks for decision_rounds-long windows inside each rounds_per_run
  /// run. Scenarios that leave this false use rounds_per_run as a round
  /// cap or not at all.
  bool decision_windows = false;
};

/// validate(spec) plus the rules that depend on what `sc` computes, the
/// only place the plan rules live: a `fault=` plan is read only by the
/// "chaos" and "smr" figures, and a "chaos" one must end in a gsr
/// marker; a scenario that draws random fault plans needs n >= 3; a
/// decision-window scenario's runs must be longer than every window.
/// The CLI checks every spec it runs, describes or replays with this.
std::string validate(const Scenario& sc, const ScenarioSpec& spec);

/// All registered scenarios, in presentation order (figures, appendix,
/// ablations). Names are unique.
const std::vector<Scenario>& registry();

/// Null when `name` is not registered.
const Scenario* find_scenario(const std::string& name);

}  // namespace timing::scenario
