// The named scenario registry: one entry per paper figure / ablation.
// Bench binaries are thin wrappers over entries (scenario/cli.hpp's
// bench_main), and tools/timing_lab drives the same entries by name with
// `key=value` overrides — experiments are data, not code.
#pragma once

#include <string>
#include <vector>

#include "scenario/run.hpp"
#include "scenario/spec.hpp"

namespace timing::scenario {

struct Scenario {
  /// Registry key ("fig1g", "ablation/group_size").
  const char* name;
  /// The bench executable wrapping this entry.
  const char* binary;
  /// Paper anchor ("Figure 1(g)", "Appendix C", "ablation").
  const char* figure;
  /// One-line description for `timing_lab list`.
  const char* summary;
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

/// validate(spec) plus the rules that depend on what `sc` computes: a
/// decision-window scenario's runs must be longer than every window.
/// The CLI checks every spec it runs with this.
std::string validate(const Scenario& sc, const ScenarioSpec& spec);

/// All registered scenarios, in presentation order (figures, appendix,
/// ablations). Names are unique.
const std::vector<Scenario>& registry();

/// Null when `name` is not registered.
const Scenario* find_scenario(const std::string& name);

}  // namespace timing::scenario
