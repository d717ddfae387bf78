// The Section 5.3 timeout-tuning methodology as a tool: "a system
// administrator can perform measurements and choose the timeout for a
// specific system, according to such criteria."
//
// Given a testbed (the simulated WAN by default, or the LAN with --lan),
// the tuner sweeps round timeouts, measures for each model the expected
// time until the conditions for global decision hold, and recommends the
// optimal timeout per model together with the corresponding p - exactly
// the analysis behind Figure 1(i). The sweep is described declaratively
// as a ScenarioSpec (src/scenario) and executed by the same kernel the
// registered figure scenarios use.
#include <cstring>
#include <iostream>

#include "common/table.hpp"
#include "scenario/spec.hpp"

using namespace timing;

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec;
  spec.runs = 25;
  spec.rounds_per_run = 300;
  spec.seed = 17;
  const bool lan = argc > 1 && std::strcmp(argv[1], "--lan") == 0;
  if (lan) {
    spec.sampler = scenario::SamplerKind::kLan;
    spec.timeouts_ms = {0.10, 0.15, 0.20, 0.25, 0.30, 0.40,
                        0.55, 0.70, 0.90, 1.20, 1.60};
  } else {
    spec.sampler = scenario::SamplerKind::kWan;
    spec.timeouts_ms = {140, 150, 160, 165, 170, 175, 180, 190,
                        200, 210, 220, 230, 250, 270, 300, 350};
  }

  std::cout << (lan ? "LAN" : "WAN (PlanetLab profile)")
            << " testbed, designated leader: node "
            << scenario::scenario_leader(spec) << "\n\n";
  const auto rs = scenario::run_experiment(spec);

  Table sweep({"timeout(ms)", "p", "ES time", "<>AFM time", "<>LM time",
               "<>WLM time"});
  for (const auto& r : rs) {
    const auto& es = r.models[model_index(TimingModel::kEs)];
    sweep.add_row(
        {Table::num(r.timeout_ms, lan ? 2 : 0), Table::num(r.mean_p, 3),
         (es.censored_fraction > 0.5 ? ">=" : "") +
             Table::num(es.mean_time_ms, lan ? 2 : 0),
         Table::num(r.models[model_index(TimingModel::kAfm)].mean_time_ms,
                    lan ? 2 : 0),
         Table::num(r.models[model_index(TimingModel::kLm)].mean_time_ms,
                    lan ? 2 : 0),
         Table::num(r.models[model_index(TimingModel::kWlm)].mean_time_ms,
                    lan ? 2 : 0)});
  }
  sweep.print(std::cout, "Expected time (ms) to global-decision conditions");

  std::cout << "\nRecommended timeouts:\n";
  Table rec({"model", "optimal timeout(ms)", "decision time(ms)",
             "p at optimum"});
  for (TimingModel m : kAllModels) {
    double best_t = 0, best_v = 1e300, best_p = 0;
    for (const auto& r : rs) {
      const auto& s = r.models[model_index(m)];
      if (s.censored_fraction > 0.5) continue;  // unreliable estimate
      if (s.mean_time_ms < best_v) {
        best_v = s.mean_time_ms;
        best_t = r.timeout_ms;
        best_p = r.mean_p;
      }
    }
    if (best_v < 1e299) {
      rec.add_row({to_string(m), Table::num(best_t, lan ? 2 : 0),
                   Table::num(best_v, lan ? 2 : 0), Table::num(best_p, 2)});
    } else {
      rec.add_row({to_string(m), "n/a (conditions never held)", "-", "-"});
    }
  }
  rec.print(std::cout);
  std::cout << "\nNote (the paper's conclusion): conservative timeouts do "
               "not necessarily help -\npast the optimum every extra "
               "millisecond of timeout is paid on every round.\n";
  return 0;
}
