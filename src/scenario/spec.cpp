#include "scenario/spec.hpp"

#include <utility>

#include "common/check.hpp"
#include "oracles/omega.hpp"
#include "smr/client.hpp"

namespace timing::scenario {

std::string to_string(SamplerKind k) {
  switch (k) {
    case SamplerKind::kAnalysis: return "analysis";
    case SamplerKind::kLan: return "lan";
    case SamplerKind::kWan: return "wan";
    case SamplerKind::kIid: return "iid";
    case SamplerKind::kSchedule: return "schedule";
  }
  return "?";
}

std::string to_string(LeaderPolicy p) {
  switch (p) {
    case LeaderPolicy::kDefault: return "default";
    case LeaderPolicy::kAverage: return "average";
    case LeaderPolicy::kFixed: return "fixed";
  }
  return "?";
}

std::string validate(const ScenarioSpec& spec) {
  if (spec.runs < 1) return "runs must be >= 1";
  if (spec.rounds_per_run < 2) return "rounds_per_run must be >= 2";
  if (spec.start_points < 1) return "start_points must be >= 1";
  if (spec.n < 2) return "n must be >= 2";
  if (spec.iid_p <= 0.0 || spec.iid_p > 1.0) {
    return "iid_p must be in (0, 1]";
  }
  const bool latency_testbed =
      spec.sampler == SamplerKind::kLan || spec.sampler == SamplerKind::kWan;
  if (latency_testbed) {
    if (spec.timeouts_ms.empty()) return "empty timeout sweep";
    const int profile_n =
        spec.sampler == SamplerKind::kLan ? spec.lan.n : spec.wan.n;
    if (spec.n != profile_n) {
      return "n must match the " + to_string(spec.sampler) +
             " profile's group size (" + std::to_string(profile_n) + ")";
    }
  }
  for (double t : spec.timeouts_ms) {
    if (t <= 0.0) return "timeouts_ms entries must be > 0";
  }
  for (int r : spec.decision_rounds) {
    if (r < 1) return "decision_rounds entries must be >= 1";
  }
  if (spec.leader_policy == LeaderPolicy::kFixed &&
      (spec.leader < 0 || spec.leader >= spec.n)) {
    return "leader out of range [0, n)";
  }
  for (int gs : spec.group_sizes) {
    if (gs < 2) return "group_sizes entries must be >= 2";
  }
  if (spec.clients < 1) return "clients must be >= 1";
  if (spec.reg_keys < 0 || spec.append_keys < 0 ||
      spec.reg_keys + spec.append_keys < 1) {
    return "need at least one register or append key";
  }
  if (spec.clients + spec.reg_keys + spec.append_keys > 255 ||
      spec.reg_keys + spec.append_keys > 255) {
    return "clients + keys must fit the register command encoding (<= 255)";
  }
  if (spec.pipeline < 1) return "pipeline must be >= 1";
  if (spec.batch < 1) return "batch must be >= 1";
  CorruptMode corrupt = CorruptMode::kNone;
  if (!spec.corrupt_spec.empty() &&
      !corrupt_mode_from_string(spec.corrupt_spec.c_str(), corrupt)) {
    return "corrupt must be one of " + corrupt_mode_names(", ");
  }
  std::string lerr;
  link_model_matrix(spec, &lerr);
  if (!lerr.empty()) return "bad link_models: " + lerr;
  for (double f : spec.async_fracs) {
    if (f < 0.0 || f > 1.0) return "async_fracs entries must be in [0, 1]";
  }
  if (spec.psync_frac < 0.0 || spec.psync_frac > 1.0) {
    return "psync_frac must be in [0, 1]";
  }
  if (spec.budget < 1) return "budget must be >= 1";
  if (spec.baseline < 0) return "baseline must be >= 0";
  if (!spec.fault_spec.empty()) {
    const FaultOverride& f = spec.fault_spec;
    if (!f.error().empty()) return "bad fault plan: " + f.error();
    const std::string ferr =
        fault::validate(f.plan(), spec.n, scenario_leader(spec));
    if (!ferr.empty()) return "bad fault plan: " + ferr;
  }
  return "";
}

LinkModelMatrix link_model_matrix(const ScenarioSpec& spec,
                                  std::string* error) {
  LinkModelMatrix m;
  if (spec.link_models.empty()) return m;
  std::string err = parse_link_models(spec.link_models, spec.n, m);
  TM_CHECK(error != nullptr || err.empty(),
           "validate() admits only parseable link_models");
  if (error != nullptr) *error = std::move(err);
  return m;
}

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  ExperimentConfig cfg;
  cfg.testbed =
      spec.sampler == SamplerKind::kLan ? Testbed::kLan : Testbed::kWan;
  cfg.timeouts_ms = spec.timeouts_ms;
  cfg.runs = spec.runs;
  cfg.rounds_per_run = spec.rounds_per_run;
  cfg.start_points = spec.start_points;
  cfg.seed = spec.seed;
  cfg.lan = spec.lan;
  cfg.wan = spec.wan;
  cfg.decision_rounds = spec.decision_rounds;
  cfg.link_models = link_model_matrix(spec);
  switch (spec.leader_policy) {
    case LeaderPolicy::kDefault:
      cfg.leader = kNoProcess;
      break;
    case LeaderPolicy::kFixed:
      cfg.leader = spec.leader;
      break;
    case LeaderPolicy::kAverage:
      cfg.leader = pick_average_leader(expected_rtt_matrix(cfg));
      break;
  }
  return cfg;
}

ProcessId scenario_leader(const ScenarioSpec& spec) {
  if (spec.sampler == SamplerKind::kLan || spec.sampler == SamplerKind::kWan) {
    return timing::resolve_leader(to_experiment_config(spec));
  }
  return spec.leader_policy == LeaderPolicy::kFixed ? spec.leader : 0;
}

std::vector<TimeoutResult> run_experiment(const ScenarioSpec& spec) {
  const std::string err = validate(spec);
  TM_CHECK(err.empty(), err.c_str());
  return timing::run_experiment(to_experiment_config(spec));
}

}  // namespace timing::scenario
