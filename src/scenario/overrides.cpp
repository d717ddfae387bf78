#include "scenario/overrides.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>
#include <vector>

#include "common/parse.hpp"
#include "fault/parser.hpp"
#include "smr/client.hpp"

namespace timing::scenario {

namespace {

/// One `key=value` override: the argument `override_help()` shows after
/// `key=`, the help text (a '\n' per continuation line) and the parser,
/// which returns "" on success or the reason the value was rejected.
struct Override {
  const char* key;
  const char* arg;
  const char* help;
  std::string (*parse)(ScenarioSpec& spec, const std::string& value);
};

template <int ScenarioSpec::*F>
std::string set_int(ScenarioSpec& spec, const std::string& value) {
  return parse_int(value, spec.*F) ? "" : "expected an integer";
}

template <double ScenarioSpec::*F>
std::string set_double(ScenarioSpec& spec, const std::string& value) {
  return parse_double(value, spec.*F) ? "" : "expected a number";
}

template <std::vector<double> ScenarioSpec::*F>
std::string set_doubles(ScenarioSpec& spec, const std::string& value) {
  return parse_double_list(value, spec.*F)
             ? ""
             : "expected a comma-separated list of numbers";
}

/// Kept raw: validate() checks the value against the rest of the spec
/// (archive=: the runner checks that the directory exists).
template <std::string ScenarioSpec::*F>
std::string set_text(ScenarioSpec& spec, const std::string& value) {
  spec.*F = value;
  return "";
}

/// Every override, in `override_help()` order.
std::span<const Override> overrides() {
  static const std::string corrupt_arg = corrupt_mode_names("|");
  static const Override table[] = {
      {"runs", "N",
       "repetitions per sweep point (instances /\n"
       "commands / MC trials for the live ablations)",
       set_int<&ScenarioSpec::runs>},
      {"rounds_per_run", "N", "rounds per run (round cap for live runs)",
       set_int<&ScenarioSpec::rounds_per_run>},
      {"start_points", "N", "random decision-window start points per run",
       set_int<&ScenarioSpec::start_points>},
      {"n", "N", "group size (must match the LAN/WAN profile)",
       set_int<&ScenarioSpec::n>},
      {"seed", "U64", "base RNG seed (runs use counter sub-streams)",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         return parse_u64(value, spec.seed) ? ""
                                            : "expected an unsigned integer";
       }},
      {"iid_p", "P", "per-link timely probability (IID scenarios)",
       set_double<&ScenarioSpec::iid_p>},
      {"timeouts_ms", "A,B,..", "round-timeout sweep in milliseconds",
       set_doubles<&ScenarioSpec::timeouts_ms>},
      {"group_sizes", "A,B,..", "group-size sweep (n-scaling scenarios)",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         return parse_int_list(value, spec.group_sizes)
                    ? ""
                    : "expected a comma-separated list of integers";
       }},
      {"decision_rounds", "ES,LM,WLM,AFM",
       "conforming rounds needed for global decision",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         std::vector<int> vals;
         if (!parse_int_list(value, vals) ||
             vals.size() != spec.decision_rounds.size()) {
           return "expected exactly " +
                  std::to_string(spec.decision_rounds.size()) +
                  " comma-separated integers (ES,LM,WLM,AFM)";
         }
         std::copy(vals.begin(), vals.end(), spec.decision_rounds.begin());
         return "";
       }},
      {"leader", "ID|default|average",
       "leader policy (paper default / average-leader\n"
       "variant / fixed process id)",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         if (value == "default" || value == "average") {
           spec.leader_policy = value == "default" ? LeaderPolicy::kDefault
                                                   : LeaderPolicy::kAverage;
           spec.leader = kNoProcess;
           return "";
         }
         int id = 0;
         if (!parse_int(value, id)) {
           return "expected a process id, 'default' or 'average'";
         }
         spec.leader_policy = LeaderPolicy::kFixed;
         spec.leader = id;
         return "";
       }},
      {"algorithm", "KEY",
       "protocol for live-run scenarios (wlm, es3,\n"
       "lm3, afm5, lm_over_wlm, paxos)",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         if (parse_algorithm_kind(value, spec.algorithm)) return "";
         std::string known;
         for (AlgorithmKind k : all_algorithm_kinds()) {
           if (!known.empty()) known += ", ";
           known += algorithm_key(k);
         }
         return "unknown algorithm (known: " + known + ")";
       }},
      {"jsonl", "PATH", "write results JSONL to PATH ('' disables)",
       set_text<&ScenarioSpec::results_path>},
      {"fault", "PLAN",
       "fault plan: a plan-file path or an inline\n"
       "';'-separated spec, e.g.\n"
       "\"crash 1 @2; recover 1 @5; gsr @8\"\n"
       "(grammar: docs/FAULTS.md); read only by\n"
       "chaos/consensus, chaos/single,\n"
       "smr/linearizable and smr/throughput; the\n"
       "first three need a `gsr @R` marker in it\n"
       "and draw seeded random plans when unset",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         // The plan's one load: a plan file is read here and never
         // again. validate() reports a parse error and checks the plan
         // against n, the leader and the scenario.
         spec.fault_spec = FaultOverride(value, fault::load_fault_plan(value));
         return "";
       }},
      {"clients", "N", "closed-loop SMR clients (smr/linearizable)",
       set_int<&ScenarioSpec::clients>},
      {"reg_keys", "N", "read/write/cas register keys (smr/linearizable)",
       set_int<&ScenarioSpec::reg_keys>},
      {"append_keys", "N", "append hash-chain keys (smr/linearizable)",
       set_int<&ScenarioSpec::append_keys>},
      {"corrupt", corrupt_arg.c_str(),
       "test-only linearizability violation hook\n"
       "(smr/linearizable; see docs/HISTORY.md)",
       set_text<&ScenarioSpec::corrupt_spec>},
      {"link_models", "SPEC",
       "per-link timing assumptions, e.g.\n"
       "\"sync:all;async:0->2,3->*\" (classes sync,\n"
       "psync, async; unmentioned links are sync;\n"
       "'' = homogeneous predicates)",
       set_text<&ScenarioSpec::link_models>},
      {"async_fracs", "A,B,..", "async link-fraction sweep (granular/ablation)",
       set_doubles<&ScenarioSpec::async_fracs>},
      {"psync_frac", "F",
       "psync share of the non-async links in the\n"
       "mixed matrices (granular/ablation)",
       set_double<&ScenarioSpec::psync_frac>},
      {"pipeline", "K",
       "consensus instances kept in flight by the\n"
       "replicated log (smr/throughput; >1 switches\n"
       "smr/linearizable to the pipelined harness)",
       set_int<&ScenarioSpec::pipeline>},
      {"batch", "B",
       "commands per decree slot (flush deadline\n"
       "still seals partial batches)",
       set_int<&ScenarioSpec::batch>},
      {"profile", "lan|wan",
       "latency testbed for smr/throughput (sets\n"
       "sampler, n and a matching round timeout;\n"
       "put timeouts_ms= after it to re-pick)",
       [](ScenarioSpec& spec, const std::string& value) -> std::string {
         if (value == "lan") {
           spec.sampler = SamplerKind::kLan;
           spec.n = spec.lan.n;
           spec.timeouts_ms = {0.2};
         } else if (value == "wan") {
           spec.sampler = SamplerKind::kWan;
           spec.n = spec.wan.n;
           spec.timeouts_ms = {200};
         } else {
           return "expected lan or wan";
         }
         return "";
       }},
      {"budget", "N",
       "chaos evaluations for the adversary hunt\n"
       "(adversary/search; rounds up to whole\n"
       "generations)",
       set_int<&ScenarioSpec::budget>},
      {"baseline", "N",
       "uniform random plans the hunt must beat\n"
       "(adversary/search; 0 skips the gate)",
       set_int<&ScenarioSpec::baseline>},
      {"archive", "DIR",
       "adversary archive directory: search writes\n"
       "minimized winners, chaos/regression replays\n"
       "every *.plan in it",
       set_text<&ScenarioSpec::archive>},
  };
  return table;
}

}  // namespace

std::string apply_override(ScenarioSpec& spec, const std::string& key,
                           const std::string& value) {
  for (const Override& o : overrides()) {
    if (key == o.key) return o.parse(spec, value);
  }
  return "unknown key";
}

CliArgs apply_cli_args(ScenarioSpec& spec, int argc, char** argv, int first) {
  CliArgs out;
  // Repeated key=value overrides are almost always a command-line typo
  // (the second silently wins otherwise), so remember where each key was
  // first set and reject the repeat with both positions.
  std::vector<std::pair<std::string, int>> seen;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      out.csv = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.empty() || arg[0] == '-' || eq == std::string::npos ||
        eq == 0) {
      out.error = "unknown argument '" + arg + "'";
      return out;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    for (const auto& [prev_key, prev_pos] : seen) {
      if (prev_key == key) {
        out.error = "duplicate override '" + arg + "' (argument " +
                    std::to_string(i - first + 1) + "): '" + key +
                    "=' was already set by argument " +
                    std::to_string(prev_pos - first + 1);
        return out;
      }
    }
    seen.emplace_back(key, i);
    const std::string err = apply_override(spec, key, value);
    if (!err.empty()) {
      out.error = "bad override '" + arg + "': " + err;
      return out;
    }
  }
  return out;
}

std::string override_help() {
  // Help text starts in this column; a longer `key=ARG` gets a line of
  // its own.
  const std::string indent(22, ' ');
  std::string out;
  for (const Override& o : overrides()) {
    std::string head = std::string("  ") + o.key + "=" + o.arg;
    if (head.size() + 2 > indent.size()) {
      head += "\n" + indent;
    } else {
      head.resize(indent.size(), ' ');
    }
    out += head;
    for (const char* c = o.help; *c != '\0'; ++c) {
      out += *c;
      if (*c == '\n') out += indent;
    }
    out += '\n';
  }
  return out;
}

int runs_or_default(int paper_default) {
  static bool warned = false;
  if (const char* env = std::getenv("TIMING_RUNS")) {
    long v = 0;
    if (!parse_long(env, v) || v < 1) {
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "warning: ignoring invalid TIMING_RUNS=%s (expected an "
                     "integer >= 1); using the scenario default\n",
                     env);
      }
      return paper_default;
    }
    if (v > 100000) {
      if (!warned) {
        warned = true;
        std::fprintf(stderr, "warning: TIMING_RUNS=%ld clamped to 100000\n",
                     v);
      }
      v = 100000;
    }
    return static_cast<int>(v);
  }
  return paper_default;
}

}  // namespace timing::scenario
