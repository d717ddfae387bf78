#include "scenario/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "adversary/archive.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "fault/parser.hpp"
#include "models/link_model_matrix.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "scenario/overrides.hpp"
#include "scenario/registry.hpp"
#include "scenario/results.hpp"
#include "scenario/run.hpp"

namespace timing::scenario {

namespace {

std::string join_doubles(const std::vector<double>& vs) {
  std::string out;
  for (double v : vs) {
    if (!out.empty()) out += ",";
    out += Table::num(v, v == static_cast<long long>(v) ? 0 : 2);
  }
  return out;
}

std::string join_ints(const std::vector<int>& vs) {
  std::string out;
  for (int v : vs) {
    if (!out.empty()) out += ",";
    out += std::to_string(v);
  }
  return out;
}

void print_spec(std::ostream& os, const ScenarioSpec& spec) {
  os << "  sampler          " << to_string(spec.sampler) << "\n";
  os << "  n                " << spec.n << "\n";
  os << "  iid_p            " << Table::num(spec.iid_p, 2) << "\n";
  os << "  timeouts_ms      "
     << (spec.timeouts_ms.empty() ? "-" : join_doubles(spec.timeouts_ms))
     << "\n";
  os << "  runs             " << spec.runs
     << (spec.honor_env_runs ? "  (TIMING_RUNS honoured)" : "") << "\n";
  os << "  rounds_per_run   " << spec.rounds_per_run << "\n";
  os << "  start_points     " << spec.start_points << "\n";
  os << "  seed             " << spec.seed << "\n";
  os << "  leader           " << to_string(spec.leader_policy);
  if (spec.leader_policy == LeaderPolicy::kFixed) os << " (" << spec.leader
                                                     << ")";
  os << "\n";
  os << "  decision_rounds  ";
  for (std::size_t i = 0; i < spec.decision_rounds.size(); ++i) {
    if (i) os << ",";
    os << spec.decision_rounds[i];
  }
  os << "  (ES,LM,WLM,AFM)\n";
  os << "  group_sizes      "
     << (spec.group_sizes.empty() ? "-" : join_ints(spec.group_sizes)) << "\n";
  if (!spec.async_fracs.empty()) {
    os << "  async_fracs      " << join_doubles(spec.async_fracs) << "\n";
    os << "  psync_frac       " << Table::num(spec.psync_frac, 2) << "\n";
  }
  if (!spec.fault_spec.empty()) {
    os << "  fault            " << spec.fault_spec.text() << "\n";
  }
  if (!spec.link_models.empty()) {
    os << "  link_models      " << spec.link_models << "\n";
    const LinkModelMatrix m = link_model_matrix(spec);
    os << "\nresolved link-model matrix (rows = destination, columns = "
          "source; S sync, P psync, A async):\n"
       << m.grid();
    os << "links: " << m.count(LinkModelClass::kSync) << " sync, "
       << m.count(LinkModelClass::kPartialSync) << " psync, "
       << m.count(LinkModelClass::kAsync) << " async\n";
  }
}

/// The fault-plan timeline `describe` appends for chaos scenarios (and
/// for smr/throughput given a fault= override): the fixed plan when one
/// is set, otherwise trial 0's random plan as a sample of the family.
void print_fault_timeline(std::ostream& os, const ScenarioSpec& spec) {
  if (!spec.fault_spec.empty()) {
    os << "\nfault plan (every trial):\n"
       << fault::timeline(spec.fault_spec.plan());
    return;
  }
  const ProcessId leader = scenario_leader(spec);
  const fault::FaultPlan plan = fault::random_fault_plan(
      spec.n, leader, substream_seed(spec.seed, 0));
  os << "\nfault plan (trial 0 of seed " << spec.seed
     << "; every trial draws a fresh one):\n"
     << fault::timeline(plan);
}

/// The one trace path of `run` and `replay`. TIMING_TRACE=<path> turns
/// tracing on: the file is opened before anything runs, runners collect
/// one TrialTrace per trial through RunContext::trace, and finish()
/// writes them once the run returns. TIMING_SPANS, read only when
/// tracing, picks the span events the SMR runners add.
class TraceOutput {
 public:
  /// The only reader of TIMING_TRACE (empty or unset: tracing off).
  TraceOutput() {
    if (const char* path = std::getenv("TIMING_TRACE")) path_ = path;
    if (on()) spans_ = span_mode_from_env();
  }

  bool on() const { return !path_.empty(); }
  SpanMode spans() const { return spans_; }
  /// The collector runners fill; null when tracing is off.
  std::vector<TrialTrace>* trials() { return on() ? &trials_ : nullptr; }

  /// False, after an error line, when the trace file cannot be opened.
  bool open() {
    if (!on()) return true;
    file_.open(path_, std::ios::trunc);
    if (file_) return true;
    std::cerr << "error: cannot open trace path " << path_ << "\n";
    return false;
  }

  /// Writes what `what` collected, or removes the file when it collected
  /// nothing; one stderr line either way. 1 on a short write.
  int finish(const std::string& what) {
    if (!on()) return 0;
    if (trials_.empty()) {
      file_.close();
      std::remove(path_.c_str());
      std::cerr << "trace: " << what << " recorded no trace; nothing "
                << "written to " << path_ << "\n";
      return 0;
    }
    write_trace(file_, trials_);
    file_.flush();
    if (!file_) {
      std::cerr << "error: short write to '" << path_ << "'\n";
      return 1;
    }
    std::size_t events = 0;
    for (const TrialTrace& t : trials_) events += t.events.size();
    std::cerr << "trace: " << trials_.size() << " trial(s), " << events
              << " event(s) -> " << path_ << "\n";
    return 0;
  }

 private:
  std::string path_;
  SpanMode spans_ = SpanMode::kOff;
  std::ofstream file_;
  std::vector<TrialTrace> trials_;
};

/// Execute `sc` over the (already validated) spec, streaming results
/// JSONL to spec.results_path when set, then re-parse what was written
/// with the strict parser so a truncated or malformed file fails the run
/// instead of poisoning downstream tooling. TIMING_TRACE records the
/// run's trace (see TraceOutput).
int execute(const Scenario& sc, const ScenarioSpec& spec, bool csv) {
  TraceOutput trace;
  if (!trace.open()) return 1;
  RunContext ctx;
  ctx.out = &std::cout;
  ctx.csv = csv;
  ctx.trace = trace.trials();
  ctx.spans = trace.spans();
  std::ofstream results_out;
  std::optional<ResultWriter> writer;
  if (!spec.results_path.empty()) {
    results_out.open(spec.results_path);
    if (!results_out) {
      std::cerr << "error: cannot open results file '" << spec.results_path
                << "'\n";
      trace.finish(sc.name);  // nothing ran: leaves no trace file
      return 1;
    }
    writer.emplace(results_out, sc.name);
    ctx.results = &*writer;
  }
  const int rc = sc.run(spec, ctx);
  if (trace.finish(sc.name) != 0) return 1;
  if (ctx.results) {
    writer->finish();
    results_out.flush();
    if (!results_out) {
      std::cerr << "error: short write to '" << spec.results_path << "'\n";
      return 1;
    }
    try {
      const ParsedResults parsed = parse_results_file(spec.results_path);
      std::cerr << "results: " << parsed.tables.size() << " table(s), "
                << parsed.total_rows() << " row(s) -> " << spec.results_path
                << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: results re-parse failed: " << e.what() << "\n";
      return 1;
    }
  }
  return rc;
}

void print_lab_usage(std::ostream& os) {
  os << "usage: timing_lab <command> [args]\n\n"
        "commands:\n"
        "  list                         all registered scenarios\n"
        "  describe <scenario> [key=value ...]\n"
        "                               defaults + override grammar; chaos\n"
        "                               scenarios print the resolved\n"
        "                               fault-plan timeline\n"
        "  run <scenario> [--csv] [--no-jsonl] [key=value ...]\n"
        "                               execute with overrides; results\n"
        "                               JSONL is written by default\n"
        "  validate <file>              strict-parse a results JSONL file\n"
        "                               or a fault-plan file (sniffed by\n"
        "                               the first byte)\n"
        "  replay <plan> [key=value ...]\n"
        "                               run one fault plan (file or inline\n"
        "                               spec) and print the verdict;\n"
        "                               adversary-archive entries replay\n"
        "                               their recorded evaluation; seed=\n"
        "                               takes a chaos report's trial seed\n"
        "                               verbatim\n"
        "  help                         this text\n\n"
        "TIMING_TRACE=PATH makes run and replay record a JSONL trace for\n"
        "offline re-verification (trace_tool); scenarios that record none\n"
        "say so and leave no file.\n\n"
        "overrides:\n"
     << override_help();
}

/// The spec `describe` prints and `run` starts from: the scenario's
/// defaults, with TIMING_RUNS in place of `runs` where it is honoured.
ScenarioSpec resolved_defaults(const Scenario& sc) {
  ScenarioSpec spec = sc.defaults();
  if (spec.honor_env_runs) spec.runs = runs_or_default(spec.runs);
  return spec;
}

int lab_list() {
  Table t({"scenario", "figure", "summary"});
  for (const Scenario& s : registry()) {
    t.add_row({s.name, s.figure, s.summary});
  }
  t.print(std::cout, "Registered scenarios (" +
                         std::to_string(registry().size()) + ")");
  return 0;
}

int lab_describe(int argc, char** argv) {
  const std::string name = argv[2];
  const Scenario* sc = find_scenario(name);
  if (!sc) {
    std::cerr << "error: unknown scenario '" << name
              << "' (see `timing_lab list`)\n";
    return 2;
  }
  ScenarioSpec spec = resolved_defaults(*sc);
  const CliArgs args = apply_cli_args(spec, argc, argv, 3);
  if (!args.error.empty()) {
    std::cerr << "error: " << args.error << "\n";
    return 2;
  }
  const std::string invalid = validate(*sc, spec);
  if (!invalid.empty()) {
    std::cerr << "error: invalid scenario parameters: " << invalid << "\n";
    return 2;
  }
  std::cout << sc->name << " - " << sc->figure << "\n"
            << sc->summary << "\n\n"
            << sc->description << "\n"
            << (argc > 3 ? "resolved spec:\n" : "defaults:\n");
  print_spec(std::cout, spec);
  if (sc->figure == std::string("chaos") || !spec.fault_spec.empty()) {
    print_fault_timeline(std::cout, spec);
  }
  std::cout << "\noverrides:\n" << override_help();
  return 0;
}

int lab_run(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "error: run needs a scenario name (see `timing_lab "
                 "list`)\n";
    return 2;
  }
  const std::string name = argv[2];
  const Scenario* sc = find_scenario(name);
  if (!sc) {
    std::cerr << "error: unknown scenario '" << name
              << "' (see `timing_lab list`)\n";
    return 2;
  }
  ScenarioSpec spec = resolved_defaults(*sc);
  // Structured results on by default; fig1c -> fig1c.results.jsonl,
  // ablation/smr_cost -> ablation_smr_cost.results.jsonl.
  std::string default_path = name;
  for (char& c : default_path) {
    if (c == '/') c = '_';
  }
  spec.results_path = default_path + ".results.jsonl";

  // `--no-jsonl` is a lab-only flag; filter it before the shared parser.
  std::vector<char*> rest;
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-jsonl") {
      spec.results_path.clear();
    } else {
      rest.push_back(argv[i]);
    }
  }
  const CliArgs args =
      apply_cli_args(spec, static_cast<int>(rest.size()), rest.data(), 0);
  if (args.help) {
    print_lab_usage(std::cout);
    return 0;
  }
  if (!args.error.empty()) {
    std::cerr << "error: " << args.error << "\n\n";
    print_lab_usage(std::cerr);
    return 2;
  }
  const std::string invalid = validate(*sc, spec);
  if (!invalid.empty()) {
    std::cerr << "error: invalid scenario parameters: " << invalid << "\n";
    return 2;
  }
  return execute(*sc, spec, args.csv);
}

int lab_validate(const std::string& path) {
  std::ifstream sniff(path);
  if (!sniff) {
    std::cerr << "error: cannot open '" << path << "'\n";
    return 1;
  }
  char first = 0;
  sniff >> first;  // first non-whitespace byte decides the format
  sniff.close();
  if (first == '{') {
    try {
      const ParsedResults parsed = parse_results_file(path);
      std::cout << "ok: scenario '" << parsed.scenario << "', schema v"
                << parsed.version << ", " << parsed.tables.size()
                << " table(s), " << parsed.total_rows() << " row(s)\n";
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  // Anything else is a fault-plan file; the parser reports
  // "<path>: line N: ..." and validate() names the offending event.
  const fault::ParseResult pr = fault::load_fault_plan(path);
  if (!pr.ok()) {
    std::cerr << "error: " << pr.error << "\n";
    return 1;
  }
  const int n = fault::min_processes(pr.plan);
  const std::string verr = fault::validate(pr.plan, n);
  if (!verr.empty()) {
    std::cerr << "error: " << path << ": " << verr << "\n";
    return 1;
  }
  std::cout << "ok: fault plan, " << pr.plan.events.size() << " event(s), "
            << (pr.plan.gsr >= 1
                    ? "gsr @" + std::to_string(pr.plan.gsr)
                    : std::string("no gsr marker (pure-safety plan)"))
            << ", fits n >= " << n << "\n";
  return 0;
}

/// One line describing a finished evaluation, shared by both replay
/// modes.
void print_replay_outcome(std::ostream& os, const adversary::Fitness& f,
                          const fault::FaultPlan& plan, AlgorithmKind kind) {
  os << "verdict: " << adversary::verdict_string(f) << "\n";
  if (f.decision_round >= 0) {
    os << "decided at round " << f.decision_round << " (mean delay "
       << Table::num(f.delay, 2) << " rounds past gsr " << plan.gsr
       << ", bound gsr+" << fault::bound_after_gsr(kind) << ")\n";
  } else if (f.supported) {
    os << "never decided (mean delay " << Table::num(f.delay, 2)
       << " rounds past gsr " << plan.gsr << " observed, bound gsr+"
       << fault::bound_after_gsr(kind) << ")\n";
  } else {
    os << "liveness was not owed: the matrix's reliable plane cannot "
          "carry the algorithm's native model\n";
  }
  os << "score: " << Table::num(f.score, 1) << "\n";
  if (!f.violation.empty()) os << "\n" << f.violation << "\n";
}

/// `timing_lab replay <plan-file-or-inline-spec> [key=value ...]`
///
/// Closes the loop on "violations are reported as replayable plan
/// specs": paste the spec (or an archive entry file) and get the
/// verdict back. Two modes:
///  * archive entries (files starting with "# adversary v1") replay
///    their own recorded evaluation and must reproduce it exactly;
///  * bare plans run under chaos/single's defaults with overrides
///    (algorithm=, n=, leader=, iid_p=, seed=, link_models=, ...),
///    validated as chaos/single validates them; seed= is the trial seed
///    verbatim, so the replay line a chaos violation report ends with
///    replays that exact trial.
/// The plan goes in through the `fault=` override, so a plan file is
/// read once; an archive entry is recognised by the text that load
/// read, whose header lines are plan comments.
/// TIMING_TRACE records one trial per evaluation sample, as `run` does.
/// Exit: 0 clean (archive mode: reproduced), 1 violation, archive drift
/// or an unwritable trace, 2 usage errors.
int lab_replay(int argc, char** argv) {
  const std::string value = argv[2];
  TraceOutput trace;
  const Scenario* chaos = find_scenario("chaos/single");
  TM_CHECK(chaos != nullptr, "chaos/single is always registered");
  ScenarioSpec spec = chaos->defaults();
  apply_override(spec, "fault", value);

  // Archive mode: the file carries its own evaluation config and the
  // outcome it must reproduce.
  const std::string& text = spec.fault_spec.plan().source;
  if (adversary::is_archive_text(text)) {
    if (argc > 3) {
      std::cerr << "error: archive entries replay their recorded "
                   "configuration; they take no key=value overrides\n";
      return 2;
    }
    adversary::ArchiveEntry entry;
    const std::string err = adversary::parse_archive_entry(text, entry);
    if (!err.empty()) {
      std::cerr << "error: " << value << ": " << err << "\n";
      return 2;
    }
    if (!trace.open()) return 1;
    std::cout << "archive entry: algorithm "
              << algorithm_key(entry.eval.algorithm) << ", n=" << entry.eval.n
              << ", leader=" << entry.eval.leader
              << ", eval_seed=" << entry.eval.eval_seed << "\n"
              << "recorded: verdict=" << entry.verdict
              << " delay=" << entry.delay << " decided@"
              << entry.decision_round << " score="
              << Table::num(entry.score, 1) << "\n\n";
    const adversary::Fitness f =
        adversary::evaluate(entry.candidate, entry.eval, trace.trials());
    print_replay_outcome(std::cout, f, entry.candidate.plan,
                         entry.eval.algorithm);
    if (trace.finish("replay") != 0) return 1;
    const bool match = entry.verdict == adversary::verdict_string(f) &&
                       entry.delay == f.delay &&
                       entry.decision_round == f.decision_round &&
                       entry.score == f.score;
    if (!match) {
      std::cerr << "MISMATCH: the replay differs from the recorded "
                   "outcome (engine behavior changed)\n";
      return 1;
    }
    std::cout << "\nreproduced the recorded outcome exactly.\n";
    return 0;
  }

  // Bare-plan mode: chaos/single's defaults, overridable.
  const CliArgs args = apply_cli_args(spec, argc, argv, 3);
  if (args.help) {
    print_lab_usage(std::cout);
    return 0;
  }
  if (!args.error.empty()) {
    std::cerr << "error: " << args.error << "\n";
    return 2;
  }
  const std::string invalid = validate(*chaos, spec);
  if (!invalid.empty()) {
    std::cerr << "error: invalid scenario parameters: " << invalid << "\n";
    return 2;
  }
  if (spec.fault_spec.empty()) {
    std::cerr << "error: replay needs a plan file or inline spec\n";
    return 2;
  }

  adversary::Candidate c;
  c.plan = spec.fault_spec.plan();
  c.link_models = link_model_matrix(spec);
  adversary::EvalConfig eval;
  eval.algorithm = spec.algorithm;
  eval.n = spec.n;
  eval.leader = scenario_leader(spec);
  eval.pre_gsr_p = spec.iid_p;
  eval.eval_seed = spec.seed;  // the trial seed verbatim...
  eval.samples = 1;            // ...for exactly that one trial
  eval.min_rounds = spec.rounds_per_run;

  if (!trace.open()) return 1;
  std::cout << "replaying under algorithm " << algorithm_key(eval.algorithm)
            << ", n=" << eval.n << ", leader=" << eval.leader
            << ", pre_gsr_p=" << Table::num(eval.pre_gsr_p, 2)
            << ", seed=" << eval.eval_seed << "\n\nplan:\n"
            << fault::timeline(c.plan) << "\n";
  const adversary::Fitness f = adversary::evaluate(c, eval, trace.trials());
  print_replay_outcome(std::cout, f, c.plan, eval.algorithm);
  if (trace.finish("replay") != 0) return 1;
  return f.safety_violation || f.liveness_violation ? 1 : 0;
}

}  // namespace

int lab_main(int argc, char** argv) {
  if (argc < 2) {
    print_lab_usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "list") return lab_list();
  if (cmd == "describe") {
    if (argc < 3) {
      std::cerr << "error: describe needs a scenario name\n";
      return 2;
    }
    return lab_describe(argc, argv);
  }
  if (cmd == "run") return lab_run(argc, argv);
  if (cmd == "replay") {
    if (argc < 3) {
      std::cerr << "error: replay needs a plan file or inline spec\n";
      return 2;
    }
    return lab_replay(argc, argv);
  }
  if (cmd == "validate") {
    if (argc < 3) {
      std::cerr << "error: validate needs a results.jsonl path\n";
      return 2;
    }
    return lab_validate(argv[2]);
  }
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_lab_usage(std::cout);
    return 0;
  }
  std::cerr << "error: unknown command '" << cmd << "'\n\n";
  print_lab_usage(std::cerr);
  return 2;
}

}  // namespace timing::scenario
