// smr/linearizable: the operation-history linearizability gate
// (docs/HISTORY.md). Every trial runs closed-loop clients against an
// SmrGroup of register machines, with each main-phase consensus instance
// executed under its own seeded random fault plan (or the `fault=`
// override verbatim); the recorded invoke/ok/fail/info history must
// admit a linearization of the register spec. A violation prints a
// 1-minimal witness plus the exact replay command.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "models/schedule.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/registry.hpp"
#include "scenario/runners.hpp"
#include "smr/client.hpp"

namespace timing::scenario {

namespace {

/// Maximum number of full witness reports printed; the rest are counted.
constexpr int kMaxReportedViolations = 5;

/// Owns the ScheduleSampler + FaultInjector composition behind one
/// fault-injected instance (FaultInjectedSampler only holds references).
class ChaosInstanceSampler final : public TimelinessSampler {
 public:
  ChaosInstanceSampler(const ScheduleConfig& scfg,
                       const fault::FaultPlan& plan,
                       const fault::InjectorConfig& icfg)
      : sampler_(scfg),
        injector_(plan, icfg),
        injected_(sampler_, injector_) {}

  int n() const noexcept override { return injected_.n(); }
  void sample_round(Round k, LinkMatrix& out) override {
    injected_.sample_round(k, out);
  }
  void sample_round(Round k, PackedLinkMatrix& out) override {
    injected_.sample_round(k, out);
  }

 private:
  ScheduleSampler sampler_;
  fault::FaultInjector injector_;
  fault::FaultInjectedSampler injected_;
};

/// The `timing_lab run` command that re-runs trials 0..t of this gate:
/// its seed, t + 1 trials, and every setting in which the run differs
/// from the scenario's defaults.
std::string replay_command(const ScenarioSpec& spec, std::size_t t,
                           CorruptMode corrupt) {
  const ScenarioSpec d = find_scenario("smr/linearizable")->defaults();
  std::string cmd = "timing_lab run smr/linearizable seed=" +
                    std::to_string(spec.seed) +
                    " runs=" + std::to_string(t + 1);
  const auto add = [&](const char* key, bool differs,
                       const std::string& value) {
    if (differs) cmd += std::string(" ") + key + "=" + value;
  };
  add("n", spec.n != d.n, std::to_string(spec.n));
  add("algorithm", spec.algorithm != d.algorithm,
      algorithm_key(spec.algorithm));
  add("leader", scenario_leader(spec) != scenario_leader(d),
      std::to_string(scenario_leader(spec)));
  add("iid_p", spec.iid_p != d.iid_p, format_double(spec.iid_p));
  add("clients", spec.clients != d.clients, std::to_string(spec.clients));
  add("reg_keys", spec.reg_keys != d.reg_keys, std::to_string(spec.reg_keys));
  add("append_keys", spec.append_keys != d.append_keys,
      std::to_string(spec.append_keys));
  add("rounds_per_run", spec.rounds_per_run != d.rounds_per_run,
      std::to_string(spec.rounds_per_run));
  add("fault", !spec.fault_spec.empty(),
      "\"" + spec.fault_spec.text() + "\"");
  add("corrupt", corrupt != CorruptMode::kNone, to_string(corrupt));
  const bool pipelined = spec.pipeline > 1 || spec.batch > 1;
  add("pipeline", pipelined, std::to_string(spec.pipeline));
  add("batch", pipelined, std::to_string(spec.batch));
  return cmd;
}

struct Trial {
  bool linearizable = true;
  bool consistent = true;
  int ops_ok = 0;
  int ops_fail = 0;
  int ops_info = 0;
  int instances_run = 0;
  int instances_decided = 0;
  std::string report;              ///< "" when ok; else witness + replay
  std::vector<TraceEvent> events;  ///< kept only when tracing
};

}  // namespace

int run_smr_linearizable(const ScenarioSpec& spec, const RunContext& ctx) {
  const int n = spec.n;
  const ProcessId leader = scenario_leader(spec);

  CorruptMode corrupt = CorruptMode::kNone;
  if (!spec.corrupt_spec.empty()) {
    corrupt_mode_from_string(spec.corrupt_spec.c_str(), corrupt);
  }

  // A `fault=` override pins one plan for every main-phase instance.
  const bool have_fixed = !spec.fault_spec.empty();
  const fault::FaultPlan& fixed = spec.fault_spec.plan();

  // Span tracing rides the trace: ids or timed adds span (and, for
  // timed, metrics-snapshot) events to each trial's stream.
  const SpanMode span_mode = ctx.spans;
  const int bound = fault::bound_after_gsr(spec.algorithm);
  const bool pipelined = spec.pipeline > 1 || spec.batch > 1;

  auto trials = run_trials<Trial>(
      static_cast<std::size_t>(spec.runs), [&](std::size_t t) {
        const std::uint64_t trial_seed = substream_seed(spec.seed, t);

        SmrClientConfig ccfg;
        ccfg.n = n;
        ccfg.algorithm = spec.algorithm;
        ccfg.leader = leader;
        ccfg.clients = spec.clients;
        ccfg.reg_keys = spec.reg_keys;
        ccfg.append_keys = spec.append_keys;
        ccfg.seed = substream_seed(trial_seed, 1);
        ccfg.corrupt = corrupt;

        // Per-trial sink/tracer: single-writer on this trial's pool
        // thread, drained below in trial order (determinism rule).
        BufferSink span_sink;
        SpanTracer tracer(&span_sink, span_mode);
        if (span_mode != SpanMode::kOff) ccfg.spans = &tracer;

        // Both harnesses draw instance environments from the same
        // recipe; `probe` marks the fault-free tail.
        auto make_env = [&](std::uint64_t inst_seed, bool probe,
                            std::uint64_t probe_salt) {
          InstanceEnv env;
          ScheduleConfig scfg;
          scfg.n = n;
          scfg.model = fault::native_model(spec.algorithm);
          scfg.leader = leader;
          if (!probe) {
            const fault::FaultPlan plan =
                have_fixed ? fixed
                           : fault::random_fault_plan(n, leader, inst_seed);
            scfg.gsr = plan.gsr;
            scfg.pre_gsr_p = spec.iid_p;
            scfg.seed = substream_seed(inst_seed, 1);
            scfg.crash_rounds = fault::crash_rounds(plan, n);
            fault::InjectorConfig icfg;
            icfg.n = n;
            icfg.leader = leader;
            icfg.seed = substream_seed(inst_seed, 2);
            env.crash_rounds = scfg.crash_rounds;
            env.max_rounds =
                std::max(spec.rounds_per_run, plan.gsr + bound + 4);
            env.sampler =
                std::make_unique<ChaosInstanceSampler>(scfg, plan, icfg);
          } else {
            scfg.gsr = 1;
            scfg.seed = substream_seed(trial_seed, probe_salt);
            env.max_rounds = std::max(spec.rounds_per_run, 1 + bound + 4);
            env.sampler = std::make_unique<ScheduleSampler>(scfg);
          }
          return env;
        };

        const InstanceEnvFactory env_of = [&](int index) {
          if (index < ccfg.instances) {
            // Main phase: every instance runs under its own fault plan.
            return make_env(
                substream_seed(trial_seed,
                               100 + static_cast<std::uint64_t>(index)),
                false, 0);
          }
          // Probe phase: fault-free conforming schedule from round 1.
          return make_env(0, true,
                          1000 + static_cast<std::uint64_t>(index));
        };

        SmrClientReport rep;
        if (pipelined) {
          // Pipelined/batched form of the gate: same clients, op mix and
          // checker, but slots overlap and ops batch. Each (slot,
          // attempt) gets its own fault plan; on_probe_start flips the
          // factory to the fault-free tail.
          SmrPipelineConfig pcfg;
          pcfg.pipeline = spec.pipeline;
          pcfg.batch = spec.batch;
          bool probe_phase = false;
          pcfg.on_probe_start = [&] { probe_phase = true; };
          const SlotEnvFactory slot_env_of = [&](int slot, int attempt) {
            return probe_phase
                       ? make_env(0, true,
                                  1000 +
                                      16 * static_cast<std::uint64_t>(slot) +
                                      static_cast<std::uint64_t>(attempt))
                       : make_env(
                             substream_seed(
                                 substream_seed(
                                     trial_seed,
                                     100 + static_cast<std::uint64_t>(slot)),
                                 static_cast<std::uint64_t>(attempt)),
                             false, 0);
          };
          rep = run_pipelined_smr_clients(ccfg, pcfg, slot_env_of);
        } else {
          rep = run_smr_clients(ccfg, env_of);
        }
        Trial out;
        out.consistent = rep.consistent;
        out.ops_ok = rep.ops_ok;
        out.ops_fail = rep.ops_fail;
        out.ops_info = rep.ops_info;
        out.instances_run = rep.instances_run;
        out.instances_decided = rep.instances_decided;

        const History h = build_history(rep.events);
        const CheckResult check = check_history(h);
        out.linearizable = check.linearizable;
        if (!check.linearizable || !rep.consistent) {
          std::string r = "trial " + std::to_string(t) + " (seed " +
                          std::to_string(spec.seed) + "): ";
          if (!rep.consistent) {
            r += "replica fingerprints diverged after the decided log\n";
          }
          if (!check.linearizable) {
            r += check.witness.explanation + "\n";
            r += "minimal witness (key " +
                 std::to_string(check.witness.key) + "):\n";
            for (const Operation& op : check.witness.ops) {
              r += to_jsonl(op) + "\n";
            }
          }
          r += "replay: " + replay_command(spec, t, corrupt) + "\n" +
               "(it re-runs trials 0.." + std::to_string(t) +
               ", this one last)\n";
          out.report = r;
        }
        if (ctx.trace) {
          out.events = rep.events;
          if (span_mode != SpanMode::kOff) {
            // Op history first (ts order), then the span stream, then the
            // trial's final latency snapshot (timed mode only).
            emit_metrics_snapshot(&tracer, rep.latencies);
            out.events.insert(out.events.end(), span_sink.events().begin(),
                              span_sink.events().end());
          }
        }
        return out;
      });

  if (ctx.trace) {
    for (std::size_t t = 0; t < trials.size(); ++t) {
      ctx.trace->push_back(
          TrialTrace{static_cast<int>(t), n, std::move(trials[t].events)});
    }
  }

  long long ok = 0, fail = 0, info = 0, decided = 0, run = 0;
  int violations = 0;
  std::vector<std::string> reports;
  for (const Trial& trial : trials) {
    ok += trial.ops_ok;
    fail += trial.ops_fail;
    info += trial.ops_info;
    decided += trial.instances_decided;
    run += trial.instances_run;
    if (!trial.report.empty()) {
      ++violations;
      reports.push_back(trial.report);
    }
  }

  Table table({"trials", "instances", "decided", "ops ok", "ops fail",
               "ops info", "non-linearizable"});
  table.add_row({Table::integer(spec.runs), Table::integer(run),
                 Table::integer(decided), Table::integer(ok),
                 Table::integer(fail), Table::integer(info),
                 Table::integer(violations)});
  ctx.emit(table,
           "SMR linearizability gate: " + std::to_string(spec.runs) +
               " trials, n = " + std::to_string(n) + ", leader " +
               std::to_string(leader) + ", " + std::to_string(spec.clients) +
               " clients, " + std::to_string(spec.reg_keys) +
               " register + " + std::to_string(spec.append_keys) +
               " append keys, algorithm " + algorithm_key(spec.algorithm) +
               (corrupt != CorruptMode::kNone
                    ? std::string(", corrupt=") + to_string(corrupt)
                    : "") +
               (pipelined ? ", pipeline=" + std::to_string(spec.pipeline) +
                                ", batch=" + std::to_string(spec.batch)
                          : ""));

  if (violations > 0) {
    ctx.os() << "\n" << violations << " non-linearizable trial(s):\n";
    const int shown = std::min<int>(kMaxReportedViolations,
                                    static_cast<int>(reports.size()));
    for (int i = 0; i < shown; ++i) {
      ctx.os() << "\n" << reports[static_cast<std::size_t>(i)];
    }
    if (shown < static_cast<int>(reports.size())) {
      ctx.os() << "\n(" << reports.size() - static_cast<std::size_t>(shown)
               << " further reports suppressed)\n";
    }
    return 1;
  }
  ctx.os() << "\nAll " << spec.runs
           << " histories are linearizable and all applying replicas "
              "agree on the decided log.\n";
  return 0;
}

}  // namespace timing::scenario
