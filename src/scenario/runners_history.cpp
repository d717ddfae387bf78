// smr/linearizable: the operation-history linearizability gate
// (docs/HISTORY.md). Every trial runs closed-loop clients against an
// SmrGroup of register machines, with each main-phase consensus instance
// executed under its own seeded random fault plan (or the `fault=`
// override verbatim); the recorded invoke/ok/fail/info history must
// admit a linearization of the register spec. A violation prints a
// 1-minimal witness plus the exact replay command.
#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/parser.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "models/schedule.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_config.hpp"
#include "obs/trace_sink.hpp"
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

/// Crash round per process (0 = never) from a plan's crash/recover
/// events: a process that recovers before the instance ends is treated
/// as never-crashed for the schedule's correct-majority bookkeeping,
/// exactly as fault/chaos.cpp does.
std::vector<Round> crash_rounds_of(const fault::FaultPlan& plan, int n) {
  std::vector<Round> open(static_cast<std::size_t>(n), 0);
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kCrash) {
      open[static_cast<std::size_t>(e.proc)] = e.from;
    } else if (e.kind == fault::FaultKind::kRecover) {
      open[static_cast<std::size_t>(e.proc)] = 0;
    }
  }
  return open;
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
  const ProcessId leader =
      spec.leader_policy == LeaderPolicy::kFixed ? spec.leader : 0;

  CorruptMode corrupt = CorruptMode::kNone;
  if (!spec.corrupt_spec.empty() &&
      !corrupt_mode_from_string(spec.corrupt_spec.c_str(), corrupt)) {
    ctx.os() << "error: bad corrupt mode '" << spec.corrupt_spec << "'\n";
    return 1;  // validate() normally catches this earlier
  }

  // A `fault=` override pins one plan for every main-phase instance.
  fault::FaultPlan fixed;
  const bool have_fixed = !spec.fault_spec.empty();
  if (have_fixed) {
    const fault::ParseResult pr = fault::load_fault_plan(spec.fault_spec);
    if (!pr.ok()) {
      ctx.os() << "error: bad fault plan: " << pr.error << "\n";
      return 1;
    }
    fixed = pr.plan;
    if (fixed.gsr < 1) {
      ctx.os() << "error: smr/linearizable needs a terminal `gsr @R` "
                  "marker in the fault plan (instances are capped past "
                  "it); got a plan without one\n";
      return 1;
    }
  }

  const TraceConfig trace = TraceConfig::from_env();
  // Span tracing rides the trace file: TIMING_SPANS=ids|timed adds span
  // (and, for timed, metrics-snapshot) events to each trial's stream.
  const SpanMode span_mode =
      trace.enabled() ? span_mode_from_env() : SpanMode::kOff;
  const int bound = fault::bound_after_gsr(spec.algorithm);
  const bool pipelined = spec.pipeline > 1 || spec.batch > 1;

  const auto trials = run_trials<Trial>(
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

        // Per-trial sink/tracer/registry: single-writer on this trial's
        // pool thread, drained below in trial order (determinism rule).
        BufferSink span_sink;
        SpanTracer tracer(&span_sink, span_mode);
        MetricsRegistry metrics;
        if (span_mode != SpanMode::kOff) {
          ccfg.spans = &tracer;
          ccfg.metrics = &metrics;
        }

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
            scfg.crash_rounds = crash_rounds_of(plan, n);
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
            InstanceEnv env =
                probe_phase
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
            SlotEnv out;
            out.sampler = std::move(env.sampler);
            out.crash_rounds = std::move(env.crash_rounds);
            out.max_rounds = env.max_rounds;
            return out;
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
          r += "replay: timing_lab run smr/linearizable seed=" +
               std::to_string(spec.seed) + " runs=" + std::to_string(t + 1) +
               (have_fixed ? " fault=\"" + spec.fault_spec + "\"" : "") +
               (corrupt != CorruptMode::kNone
                    ? std::string(" corrupt=") + to_string(corrupt)
                    : "") +
               (pipelined ? " pipeline=" + std::to_string(spec.pipeline) +
                                " batch=" + std::to_string(spec.batch)
                          : "") +
               "\n";
          out.report = r;
        }
        if (trace.enabled()) {
          out.events = rep.events;
          if (span_mode != SpanMode::kOff) {
            // Op history first (ts order), then the span stream, then the
            // trial's final latency snapshot (timed mode only).
            emit_metrics_snapshot(&tracer, metrics);
            out.events.insert(out.events.end(), span_sink.events().begin(),
                              span_sink.events().end());
          }
        }
        return out;
      });

  if (trace.enabled()) {
    std::ofstream f(trace.path);
    if (!f) {
      ctx.os() << "error: cannot open trace path " << trace.path << "\n";
      return 1;
    }
    write_trace_header(f, n);
    for (std::size_t t = 0; t < trials.size(); ++t) {
      write_trial(f, static_cast<int>(t), trials[t].events);
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
