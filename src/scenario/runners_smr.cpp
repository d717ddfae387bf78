// smr/throughput: load the pipelined, batched replicated log
// (smr/replicated_log.hpp) with closed-loop clients over the calibrated
// LAN/WAN latency testbeds and report ops/sec plus commit-latency
// quantiles — always next to the serialized (pipeline=1, batch=1)
// baseline at the same seeds, so the pipelining win is a column, not a
// second invocation. Time is virtual: one tick = one round timeout, so
// every number is deterministic for a fixed spec and identical across
// TIMING_THREADS settings.
#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "fault/parser.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_config.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/runners.hpp"
#include "sim/latency_model.hpp"
#include "sim/sampler.hpp"
#include "smr/replicated_log.hpp"
#include "smr/state_machine.hpp"

namespace timing::scenario {

namespace {

/// Owns the latency model + timeliness sampler (+ optional fault
/// injection) behind one slot attempt. Fresh per (slot, attempt): a
/// sampler's rounds must be strictly increasing, and each attempt's
/// engine restarts at round 1.
class LoadSlotSampler final : public TimelinessSampler {
 public:
  LoadSlotSampler(const ScenarioSpec& spec, double timeout_ms,
                  std::uint64_t model_seed, const fault::FaultPlan* plan,
                  std::uint64_t inject_seed, ProcessId leader) {
    if (spec.sampler == SamplerKind::kLan) {
      model_ = std::make_unique<LanLatencyModel>(spec.lan, model_seed);
    } else {
      model_ = std::make_unique<WanLatencyModel>(spec.wan, model_seed);
    }
    lat_ = std::make_unique<LatencyTimelinessSampler>(*model_, timeout_ms);
    if (plan != nullptr) {
      fault::InjectorConfig icfg;
      icfg.n = spec.n;
      icfg.leader = leader;
      icfg.seed = inject_seed;
      injector_ = std::make_unique<fault::FaultInjector>(*plan, icfg);
      injected_ =
          std::make_unique<fault::FaultInjectedSampler>(*lat_, *injector_);
    }
  }

  int n() const noexcept override {
    return injected_ ? injected_->n() : lat_->n();
  }
  void sample_round(Round k, LinkMatrix& out) override {
    active().sample_round(k, out);
  }
  void sample_round(Round k, PackedLinkMatrix& out) override {
    active().sample_round(k, out);
  }

 private:
  TimelinessSampler& active() {
    return injected_ ? static_cast<TimelinessSampler&>(*injected_) : *lat_;
  }

  std::unique_ptr<LatencyModel> model_;
  std::unique_ptr<LatencyTimelinessSampler> lat_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FaultInjectedSampler> injected_;
};

struct LoadTrial {
  long long ops_ok = 0;
  long long ops_fail = 0;
  long long ticks = 0;  ///< virtual ticks elapsed (main + drain)
  int slots_committed = 0;
  int slots_abandoned = 0;
  int instances = 0;
  bool consistent = true;
  MetricsRegistry metrics;         ///< op.commit_ns / op.queue_ns (virtual)
  std::vector<TraceEvent> events;  ///< kept only when tracing
};

struct LoadSummary {
  long long ops_ok = 0;
  long long ops_fail = 0;
  long long ticks = 0;
  long long slots_committed = 0;
  long long slots_abandoned = 0;
  long long instances = 0;
  bool consistent = true;
  MetricsRegistry metrics;
  std::vector<LoadTrial> trials;

  double ops_per_sec(double tick_ms) const {
    const double secs =
        static_cast<double>(ticks) * tick_ms / 1000.0;
    return secs > 0.0 ? static_cast<double>(ops_ok) / secs : 0.0;
  }
};

}  // namespace

int run_smr_throughput(const ScenarioSpec& spec, const RunContext& ctx) {
  const double timeout_ms = spec.timeouts_ms.front();
  const ProcessId leader = resolve_leader(spec);
  const long long tick_ns =
      static_cast<long long>(timeout_ms * 1e6);  // virtual-time unit

  // A `fault=` override pins one plan for every main-phase slot attempt
  // (message drops + crash rounds per the plan; the probe-free load loop
  // otherwise runs the raw latency testbed).
  fault::FaultPlan fixed;
  const bool have_fixed = !spec.fault_spec.empty();
  if (have_fixed) {
    const fault::ParseResult pr = fault::load_fault_plan(spec.fault_spec);
    if (!pr.ok()) {
      ctx.os() << "error: bad fault plan: " << pr.error << "\n";
      return 1;
    }
    fixed = pr.plan;
  }
  const int bound = fault::bound_after_gsr(spec.algorithm);

  const TraceConfig trace = TraceConfig::from_env();
  const SpanMode span_mode =
      trace.enabled() ? span_mode_from_env() : SpanMode::kOff;

  // One pass of the load at a given shape; `traced` only for the real
  // (pipelined) pass so the trace holds one stream per trial.
  const auto run_load = [&](int pipeline, int batch, bool traced) {
    const auto trials = run_trials<LoadTrial>(
        static_cast<std::size_t>(spec.runs), [&](std::size_t t) {
          const std::uint64_t trial_seed = substream_seed(spec.seed, t);
          LoadTrial out;

          BufferSink span_sink;
          SpanTracer tracer(&span_sink,
                            traced ? span_mode : SpanMode::kOff);

          ReplicatedLogConfig lcfg;
          lcfg.n = spec.n;
          lcfg.algorithm = spec.algorithm;
          lcfg.leader = leader;
          lcfg.pipeline = pipeline;
          lcfg.batch = batch;
          lcfg.max_rounds_per_instance = std::max(
              spec.rounds_per_run, (have_fixed ? fixed.gsr : 1) + bound + 4);
          if (traced && span_mode != SpanMode::kOff) lcfg.spans = &tracer;
          std::vector<std::unique_ptr<StateMachine>> machines;
          for (int i = 0; i < spec.n; ++i) {
            machines.push_back(std::make_unique<KvStateMachine>());
          }
          const SlotEnvFactory env_of = [&](int slot, int attempt) {
            const std::uint64_t slot_seed = substream_seed(
                trial_seed, 100 + static_cast<std::uint64_t>(slot));
            const std::uint64_t attempt_seed = substream_seed(
                slot_seed, static_cast<std::uint64_t>(attempt));
            SlotEnv env;
            env.sampler = std::make_unique<LoadSlotSampler>(
                spec, timeout_ms, substream_seed(attempt_seed, 1),
                have_fixed ? &fixed : nullptr,
                substream_seed(attempt_seed, 2), leader);
            if (have_fixed) {
              env.crash_rounds.assign(static_cast<std::size_t>(spec.n), 0);
              for (const fault::FaultEvent& e : fixed.events) {
                if (e.kind == fault::FaultKind::kCrash) {
                  env.crash_rounds[static_cast<std::size_t>(e.proc)] =
                      e.from;
                } else if (e.kind == fault::FaultKind::kRecover) {
                  env.crash_rounds[static_cast<std::size_t>(e.proc)] = 0;
                }
              }
            }
            return env;
          };
          ReplicatedLog rlog(lcfg, std::move(machines), env_of);

          const bool sp_on =
              lcfg.spans != nullptr && lcfg.spans->enabled();
          // Closed-loop clients: each keeps exactly one KV write
          // outstanding. Slots commit (or abandon) in submission order,
          // so a FIFO of submitted ops pairs completions back up without
          // encoding client ids into the commands.
          struct Pending {
            int client = 0;
            int rid = 0;
          };
          std::vector<Pending> fifo;
          std::size_t fifo_head = 0;
          std::vector<int> next_rid(static_cast<std::size_t>(spec.clients),
                                    1);
          int in_flight = 0;
          long long op_ordinal = 0;

          auto submit_ops = [&]() {
            // One outstanding op per client; clients take turns in op
            // ordinal order, so the closed loop stays at `clients` ops.
            while (in_flight < spec.clients) {
              const int c = static_cast<int>(
                  op_ordinal % static_cast<long long>(spec.clients));
              const int rid = next_rid[static_cast<std::size_t>(c)]++;
              const std::uint32_t key =
                  static_cast<std::uint32_t>(op_ordinal % 64);
              const Command cmd = make_kv_command(
                  key, static_cast<std::uint32_t>(op_ordinal & 0xFFFFFF));
              ++op_ordinal;
              std::uint64_t op_span = 0;
              if (sp_on) {
                op_span = make_span_id(span_kind::kOp,
                                       static_cast<std::uint64_t>(c),
                                       static_cast<std::uint64_t>(rid));
                lcfg.spans->begin(op_span, 0, span_kind::kOp);
              }
              rlog.submit(cmd, op_span);
              fifo.push_back({c, rid});
              ++in_flight;
            }
          };

          auto handle_committed = [&]() {
            for (const SlotRecord& sr : rlog.take_committed()) {
              out.instances += sr.attempts;
              for (const LogOp& op : sr.ops) {
                const Pending p = fifo[fifo_head++];
                --in_flight;
                if (sr.committed) {
                  ++out.ops_ok;
                  out.metrics.latency("op.commit_ns")
                      .record((sr.committed_tick - op.submit_tick) *
                              tick_ns);
                  out.metrics.latency("op.queue_ns")
                      .record((sr.sealed_tick - op.submit_tick) * tick_ns);
                } else {
                  ++out.ops_fail;
                }
                if (sp_on) {
                  lcfg.spans->end(
                      make_span_id(span_kind::kOp,
                                   static_cast<std::uint64_t>(p.client),
                                   static_cast<std::uint64_t>(p.rid)),
                      span_kind::kOp);
                }
              }
            }
          };

          for (int tick = 0; tick < spec.rounds_per_run; ++tick) {
            submit_ops();
            rlog.tick();
            handle_committed();
          }
          // Drain: everything submitted resolves within the attempt
          // budget; generous virtual-tick ceiling for the fault cases.
          const int drain_cap = 200 * spec.rounds_per_run + 10000;
          for (int tick = 0; tick < drain_cap && !rlog.drained(); ++tick) {
            rlog.tick();
            handle_committed();
          }
          TM_CHECK(rlog.drained(), "load did not drain");

          out.ticks = rlog.now();
          out.slots_committed = rlog.slots_committed();
          out.slots_abandoned = rlog.slots_abandoned();
          out.consistent = rlog.consistent_among(rlog.alive_at_end());
          if (traced && trace.enabled()) {
            out.events = span_sink.events();
          }
          return out;
        });

    LoadSummary sum;
    for (const LoadTrial& trial : trials) {
      sum.ops_ok += trial.ops_ok;
      sum.ops_fail += trial.ops_fail;
      sum.ticks += trial.ticks;
      sum.slots_committed += trial.slots_committed;
      sum.slots_abandoned += trial.slots_abandoned;
      sum.instances += trial.instances;
      sum.consistent = sum.consistent && trial.consistent;
      sum.metrics.merge(trial.metrics);  // trial order: deterministic
    }
    sum.trials = trials;
    return sum;
  };

  const LoadSummary load = run_load(spec.pipeline, spec.batch, true);
  // The serialized baseline that makes the pipelining win a number. At
  // pipeline=1 batch=1 the load IS the baseline; reuse it.
  const bool is_serial = spec.pipeline == 1 && spec.batch == 1;
  const LoadSummary serial = is_serial ? load : run_load(1, 1, false);

  if (trace.enabled()) {
    std::ofstream f(trace.path);
    if (!f) {
      ctx.os() << "error: cannot open trace path " << trace.path << "\n";
      return 1;
    }
    write_trace_header(f, spec.n);
    for (std::size_t t = 0; t < load.trials.size(); ++t) {
      write_trial(f, static_cast<int>(t), load.trials[t].events);
    }
  }

  const LogHistogram* lat = load.metrics.find_latency("op.commit_ns");
  const LogHistogram empty;
  if (lat == nullptr) lat = &empty;
  const double to_ms = 1e-6;
  const double speedup =
      serial.ops_per_sec(timeout_ms) > 0.0
          ? load.ops_per_sec(timeout_ms) / serial.ops_per_sec(timeout_ms)
          : 0.0;

  Table table({"config", "pipeline", "batch", "clients", "ops ok",
               "ops fail", "slots", "abandoned", "ops/sec", "p50 ms",
               "p99 ms", "p999 ms", "speedup"});
  const auto row = [&](const char* name, int pipeline, int batch,
                       const LoadSummary& s, double speed) {
    const LogHistogram* h = s.metrics.find_latency("op.commit_ns");
    if (h == nullptr) h = &empty;
    table.add_row(
        {name, Table::integer(pipeline), Table::integer(batch),
         Table::integer(spec.clients),
         Table::integer(static_cast<double>(s.ops_ok)),
         Table::integer(static_cast<double>(s.ops_fail)),
         Table::integer(static_cast<double>(s.slots_committed)),
         Table::integer(static_cast<double>(s.slots_abandoned)),
         Table::num(s.ops_per_sec(timeout_ms)),
         Table::num(static_cast<double>(h->quantile(0.50)) * to_ms),
         Table::num(static_cast<double>(h->quantile(0.99)) * to_ms),
         Table::num(static_cast<double>(h->quantile(0.999)) * to_ms),
         Table::num(speed)});
  };
  row("pipelined", spec.pipeline, spec.batch, load, speedup);
  if (!is_serial) row("serial", 1, 1, serial, 1.0);

  ctx.emit(table,
           "Replicated-log load: " + to_string(spec.sampler) +
               " profile, timeout " + Table::num(timeout_ms) + " ms, n = " +
               std::to_string(spec.n) + ", leader " +
               std::to_string(leader) + ", " + std::to_string(spec.clients) +
               " closed-loop clients, " + std::to_string(spec.runs) +
               " trials x " + std::to_string(spec.rounds_per_run) +
               " submission ticks, algorithm " +
               algorithm_key(spec.algorithm) +
               (have_fixed ? ", fault=\"" + spec.fault_spec + "\"" : ""));

  if (!load.consistent || !serial.consistent) {
    ctx.os() << "\nerror: applying replicas diverged after the decided "
                "log\n";
    return 1;
  }
  ctx.os() << "\nAll applying replicas agree on the decided log ("
           << load.instances << " instances across " << load.trials.size()
           << " trial(s); " << (is_serial ? 1 : 2)
           << " config(s)).\n";
  return 0;
}

}  // namespace timing::scenario
