// smr_gate: `timing_lab run smr/linearizable` at its defaults (n = 5, 4
// clients, 2 register keys and 1 append key, serialized WLM instances, a
// fresh random_fault_plan per main-phase instance). Unit of work: one
// trial whose history was checked; trial t runs the scenario with runs=1
// and seed substream_seed(seed, t). Chosen because it is the gate
// developers run and the only workload that reaches smr and history; it
// never touches the latency sampler.
#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "fault/injector.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "models/schedule.hpp"
#include "smr/client.hpp"

namespace perfbench {

namespace {

constexpr long long kTrialsPerBatch = 50;
constexpr std::uint64_t kWarmSalt = 0x3a3a;

/// Trials the traced run replays per second of its budget: a fixed count,
/// so its count metrics repeat exactly for a seed.
constexpr long long kTracedTrialsPerSecond = 400;

/// One trial's row of the scenario's result table.
struct Row {
  bool parsed = false;
  int instances = 0;
  int decided = 0;
  int ok = 0;
  int fail = 0;
  int info = 0;
  int violations = 0;

  bool operator==(const Row&) const = default;
};

Row parse_row(const std::string& csv) {
  Row r;
  const std::string header =
      "trials,instances,decided,ops ok,ops fail,ops info,non-linearizable\n";
  const std::size_t at = csv.find(header);
  if (at == std::string::npos) return r;
  int trials = 0;
  r.parsed = std::sscanf(csv.c_str() + at + header.size(),
                         "%d,%d,%d,%d,%d,%d,%d", &trials, &r.instances,
                         &r.decided, &r.ok, &r.fail, &r.info,
                         &r.violations) == 7 &&
             trials == 1;
  return r;
}

/// Crash round per process from a plan's crash/recover events, as
/// smr/linearizable derives the schedule's crash bookkeeping.
std::vector<timing::Round> crash_rounds_of(const timing::fault::FaultPlan& plan,
                                           int n) {
  std::vector<timing::Round> open(static_cast<std::size_t>(n), 0);
  for (const timing::fault::FaultEvent& e : plan.events) {
    if (e.kind == timing::fault::FaultKind::kCrash) {
      open[static_cast<std::size_t>(e.proc)] = e.from;
    } else if (e.kind == timing::fault::FaultKind::kRecover) {
      open[static_cast<std::size_t>(e.proc)] = 0;
    }
  }
  return open;
}

/// smr/linearizable's instance sampler (a ScheduleSampler, under a
/// FaultInjector in the main phase) timing every round it samples. The
/// time lands in the open span as models.schedule leaf work.
class TimedSchedule final : public timing::TimelinessSampler {
 public:
  TimedSchedule(Spans& spans, const timing::ScheduleConfig& scfg,
                const timing::fault::FaultPlan* plan,
                const timing::fault::InjectorConfig& icfg)
      : spans_(spans), sampler_(scfg) {
    if (plan != nullptr) {
      injector_.emplace(*plan, icfg);
      injected_.emplace(sampler_, *injector_);
    }
  }
  ~TimedSchedule() override { spans_.leaf("models.schedule", ns_, rounds_); }
  TimedSchedule(const TimedSchedule&) = delete;
  TimedSchedule& operator=(const TimedSchedule&) = delete;

  int n() const noexcept override { return sampler_.n(); }
  void sample_round(timing::Round k, timing::LinkMatrix& out) override {
    const long long t0 = now_ns();
    inner().sample_round(k, out);
    tally(t0);
  }
  void sample_round(timing::Round k, timing::PackedLinkMatrix& out) override {
    const long long t0 = now_ns();
    inner().sample_round(k, out);
    tally(t0);
  }
  timing::FusedRoundEval sample_round_and_evaluate(
      timing::Round k, timing::ProcessId leader, timing::PackedLinkMatrix& out,
      timing::ColumnDeficits& cols) override {
    const long long t0 = now_ns();
    const timing::FusedRoundEval e =
        inner().sample_round_and_evaluate(k, leader, out, cols);
    tally(t0);
    return e;
  }

 private:
  timing::TimelinessSampler& inner() {
    if (injected_) return *injected_;
    return sampler_;
  }
  void tally(long long t0) {
    ns_ += now_ns() - t0;
    ++rounds_;
  }

  Spans& spans_;
  timing::ScheduleSampler sampler_;
  std::optional<timing::fault::FaultInjector> injector_;
  std::optional<timing::fault::FaultInjectedSampler> injected_;
  long long ns_ = 0;
  long long rounds_ = 0;
};

class SmrGate final : public Workload {
 public:
  explicit SmrGate(const Options& opt)
      : opt_(opt), gate_(resolve("smr/linearizable", overrides(opt, true))) {}

  void warm() override {
    for (std::uint64_t k = 0; k < 200; ++k) {
      run_trial(timing::substream_seed(opt_.seed ^ kWarmSalt, k));
    }
  }

  /// Engine, replicas and histories: containers and allocation.
  Calibration calibration() const override { return Calibration::kHeap; }

  Batch run_batch(long long i, const Pause&) override {
    Batch b;
    for (long long t = i * kTrialsPerBatch; t < (i + 1) * kTrialsPerBatch;
         ++t) {
      const Row row = run_trial(trial_seed(t));
      ++b.units;
      if (!row.parsed || row.violations != 0) ++b.failed;
    }
    return b;
  }

  /// The scenario checks every history itself; run_batch counted it.
  long long check(long long, std::string&) override { return 0; }

  Metrics traced(int seconds, Batch& outcome) override;

 private:
  static std::vector<std::string> overrides(const Options& opt, bool single) {
    std::vector<std::string> o = {"seed=" + std::to_string(opt.seed)};
    if (single) o.push_back("runs=1");
    if (!opt.corrupt.empty()) o.push_back("corrupt=" + opt.corrupt);
    return o;
  }

  std::uint64_t trial_seed(long long t) const {
    return timing::substream_seed(opt_.seed, static_cast<std::uint64_t>(t));
  }

  Row run_trial(std::uint64_t seed) {
    gate_.spec.seed = seed;
    std::string out;
    const int rc = run_scenario(gate_, true, out);
    Row row = parse_row(out);
    row.parsed = row.parsed && (rc == 0) == (row.violations == 0);
    return row;
  }

  /// The trial smr/linearizable runs for `seed` with runs=1, rebuilt from
  /// the layers' public calls inside spans.
  Row replay_trial(std::uint64_t seed, Spans& spans, long long unit) const;

  Options opt_;
  Resolved gate_;
};

Row SmrGate::replay_trial(std::uint64_t seed, Spans& spans,
                          long long unit) const {
  const timing::scenario::ScenarioSpec& spec = gate_.spec;
  const int n = spec.n;
  const timing::ProcessId leader =
      spec.leader_policy == timing::scenario::LeaderPolicy::kFixed
          ? spec.leader
          : 0;
  const std::uint64_t trial = timing::substream_seed(seed, 0);
  const int bound = timing::fault::bound_after_gsr(spec.algorithm);

  timing::SmrClientConfig ccfg;
  ccfg.n = n;
  ccfg.algorithm = spec.algorithm;
  ccfg.leader = leader;
  ccfg.clients = spec.clients;
  ccfg.reg_keys = spec.reg_keys;
  ccfg.append_keys = spec.append_keys;
  ccfg.seed = timing::substream_seed(trial, 1);
  if (!spec.corrupt_spec.empty()) {
    timing::corrupt_mode_from_string(spec.corrupt_spec.c_str(), ccfg.corrupt);
  }

  const timing::InstanceEnvFactory env_of = [&](int index) {
    timing::InstanceEnv env;
    timing::ScheduleConfig scfg;
    scfg.n = n;
    scfg.model = timing::fault::native_model(spec.algorithm);
    scfg.leader = leader;
    timing::fault::InjectorConfig icfg;
    if (index < ccfg.instances) {
      const std::uint64_t inst =
          timing::substream_seed(trial, 100 + static_cast<std::uint64_t>(index));
      timing::fault::FaultPlan plan;
      {
        Scope s(spans, "fault.plan", unit);
        plan = timing::fault::random_fault_plan(n, leader, inst);
      }
      scfg.gsr = plan.gsr;
      scfg.pre_gsr_p = spec.iid_p;
      scfg.seed = timing::substream_seed(inst, 1);
      scfg.crash_rounds = crash_rounds_of(plan, n);
      icfg.n = n;
      icfg.leader = leader;
      icfg.seed = timing::substream_seed(inst, 2);
      env.crash_rounds = scfg.crash_rounds;
      env.max_rounds = std::max(spec.rounds_per_run, plan.gsr + bound + 4);
      env.sampler = std::make_unique<TimedSchedule>(spans, scfg, &plan, icfg);
    } else {
      scfg.gsr = 1;
      scfg.seed = timing::substream_seed(
          trial, 1000 + static_cast<std::uint64_t>(index));
      env.max_rounds = std::max(spec.rounds_per_run, 1 + bound + 4);
      env.sampler =
          std::make_unique<TimedSchedule>(spans, scfg, nullptr, icfg);
    }
    return env;
  };

  Scope whole(spans, "smr.trial", unit);
  timing::SmrClientReport rep;
  {
    Scope s(spans, "smr.clients", unit);
    rep = timing::run_smr_clients(ccfg, env_of);
  }
  timing::History h;
  {
    Scope s(spans, "history.build", unit);
    h = timing::build_history(rep.events);
  }
  timing::CheckResult check;
  {
    Scope s(spans, "history.check", unit);
    check = timing::check_history(h);
  }
  Row row;
  row.parsed = true;
  row.instances = rep.instances_run;
  row.decided = rep.instances_decided;
  row.ok = rep.ops_ok;
  row.fail = rep.ops_fail;
  row.info = rep.ops_info;
  row.violations = check.linearizable && rep.consistent ? 0 : 1;
  return row;
}

Metrics SmrGate::traced(int seconds, Batch& outcome) {
  Metrics m;
  Resolved gate = resolve("smr/linearizable", overrides(opt_, false));
  thread_speedups(
      5,
      [&] {
        std::string out;
        run_scenario(gate, false, out);
      },
      m);

  Spans spans;
  double untraced_ns = 0;
  long long trials = 0, instances = 0, decided = 0, ops = 0, info = 0;
  for (long long t = 0; t < seconds * kTracedTrialsPerSecond; ++t) {
    const long long t0 = now_ns();
    const Row row = run_trial(trial_seed(t));
    untraced_ns += static_cast<double>(now_ns() - t0);
    const Row replay = replay_trial(trial_seed(t), spans, t);
    ++outcome.units;
    if (!(row == replay)) ++outcome.failed;
    ++trials;
    instances += replay.instances;
    decided += replay.decided;
    ops += replay.ok + replay.fail + replay.info;
    info += replay.info;
  }

  const double per_unit = 1.0 / static_cast<double>(trials);
  m["fault.plan.us_per_plan"] = spans.total_ns("fault.plan") / 1e3 /
                                static_cast<double>(spans.count("fault.plan"));
  m["fault.plan.plans_per_unit"] =
      static_cast<double>(spans.count("fault.plan")) * per_unit;
  m["models.schedule.ns_per_round"] =
      spans.total_ns("models.schedule") /
      static_cast<double>(spans.count("models.schedule"));
  m["models.schedule.rounds_per_unit"] =
      static_cast<double>(spans.count("models.schedule")) * per_unit;
  m["smr.clients.self_us_per_unit"] =
      spans.self_ns("smr.clients") / 1e3 * per_unit;
  m["smr.instances_per_unit"] = static_cast<double>(instances) * per_unit;
  m["smr.decided_frac"] =
      static_cast<double>(decided) / static_cast<double>(instances);
  m["smr.ops_per_unit"] = static_cast<double>(ops) * per_unit;
  m["smr.ops_info_frac"] =
      static_cast<double>(info) / static_cast<double>(ops);
  m["history.build_us_per_unit"] =
      spans.total_ns("history.build") / 1e3 * per_unit;
  m["history.check_us_per_unit"] =
      spans.total_ns("history.check") / 1e3 * per_unit;
  m["bench.trace_overhead_frac"] =
      spans.total_ns("smr.trial") / untraced_ns - 1.0;
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_smr_gate(const Options& opt) {
  return std::make_unique<SmrGate>(opt);
}

}  // namespace perfbench
