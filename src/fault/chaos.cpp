#include "fault/chaos.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "giraf/engine.hpp"
#include "models/schedule.hpp"
#include "obs/trace_analysis.hpp"
#include "oracles/omega.hpp"

namespace timing::fault {

TimingModel native_model(AlgorithmKind k) noexcept {
  switch (k) {
    case AlgorithmKind::kEs3: return TimingModel::kEs;
    case AlgorithmKind::kLm3: return TimingModel::kLm;
    case AlgorithmKind::kAfm5: return TimingModel::kAfm;
    default: return TimingModel::kWlm;
  }
}

int bound_after_gsr(AlgorithmKind k) noexcept {
  switch (k) {
    case AlgorithmKind::kEs3: return 2;
    case AlgorithmKind::kLm3: return 2;
    case AlgorithmKind::kWlm: return 4;
    case AlgorithmKind::kAfm5: return 4;
    case AlgorithmKind::kLmOverWlm: return 7;
    case AlgorithmKind::kPaxos: return 60;  // no constant bound in <>WLM
  }
  return 0;
}

FaultPlan random_fault_plan(int n, ProcessId leader, std::uint64_t seed) {
  TM_CHECK(n >= 3, "chaos plans need n >= 3");
  Rng r(substream_seed(seed, 0x5fa17));
  FaultPlan plan;
  const Round gsr = 6 + static_cast<Round>(r.uniform_int(10));  // [6, 16)

  auto window = [&](Round max_to) {
    const Round from = 1 + static_cast<Round>(r.uniform_int(
                               static_cast<std::uint64_t>(gsr - 1)));
    const Round to =
        from + 1 +
        static_cast<Round>(r.uniform_int(
            static_cast<std::uint64_t>(std::max<Round>(1, max_to - from))));
    return std::pair<Round, Round>{from, std::min(to, max_to)};
  };

  // Permanent crashes: never the leader, never more than the spare
  // minority (a correct majority must survive for post-gsr liveness).
  std::vector<bool> crashed(static_cast<std::size_t>(n), false);
  const int spare = n - majority_size(n);
  const int permanent = static_cast<int>(
      r.uniform_int(static_cast<std::uint64_t>(spare) + 1));
  for (int c = 0; c < permanent; ++c) {
    ProcessId p = static_cast<ProcessId>(r.uniform_int(
        static_cast<std::uint64_t>(n)));
    if (p == leader || crashed[static_cast<std::size_t>(p)]) continue;
    crashed[static_cast<std::size_t>(p)] = true;
    FaultEvent e;
    e.kind = FaultKind::kCrash;
    e.proc = p;
    e.from = 1 + static_cast<Round>(
                     r.uniform_int(static_cast<std::uint64_t>(gsr - 1)));
    plan.events.push_back(e);
  }

  // One recoverable crash (any process not already down, leader
  // included — it is back, hence correct, by gsr).
  if (r.bernoulli(0.5) && gsr >= 3) {
    const ProcessId p = static_cast<ProcessId>(
        r.uniform_int(static_cast<std::uint64_t>(n)));
    if (!crashed[static_cast<std::size_t>(p)]) {
      FaultEvent crash;
      crash.kind = FaultKind::kCrash;
      crash.proc = p;
      crash.from = 1 + static_cast<Round>(r.uniform_int(
                           static_cast<std::uint64_t>(gsr - 2)));
      FaultEvent recover;
      recover.kind = FaultKind::kRecover;
      recover.proc = p;
      recover.from =
          crash.from + 1 +
          static_cast<Round>(r.uniform_int(
              static_cast<std::uint64_t>(gsr - crash.from)));
      plan.events.push_back(crash);
      plan.events.push_back(recover);
    }
  }

  // A two-group partition over a random nonempty proper subset.
  if (r.bernoulli(0.6)) {
    std::vector<ProcessId> a, b;
    for (ProcessId p = 0; p < n; ++p) {
      (r.bernoulli(0.5) ? a : b).push_back(p);
    }
    if (!a.empty() && !b.empty()) {
      FaultEvent e;
      e.kind = FaultKind::kPartition;
      e.groups = {a, b};
      std::tie(e.from, e.to) = window(gsr);
      plan.events.push_back(e);
    }
  }

  // A probabilistic drop rule, sometimes on a wildcard endpoint.
  if (r.bernoulli(0.7)) {
    FaultEvent e;
    e.kind = FaultKind::kDrop;
    e.src = r.bernoulli(0.3)
                ? kNoProcess
                : static_cast<ProcessId>(
                      r.uniform_int(static_cast<std::uint64_t>(n)));
    do {
      e.dst = r.bernoulli(0.3)
                  ? kNoProcess
                  : static_cast<ProcessId>(
                        r.uniform_int(static_cast<std::uint64_t>(n)));
    } while (e.dst != kNoProcess && e.dst == e.src);
    e.prob = 0.25 + 0.75 * r.uniform();
    std::tie(e.from, e.to) = window(gsr);
    plan.events.push_back(e);
  }

  // An extra-latency rule on one directed link.
  if (r.bernoulli(0.5)) {
    FaultEvent e;
    e.kind = FaultKind::kDelay;
    e.src = static_cast<ProcessId>(
        r.uniform_int(static_cast<std::uint64_t>(n)));
    do {
      e.dst = static_cast<ProcessId>(
          r.uniform_int(static_cast<std::uint64_t>(n)));
    } while (e.dst == e.src);
    e.extra_ms = 1.0 + static_cast<double>(r.uniform_int(4));
    std::tie(e.from, e.to) = window(gsr);
    plan.events.push_back(e);
  }

  // Silence the leader for a stretch.
  if (r.bernoulli(0.5)) {
    FaultEvent e;
    e.kind = FaultKind::kSuppressLeader;
    std::tie(e.from, e.to) = window(gsr);
    plan.events.push_back(e);
  }

  FaultEvent end;
  end.kind = FaultKind::kGsr;
  end.from = gsr;
  plan.events.push_back(end);
  plan.gsr = gsr;

  TM_CHECK(validate(plan, n, leader).empty(),
           "random_fault_plan produced an invalid plan");
  return plan;
}

bool granular_supports(TimingModel model, ProcessId leader,
                       const LinkModelMatrix& m,
                       const std::vector<bool>& alive) {
  const int n = m.n();
  TM_CHECK(n > 0, "granular_supports needs a sized matrix");
  TM_CHECK(alive.empty() || static_cast<int>(alive.size()) == n,
           "alive mask must be empty or have n entries");
  auto is_alive = [&](ProcessId p) {
    return alive.empty() || alive[static_cast<std::size_t>(p)];
  };
  const int maj = majority_size(n);
  auto row_count = [&](ProcessId d) {
    int c = 0;
    for (ProcessId s = 0; s < n; ++s) {
      if (is_alive(s) && m.reliable(d, s)) ++c;
    }
    return c;
  };
  auto col_count = [&](ProcessId s) {
    int c = 0;
    for (ProcessId d = 0; d < n; ++d) {
      if (is_alive(d) && m.reliable(d, s)) ++c;
    }
    return c;
  };

  switch (model) {
    case TimingModel::kEs:
      for (ProcessId d = 0; d < n; ++d) {
        if (!is_alive(d)) continue;
        for (ProcessId s = 0; s < n; ++s) {
          if (is_alive(s) && !m.reliable(d, s)) return false;
        }
      }
      return true;
    case TimingModel::kLm:
      for (ProcessId d = 0; d < n; ++d) {
        if (!is_alive(d)) continue;
        if (!m.reliable(d, leader)) return false;
        if (row_count(d) < maj) return false;
      }
      return true;
    case TimingModel::kWlm:
      for (ProcessId d = 0; d < n; ++d) {
        if (is_alive(d) && !m.reliable(d, leader)) return false;
      }
      return row_count(leader) >= maj;
    case TimingModel::kAfm:
      for (ProcessId p = 0; p < n; ++p) {
        if (!is_alive(p)) continue;
        if (row_count(p) < maj || col_count(p) < maj) return false;
      }
      return true;
  }
  return false;
}

int round_cap(AlgorithmKind k, Round gsr, int floor) noexcept {
  return std::max(floor, gsr + bound_after_gsr(k) + 2);
}

std::string replay_command(AlgorithmKind kind, const ChaosTrialConfig& cfg) {
  std::string cmd = "timing_lab replay \"" + inline_spec(cfg.plan) +
                    "\" algorithm=" + algorithm_key(kind) +
                    " n=" + std::to_string(cfg.n) +
                    " leader=" + std::to_string(cfg.leader) +
                    " iid_p=" + format_double(cfg.pre_gsr_p) +
                    " seed=" + std::to_string(cfg.seed);
  if (cfg.max_rounds != round_cap(kind, cfg.plan.gsr, kChaosRoundFloor)) {
    cmd += " rounds_per_run=" + std::to_string(cfg.max_rounds);
  }
  if (cfg.link_models.n() > 0 && !cfg.link_models.all_sync()) {
    cmd += " link_models=\"" + cfg.link_models.spec() + "\"";
  }
  return cmd;
}

namespace {

std::string violation_report(const char* what, AlgorithmKind kind,
                             const ChaosTrialConfig& cfg,
                             const ChaosRunResult& r,
                             const std::string& detail) {
  std::ostringstream os;
  os << "chaos violation: " << what << " (algorithm="
     << algorithm_key(kind) << " n=" << cfg.n << " leader=" << cfg.leader
     << " seed=" << cfg.seed << " pre_gsr_p=" << cfg.pre_gsr_p
     << " gsr=" << cfg.plan.gsr << " decided_at="
     << r.global_decision_round << " bound=gsr+"
     << bound_after_gsr(kind) << ")";
  if (cfg.link_models.n() > 0 && !cfg.link_models.all_sync()) {
    os << "\nlink models: "
       << cfg.link_models.count(LinkModelClass::kSync) << " sync, "
       << cfg.link_models.count(LinkModelClass::kPartialSync) << " psync, "
       << cfg.link_models.count(LinkModelClass::kAsync) << " async";
  }
  if (!detail.empty()) os << "\n" << detail;
  std::string plan =
      cfg.plan.source.empty() ? cfg.plan.spec() : cfg.plan.source;
  if (!plan.empty() && plan.back() != '\n') plan += '\n';
  os << "\nfault plan (replayable):\n" << plan
     << "replay: " << replay_command(kind, cfg);
  return os.str();
}

}  // namespace

ChaosRunResult run_chaos_algorithm(AlgorithmKind kind,
                                   const ChaosTrialConfig& cfg) {
  const int n = cfg.n;
  TM_CHECK(cfg.plan.gsr >= 1, "chaos trials need a plan with a gsr marker");
  TM_CHECK(validate(cfg.plan, n, cfg.leader).empty(),
           "chaos trial plan failed validation");

  ChaosRunResult out;
  out.kind = kind;

  std::vector<Value> proposals(static_cast<std::size_t>(n));
  for (ProcessId i = 0; i < n; ++i) proposals[static_cast<std::size_t>(i)] =
      100 + i;

  ScheduleConfig sched;
  sched.n = n;
  sched.model = native_model(kind);
  sched.leader = cfg.leader;
  sched.gsr = cfg.plan.gsr;
  sched.pre_gsr_p = cfg.pre_gsr_p;
  sched.seed = cfg.seed;
  TM_CHECK(cfg.link_models.n() == 0 || cfg.link_models.n() == n,
           "link_models size must match the chaos trial's n");
  sched.link_models = cfg.link_models;

  // Permanent (never-recovered) crashes stop the process itself, not
  // just its links: the engine halts it and the post-gsr schedule repair
  // draws its forced majorities from survivors.
  const std::vector<Round> crashes = crash_rounds(cfg.plan, n);

  auto protocols = make_group(kind, proposals);
  auto oracle = std::make_shared<UnstableOracle>(
      n, cfg.leader, cfg.plan.gsr - 1, cfg.seed ^ 0x9e37);
  RoundEngine engine(std::move(protocols), oracle);

  // One trace buffer per thread, cleared here and so carrying nothing
  // from one execution to the next. The pool's workers are long-lived:
  // the buffer's capacity settles at the longest execution, and
  // recording stops allocating.
  thread_local BufferSink sink;
  sink.clear();
  engine.set_trace_sink(&sink);

  bool any_permanent = false;
  for (ProcessId i = 0; i < n; ++i) {
    const Round r = crashes[static_cast<std::size_t>(i)];
    if (r > 0) {
      engine.crash_at(i, r);
      any_permanent = true;
    }
  }
  if (any_permanent) sched.crash_rounds = crashes;

  ScheduleSampler sampler(sched);
  InjectorConfig icfg;
  icfg.n = n;
  icfg.leader = cfg.leader;
  icfg.seed = cfg.seed;
  icfg.sink = &sink;
  FaultInjector injector(cfg.plan, icfg);
  FaultInjectedSampler chaos_sampler(sampler, injector);

  const Round decided_at = engine.run(chaos_sampler, cfg.max_rounds);
  out.global_decision_round = decided_at;

  // --- Safety: agreement + validity over every decider ---------------
  Value decided = kNoValue;
  std::string detail;
  for (ProcessId i = 0; i < n; ++i) {
    const Protocol& p = engine.process(i);
    if (!p.has_decided()) continue;
    const Value v = p.decision();
    if (decided == kNoValue) {
      decided = v;
    } else if (decided != v) {
      out.safety_ok = false;
      detail = "process " + std::to_string(i) + " decided " +
               std::to_string(v) + " but another process decided " +
               std::to_string(decided);
      out.violation = violation_report("agreement", kind, cfg, out, detail);
      break;
    }
    if (std::find(proposals.begin(), proposals.end(), v) ==
        proposals.end()) {
      out.safety_ok = false;
      detail = "process " + std::to_string(i) + " decided " +
               std::to_string(v) + ", which no process proposed";
      out.violation = violation_report("validity", kind, cfg, out, detail);
      break;
    }
  }

  // --- Integrity + structural trace check -----------------------------
  const std::vector<TraceEvent>& events = sink.events();
  if (out.safety_ok) {
    const std::string trace_err = validate_trial(events);
    if (!trace_err.empty()) {
      out.safety_ok = false;
      out.violation = violation_report("integrity (trace invariant)", kind,
                                       cfg, out, trace_err);
    }
  }
  out.summary = summarize_trial(events, n, {3, 3, 4, 5});

  // --- Liveness: decision within the paper bound after gsr ------------
  // Only owed when the post-gsr schedule actually delivers the
  // algorithm's native model: under a granular matrix the repair forces
  // reliable links only, so if the reliable plane (restricted to the
  // processes still alive at the end) cannot carry the model, the bound
  // never applied. Safety above is unconditional either way.
  if (cfg.link_models.n() > 0 && !cfg.link_models.all_sync()) {
    std::vector<bool> alive_mask(static_cast<std::size_t>(n));
    for (ProcessId i = 0; i < n; ++i) {
      alive_mask[static_cast<std::size_t>(i)] =
          crashes[static_cast<std::size_t>(i)] <= 0;
    }
    out.liveness_enforced = granular_supports(native_model(kind), cfg.leader,
                                              cfg.link_models, alive_mask);
  }
  if (out.safety_ok && out.liveness_enforced) {
    const Round bound = cfg.plan.gsr + bound_after_gsr(kind);
    if (decided_at < 0) {
      out.liveness_ok = false;
      out.violation = violation_report(
          "liveness (no decision)", kind, cfg, out,
          "no global decision within max_rounds=" +
              std::to_string(cfg.max_rounds));
    } else if (decided_at > bound) {
      out.liveness_ok = false;
      out.violation =
          violation_report("liveness (bound exceeded)", kind, cfg, out, "");
    }
  }

  if (cfg.trace != nullptr) {
    for (const TraceEvent& e : events) cfg.trace->record(e);
  }
  return out;
}

}  // namespace timing::fault
