// hunt: `timing_lab run adversary/search` at its defaults (Paxos, n = 5, a
// 2000-evaluation budget with shrink and polish, the 2000-plan uniform
// baseline, 5 chaos executions per evaluation). Unit of work: one
// budgeted fitness evaluation; hunt h uses the seed itself for h = 0 and
// substream_seed(seed, h) after. Chosen because it is the only workload
// that reaches adversary, and it uses fault, giraf and consensus unlike
// smr_gate: single-decree executions under adversarial plans, each one
// recording and validating a full obs trace. Its cost per evaluation
// follows the search path, so a run averages several hunts.
//
// The hunt is rebuilt here from the calls run_adversary_search makes, so
// the checks can hold the Fitness objects its report rounds; once a run,
// the registry scenario itself must print the same winner.
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "adversary/search.hpp"
#include "adversary/shrink.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_sink.hpp"

namespace perfbench {

namespace {

namespace adv = timing::adversary;

// run_adversary_search's constants (scenario/runners_adversary.cpp).
constexpr std::uint64_t kEvalSalt = 0xe7a1d;
constexpr std::uint64_t kBaselineSalt = 0xba5e;
constexpr std::uint64_t kPolishSalt = 0x90115a;
constexpr int kShrinkTop = 3;
constexpr int kPolishDivisor = 8;

/// Untraced hunts pause every kSearchStepGenerations generations and
/// every kBaselineStep baseline evaluations (about 0.1 s each).
constexpr long long kSearchStepGenerations = 8;
constexpr int kBaselineStep = 128;

/// Every kExecProbeStride-th baseline candidate also has its executions
/// rebuilt from public calls in the traced run.
constexpr int kExecProbeStride = 8;
constexpr std::uint64_t kMutateProbeSalt = 0x70be;

/// Seconds of the traced run's budget per traced hunt (at least one): a
/// fixed count, so its count metrics repeat exactly for a seed.
constexpr int kTracedSecondsPerHunt = 8;

/// A span when tracing, nothing otherwise.
class MaybeScope {
 public:
  MaybeScope(Spans* s, const char* name, long long unit) {
    if (s != nullptr) scope_.emplace(*s, name, unit);
  }

 private:
  std::optional<Scope> scope_;
};

/// What run_adversary_search computes for one seed.
struct HuntResult {
  adv::SearchConfig cfg;
  std::vector<adv::Elite> elites;  ///< the search's final pool
  std::vector<adv::ShrinkResult> winners;  ///< shrunk, polished, best first
  /// The uniform baseline's plans and fitness (kept when tracing).
  std::vector<adv::Candidate> baseline;
  std::vector<adv::Fitness> baseline_fitness;
  bool baseline_safety_violation = false;
  long long budgeted = 0;  ///< search + polish evaluations
  long long signatures = 0;
  double uniform_best = adv::kRejectScore;

  bool beats_baseline() const {
    return winners.front().fitness.score > uniform_best;
  }
  bool any_safety_violation() const {
    bool any = false;
    for (const adv::Elite& e : elites) any |= e.fitness.safety_violation;
    for (const adv::ShrinkResult& w : winners) {
      any |= w.fitness.safety_violation;
    }
    return any || baseline_safety_violation;
  }
};

bool same_outcome(const HuntResult& a, const HuntResult& b) {
  if (a.winners.size() != b.winners.size() || a.budgeted != b.budgeted ||
      a.uniform_best != b.uniform_best || a.signatures != b.signatures) {
    return false;
  }
  for (std::size_t i = 0; i < a.winners.size(); ++i) {
    const adv::ShrinkResult& x = a.winners[i];
    const adv::ShrinkResult& y = b.winners[i];
    if (adv::candidate_hash(x.candidate) != adv::candidate_hash(y.candidate) ||
        !(x.fitness == y.fitness)) {
      return false;
    }
  }
  return true;
}

/// run_adversary_search for `spec`, inside spans when `spans` is set;
/// `pause` (if set) runs between steps of about 0.1 s.
HuntResult run_hunt(const timing::scenario::ScenarioSpec& spec, Spans* spans,
                    long long unit, const Pause& pause = {}) {
  const auto step_done = [&] {
    if (pause) pause();
  };
  if (!spec.link_models.empty() || spec.budget < kShrinkTop) {
    throw std::runtime_error("hunt expects the adversary/search defaults");
  }
  const timing::ProcessId leader =
      spec.leader_policy == timing::scenario::LeaderPolicy::kFixed
          ? spec.leader
          : 0;
  HuntResult out;
  adv::SearchConfig& cfg = out.cfg;
  cfg.mut.n = spec.n;
  cfg.mut.leader = leader;
  cfg.mut.algorithm = spec.algorithm;
  cfg.eval.algorithm = spec.algorithm;
  cfg.eval.n = spec.n;
  cfg.eval.leader = leader;
  cfg.eval.pre_gsr_p = spec.iid_p;
  cfg.eval.eval_seed = timing::substream_seed(spec.seed, kEvalSalt);
  cfg.eval.samples = spec.runs;
  cfg.eval.min_rounds = spec.rounds_per_run;
  cfg.seed = spec.seed;

  MaybeScope whole(spans, "adversary.search", unit);
  adv::AdversarySearch search(cfg);
  const long long target = spec.budget - spec.budget / kPolishDivisor;
  // Stepwise run() calls are byte-identical to run(target): the class
  // raises a target and runs whole generations. Traced, each call is one
  // generation.
  const long long step = spans == nullptr ? kSearchStepGenerations : 1;
  while (search.evaluations() < target) {
    {
      MaybeScope g(spans, "adversary.generation", unit + search.evaluations());
      search.run(std::min<long long>(step * cfg.walkers,
                                     target - search.evaluations()));
    }
    step_done();
  }
  if (search.elites().empty()) {
    throw std::runtime_error("the hunt produced no scorable candidate");
  }
  out.elites = search.elites();
  out.signatures = static_cast<long long>(search.signatures_seen());

  const int top =
      std::min<int>(kShrinkTop, static_cast<int>(out.elites.size()));
  const long long polish_total =
      std::max<long long>(0, spec.budget - search.evaluations());
  const int polish_each = static_cast<int>(polish_total / top);
  long long polish_spent = 0;
  for (int i = 0; i < top; ++i) {
    adv::ShrinkResult w;
    {
      MaybeScope s(spans, "adversary.shrink", unit);
      w = adv::shrink(out.elites[static_cast<std::size_t>(i)].candidate,
                      cfg.mut, cfg.eval);
    }
    adv::PolishResult p;
    {
      MaybeScope s(spans, "adversary.polish", unit);
      p = adv::polish(w.candidate, cfg.mut, cfg.eval,
                      timing::substream_seed(spec.seed ^ kPolishSalt,
                                             static_cast<std::uint64_t>(i)),
                      polish_each);
    }
    polish_spent += p.evaluations;
    if (p.fitness.score > w.fitness.score) {
      MaybeScope s(spans, "adversary.shrink", unit);
      w = adv::shrink(p.candidate, cfg.mut, cfg.eval);
    }
    out.winners.push_back(std::move(w));
    step_done();
  }
  std::stable_sort(out.winners.begin(), out.winners.end(),
                   [](const adv::ShrinkResult& a, const adv::ShrinkResult& b) {
                     return a.fitness.score > b.fitness.score;
                   });
  out.budgeted = search.evaluations() + polish_spent;

  for (int i = 0; i < spec.baseline; ++i) {
    adv::Candidate c = adv::seed_candidate(
        cfg.mut, timing::substream_seed(spec.seed ^ kBaselineSalt,
                                        static_cast<std::uint64_t>(i)));
    adv::Fitness f;
    {
      MaybeScope s(spans, "adversary.evaluate", unit);
      f = adv::evaluate(c, cfg.eval);
    }
    out.uniform_best = std::max(out.uniform_best, f.score);
    out.baseline_safety_violation |= f.safety_violation;
    if (spans != nullptr) {
      out.baseline.push_back(std::move(c));
      out.baseline_fitness.push_back(std::move(f));
    }
    if (i % kBaselineStep == kBaselineStep - 1) step_done();
  }
  return out;
}

/// evaluate()'s chaos executions rebuilt from public calls inside spans;
/// true when they reproduce `expected`.
bool replay_evaluation(const adv::Candidate& c, const adv::EvalConfig& cfg,
                       const adv::Fitness& expected, Spans& spans,
                       long long unit, long long& rounds, long long& events) {
  const int n = cfg.n;
  std::vector<bool> dead(static_cast<std::size_t>(n), false);
  for (const timing::fault::FaultEvent& e : c.plan.events) {
    if (e.kind == timing::fault::FaultKind::kCrash) {
      dead[static_cast<std::size_t>(e.proc)] = true;
    } else if (e.kind == timing::fault::FaultKind::kRecover) {
      dead[static_cast<std::size_t>(e.proc)] = false;
    }
  }
  int correct = 0;
  for (bool d : dead) correct += d ? 0 : 1;

  bool supported = true, safety = false, liveness = false;
  timing::Round decision = -1;
  double delay_sum = 0.0;
  for (int j = 0; j < cfg.samples; ++j) {
    timing::fault::ChaosTrialConfig tc;
    tc.n = n;
    tc.leader = cfg.leader;
    tc.seed = j == 0 ? cfg.eval_seed
                     : timing::substream_seed(cfg.eval_seed,
                                              static_cast<std::uint64_t>(j));
    tc.pre_gsr_p = cfg.pre_gsr_p;
    tc.plan = c.plan;
    tc.link_models = c.link_models;
    tc.max_rounds = std::max(
        cfg.min_rounds,
        c.plan.gsr + timing::fault::bound_after_gsr(cfg.algorithm) + 2);
    timing::BufferSink sink;
    tc.trace = &sink;
    timing::fault::ChaosRunResult r;
    {
      Scope s(spans, "fault.chaos", unit);
      r = timing::fault::run_chaos_algorithm(cfg.algorithm, tc);
    }
    timing::ParsedTrace trace;
    trace.version = timing::kTraceSchemaVersion;
    trace.n = n;
    trace.trials.push_back(timing::TrialTrace{j, n, sink.events()});
    const timing::TrialTrace& trial = trace.trials.front();
    std::string invalid;
    {
      Scope s(spans, "obs.validate", unit);
      invalid = timing::validate_trace(trace);
    }
    {
      Scope s(spans, "obs.summarize", unit);
      timing::summarize_trial(trial, n, {3, 3, 4, 5});
    }
    if (r.safety_ok && !invalid.empty()) return false;
    events += static_cast<long long>(trial.events.size());
    std::vector<timing::Round> decided_at(static_cast<std::size_t>(n), -1);
    for (const timing::TraceEvent& e : trial.events) {
      if (e.kind == timing::EventKind::kRoundStart) ++rounds;
      if (e.kind != timing::EventKind::kDecide) continue;
      if (e.proc < 0 || e.proc >= n) continue;
      auto& slot = decided_at[static_cast<std::size_t>(e.proc)];
      if (slot < 0) slot = e.round;
    }
    for (timing::ProcessId p = 0; p < n; ++p) {
      if (dead[static_cast<std::size_t>(p)]) continue;
      const timing::Round d = decided_at[static_cast<std::size_t>(p)];
      delay_sum +=
          static_cast<double>((d >= 0 ? d : tc.max_rounds) - c.plan.gsr);
    }
    supported = supported && r.liveness_enforced;
    safety = safety || !r.safety_ok;
    liveness = liveness || !r.liveness_ok;
    if (j == 0) decision = r.global_decision_round;
  }
  double delay = delay_sum / (static_cast<double>(correct) * cfg.samples);
  if (!supported && !safety) delay = 0.0;
  return delay == expected.delay && decision == expected.decision_round &&
         supported == expected.supported &&
         safety == expected.safety_violation &&
         liveness == expected.liveness_violation;
}

class Hunt final : public Workload {
 public:
  explicit Hunt(const Options& opt)
      : opt_(opt),
        hunt_(resolve("adversary/search",
                      {"seed=" + std::to_string(opt.seed)})) {}

  void warm() override { run_hunt(spec_for(0, 64), nullptr, 0); }

  /// Engine executions and trace events: containers and allocation.
  Calibration calibration() const override { return Calibration::kHeap; }

  Batch run_batch(long long i, const Pause& pause) override {
    HuntResult h = run_hunt(spec_for(i, 0), nullptr, 0, pause);
    Batch b{h.budgeted, h.any_safety_violation() ? h.budgeted : 0};
    kept_.push_back({std::move(h.elites.front()),
                     std::move(h.winners.front()), h.cfg.eval,
                     h.budgeted, h.beats_baseline()});
    return b;
  }

  long long check(long long done, std::string& why) override;

  Metrics traced(int seconds, Batch& outcome) override;

 private:
  /// The adversary/search spec of hunt `i`; `budget` > 0 gives a small
  /// hunt on another seed (warm-up only).
  timing::scenario::ScenarioSpec spec_for(long long i, int budget) const {
    timing::scenario::ScenarioSpec spec = hunt_.spec;
    spec.seed = hunt_seed(i);
    if (budget > 0) {
      spec.budget = budget;
      spec.baseline = budget;
      spec.seed ^= 0x3a3a;
    }
    return spec;
  }

  std::uint64_t hunt_seed(long long i) const {
    return i == 0 ? opt_.seed
                  : timing::substream_seed(opt_.seed,
                                           static_cast<std::uint64_t>(i));
  }

  /// What a hunt's checks need after the timed region.
  struct Kept {
    adv::Elite best_elite;
    adv::ShrinkResult best_winner;
    adv::EvalConfig eval;
    long long units = 0;
    bool beats_baseline = false;
  };

  Options opt_;
  Resolved hunt_;
  std::vector<Kept> kept_;
};

long long Hunt::check(long long, std::string& why) {
  long long wrong = 0, all = 0;
  for (const Kept& k : kept_) {
    all += k.units;
    const bool same =
        adv::evaluate(k.best_elite.candidate, k.eval) == k.best_elite.fitness &&
        adv::evaluate(k.best_winner.candidate, k.eval) == k.best_winner.fitness;
    if (!same) {
      wrong += k.units;
      why = "a best elite re-evaluates to a different Fitness";
    }
  }

  // The archived minimized plans must replay to their recorded fitness.
  std::string out;
  const Resolved regression = resolve(
      "chaos/regression", {"archive=" + opt_.root + "/tests/golden/adversary"});
  if (run_scenario(regression, false, out) != 0) {
    why = "tests/golden/adversary replay drifted:\n" + out;
    return all;
  }

  // The registry scenario prints the first hunt's winner and verdict.
  Resolved scenario = hunt_;
  scenario.spec.seed = hunt_seed(0);
  const int rc = run_scenario(scenario, false, out);
  const Kept& first = kept_.front();
  const adv::ShrinkResult& best = first.best_winner;
  const std::string winner =
      "(minimized, score " + timing::Table::num(best.fitness.score, 1) +
      ", verdict " + adv::verdict_string(best.fitness) + "):\n" +
      best.candidate.plan.spec() + "\n";
  if ((rc == 0) != first.beats_baseline ||
      out.find(winner) == std::string::npos) {
    why = "adversary/search printed another winner than the rebuilt hunt";
    return all;
  }
  return wrong;
}

Metrics Hunt::traced(int seconds, Batch& outcome) {
  Metrics m;
  Resolved slice = hunt_;
  slice.spec.budget = 320;
  slice.spec.baseline = 320;
  thread_speedups(
      3,
      [&] {
        std::string out;
        run_scenario(slice, false, out);
      },
      m);

  Spans spans;
  double untraced_ns = 0;
  long long units = 0, hunts = 0, beats = 0, signatures = 0;
  long long execs = 0, rounds = 0, events = 0;
  const long long traced_hunts =
      std::max(1, seconds / kTracedSecondsPerHunt);
  for (long long i = 0; i < traced_hunts; ++i) {
    // Untraced and traced hunts alternate which runs first.
    const timing::scenario::ScenarioSpec spec = spec_for(i, 0);
    const auto untraced = [&] {
      const long long t0 = now_ns();
      HuntResult r = run_hunt(spec, nullptr, 0);
      untraced_ns += static_cast<double>(now_ns() - t0);
      return r;
    };
    std::optional<HuntResult> plain;
    if (i % 2 == 0) plain = untraced();
    const HuntResult h = run_hunt(spec, &spans, units);
    if (i % 2 == 1) plain = untraced();

    bool same = same_outcome(*plain, h) && !h.any_safety_violation();
    for (std::size_t k = 0; k < h.baseline.size(); k += kExecProbeStride) {
      same = same && replay_evaluation(h.baseline[k], h.cfg.eval,
                                       h.baseline_fitness[k], spans, units,
                                       rounds, events);
      execs += h.cfg.eval.samples;
    }
    for (int k = 0; k < h.cfg.walkers; ++k) {
      timing::Rng rng = timing::substream(spec.seed ^ kMutateProbeSalt,
                                          static_cast<std::uint64_t>(k));
      const adv::Candidate& parent =
          h.elites[static_cast<std::size_t>(k) % h.elites.size()].candidate;
      Scope s(spans, "adversary.mutate", units);
      adv::mutate(parent, h.cfg.mut, rng);
    }
    outcome.units += h.budgeted;
    if (!same) outcome.failed += h.budgeted;
    units += h.budgeted;
    ++hunts;
    beats += h.beats_baseline() ? 1 : 0;
    signatures += h.signatures;
  }

  const auto us_per = [&](const char* name) {
    return spans.total_ns(name) / 1e3 /
           static_cast<double>(spans.count(name));
  };
  m["adversary.generation_us"] = us_per("adversary.generation");
  m["adversary.evaluate_us"] = us_per("adversary.evaluate");
  m["adversary.mutate_us"] = us_per("adversary.mutate");
  m["adversary.search.self_us_per_unit"] =
      spans.self_ns("adversary.search") / 1e3 / static_cast<double>(units);
  m["adversary.signatures"] =
      static_cast<double>(signatures) / static_cast<double>(hunts);
  m["adversary.beats_baseline"] =
      static_cast<double>(beats) / static_cast<double>(hunts);
  m["fault.chaos.us_per_exec"] = us_per("fault.chaos");
  m["fault.chaos.rounds_per_exec"] =
      static_cast<double>(rounds) / static_cast<double>(execs);
  m["obs.validate.us_per_exec"] = us_per("obs.validate");
  m["obs.summarize.us_per_exec"] = us_per("obs.summarize");
  m["obs.events_per_exec"] =
      static_cast<double>(events) / static_cast<double>(execs);
  m["giraf.engine.self_us_per_exec"] =
      (spans.total_ns("fault.chaos") - spans.total_ns("obs.validate") -
       spans.total_ns("obs.summarize")) /
      1e3 / static_cast<double>(execs);
  m["bench.trace_overhead_frac"] =
      spans.total_ns("adversary.search") / untraced_ns - 1.0;
  return m;
}

}  // namespace

std::unique_ptr<Workload> make_hunt(const Options& opt) {
  return std::make_unique<Hunt>(opt);
}

}  // namespace perfbench
