// Chaos scenarios: the fault/chaos.hpp safety harness driven by a
// ScenarioSpec. Every trial draws a seeded random fault plan (or replays
// the `fault=` override verbatim), runs the live consensus protocols
// under it, and holds them to the paper's guarantees — safety on every
// trial, decision within the proven bound after the plan's gsr. Any
// violation prints the offending plan spec verbatim and fails the run.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/chaos.hpp"
#include "models/link_model_matrix.hpp"
#include "scenario/runners.hpp"

namespace timing::scenario {

namespace {

/// Maximum number of full violation reports printed verbatim; the rest
/// are counted (each report already replays the whole trial).
constexpr int kMaxReportedViolations = 5;

struct KindTally {
  AlgorithmKind kind = AlgorithmKind::kWlm;
  int trials = 0;
  int safety_violations = 0;
  int liveness_violations = 0;
  int liveness_waived = 0;  ///< granular matrix cannot carry the model
  RunningStats rounds_after_gsr;  ///< decided trials only
  int worst_after_gsr = -1;
  long long fault_events = 0;
};

/// The chaos family kernel shared by chaos/consensus and chaos/single:
/// spec.runs fault plans, each executed under every algorithm in
/// `kinds`. Deterministic in (spec, kinds) for any TIMING_THREADS.
int run_chaos_family(const ScenarioSpec& spec, const RunContext& ctx,
                     const std::vector<AlgorithmKind>& kinds) {
  const int n = spec.n;
  const ProcessId leader = scenario_leader(spec);

  // A `fault=` override pins one plan for every trial; the trial seed
  // then only varies the underlying pre-gsr schedule.
  const bool have_fixed = !spec.fault_spec.empty();
  const fault::FaultPlan& fixed = spec.fault_spec.plan();

  // A `link_models=` override runs every trial's post-gsr schedule under
  // the granular matrix: safety stays unconditional, the liveness bound
  // is only enforced where the reliable plane supports the algorithm.
  const LinkModelMatrix links = link_model_matrix(spec);

  /// What the table and the violation report read of one execution. A
  /// ChaosRunResult also carries its TrialSummary (per-link counts and
  /// decide events), which would stay alive for every trial until the
  /// table is built.
  struct Outcome {
    bool safety_ok = true;
    bool liveness_ok = true;
    bool liveness_enforced = true;
    Round global_decision_round = -1;
    long long fault_events = 0;
    std::string violation;

    bool ok() const noexcept { return safety_ok && liveness_ok; }
  };
  struct Trial {
    Round gsr = -1;
    std::vector<Outcome> per_kind;
  };
  const auto trials = run_trials<Trial>(
      static_cast<std::size_t>(spec.runs), [&](std::size_t t) {
        const std::uint64_t trial_seed = substream_seed(spec.seed, t);
        fault::ChaosTrialConfig cfg;
        cfg.n = n;
        cfg.leader = leader;
        cfg.seed = trial_seed;
        cfg.pre_gsr_p = spec.iid_p;
        cfg.link_models = links;
        // A FaultPlan prvalue on both arms, so the random plan is moved.
        cfg.plan = have_fixed ? fault::FaultPlan(fixed)
                              : fault::random_fault_plan(n, leader, trial_seed);
        Trial out;
        out.gsr = cfg.plan.gsr;
        for (AlgorithmKind k : kinds) {
          cfg.max_rounds =
              fault::round_cap(k, cfg.plan.gsr, spec.rounds_per_run);
          fault::ChaosRunResult r = fault::run_chaos_algorithm(k, cfg);
          out.per_kind.push_back(Outcome{r.safety_ok, r.liveness_ok,
                                         r.liveness_enforced,
                                         r.global_decision_round,
                                         r.summary.fault_events,
                                         std::move(r.violation)});
        }
        return out;
      });

  std::vector<KindTally> tallies;
  for (AlgorithmKind k : kinds) {
    KindTally kt;
    kt.kind = k;
    tallies.push_back(kt);
  }
  std::vector<std::string> violations;
  for (const Trial& trial : trials) {
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const Outcome& r = trial.per_kind[i];
      KindTally& kt = tallies[i];
      ++kt.trials;
      kt.fault_events += r.fault_events;
      if (!r.safety_ok) ++kt.safety_violations;
      if (!r.liveness_ok) ++kt.liveness_violations;
      if (!r.liveness_enforced) ++kt.liveness_waived;
      if (!r.ok()) violations.push_back(r.violation);
      if (r.global_decision_round >= 0) {
        // Rounds past gsr until global decision; <= 0 means the run
        // decided before the network even stabilized.
        const int after = r.global_decision_round - trial.gsr;
        kt.rounds_after_gsr.add(static_cast<double>(after));
        kt.worst_after_gsr = std::max(kt.worst_after_gsr, after);
      }
    }
  }

  Table t({"algorithm", "plans", "safety violations", "liveness violations",
           "mean rounds after gsr", "worst rounds after gsr",
           "bound after gsr", "mean fault events"});
  for (const KindTally& kt : tallies) {
    t.add_row({algorithm_key(kt.kind), Table::integer(kt.trials),
               Table::integer(kt.safety_violations),
               Table::integer(kt.liveness_violations),
               Table::num(kt.rounds_after_gsr.mean(), 2),
               Table::integer(kt.worst_after_gsr),
               "gsr+" + std::to_string(fault::bound_after_gsr(kt.kind)),
               Table::num(kt.trials > 0 ? static_cast<double>(kt.fault_events) /
                                              kt.trials
                                        : 0.0,
                          1)});
  }
  std::string caption =
      "Chaos harness: " + std::to_string(spec.runs) +
      (have_fixed ? " runs of the given fault plan"
                  : " seeded random fault plans") +
      ", n = " + std::to_string(n) + ", leader " + std::to_string(leader) +
      ", pre-gsr link p = " + Table::num(spec.iid_p, 2);
  if (links.n() > 0 && !links.all_sync()) {
    caption += ", granular links (" +
               std::to_string(links.count(LinkModelClass::kSync)) + " sync, " +
               std::to_string(links.count(LinkModelClass::kPartialSync)) +
               " psync, " + std::to_string(links.count(LinkModelClass::kAsync)) +
               " async)";
  }
  ctx.emit(t, caption);

  int waived = 0;
  for (const KindTally& kt : tallies) waived += kt.liveness_waived;
  if (waived > 0) {
    ctx.os() << "\nliveness bound waived for " << waived
             << " execution(s): the matrix's reliable plane cannot carry "
                "the algorithm's native model there (safety was still "
                "enforced).\n";
  }

  if (!violations.empty()) {
    ctx.os() << "\n" << violations.size() << " violation(s):\n";
    const int shown = std::min<int>(kMaxReportedViolations,
                                    static_cast<int>(violations.size()));
    for (int i = 0; i < shown; ++i) {
      ctx.os() << "\n" << violations[static_cast<std::size_t>(i)] << "\n";
    }
    if (shown < static_cast<int>(violations.size())) {
      ctx.os() << "\n(" << violations.size() - shown
               << " further violations suppressed)\n";
    }
    return 1;
  }
  ctx.os() << "\nAll " << spec.runs * static_cast<int>(kinds.size())
           << " executions kept agreement, validity and integrity, and "
              "decided within the paper's bound after gsr"
           << (waived > 0 ? " wherever the granular matrix owed one" : "")
           << ".\n";
  return 0;
}

}  // namespace

int run_chaos_consensus(const ScenarioSpec& spec, const RunContext& ctx) {
  return run_chaos_family(spec, ctx,
                          {AlgorithmKind::kWlm, AlgorithmKind::kEs3,
                           AlgorithmKind::kLm3, AlgorithmKind::kAfm5});
}

int run_chaos_single(const ScenarioSpec& spec, const RunContext& ctx) {
  return run_chaos_family(spec, ctx, {spec.algorithm});
}

}  // namespace timing::scenario
