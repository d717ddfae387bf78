// The chaos safety harness: run the real consensus protocols under
// randomized-but-replayable fault plans and hold them to the paper's
// guarantees — agreement, validity and integrity on EVERY trial (the
// indulgence claim of Sections 2-3: safety under arbitrary asynchrony,
// crashes and loss), and a decision within the algorithm's proven bound
// after the plan's gsr marker (liveness once the model holds).
//
// A violation report quotes the offending plan spec verbatim: paste it
// into `timing_lab run chaos/single fault="<spec>" seed=<seed>` (or a
// plan file) and the trial replays bit for bit.
#pragma once

#include <string>
#include <vector>

#include "consensus/factory.hpp"
#include "fault/plan.hpp"
#include "models/link_model_matrix.hpp"
#include "models/timing_model.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_sink.hpp"

namespace timing::fault {

/// The timing model each algorithm was designed against (drives the
/// post-gsr conforming schedule).
TimingModel native_model(AlgorithmKind k) noexcept;

/// Paper round bound after gsr with a stable leader from gsr-1 (Theorem
/// 10 and the per-algorithm analyses; 60 for Paxos, which has no
/// constant bound under <>WLM).
int bound_after_gsr(AlgorithmKind k) noexcept;

/// A seeded random plan exercising every fault kind: a pre-gsr mix of
/// permanent crashes (never the leader, always leaving a correct
/// majority), a recoverable crash, partitions, probabilistic drops,
/// delays and leader suppression, closed by a gsr marker. Always passes
/// validate(plan, n, leader). The plan is built as data: `source` stays
/// empty, and a violation report formats spec() only when it is written.
FaultPlan random_fault_plan(int n, ProcessId leader, std::uint64_t seed);

/// Whether the reliable plane of `m`, restricted to `alive` processes,
/// still delivers everything `model` guarantees in the homogeneous case:
/// post-gsr the schedule repair only forces reliable links, so an
/// algorithm's proven decision bound is only owed when this holds.
/// Thresholds stay majority_size(m.n()) — crashes and async links both
/// eat into the same fixed quorums.
///  * ES:    every alive<->alive link reliable;
///  * LM:    every alive row has a reliable leader entry and >= maj
///           reliable alive sources;
///  * WLM:   every alive row has a reliable leader entry and the leader
///           row has >= maj reliable alive sources;
///  * AFM:   every alive row and every alive column reach maj.
/// `alive.empty()` means everyone is alive.
bool granular_supports(TimingModel model, ProcessId leader,
                       const LinkModelMatrix& m,
                       const std::vector<bool>& alive);

struct ChaosTrialConfig {
  int n = 5;
  ProcessId leader = 0;
  std::uint64_t seed = 1;
  /// Pre-gsr per-link timeliness of the underlying schedule (the faults
  /// are injected on top of this baseline chaos).
  double pre_gsr_p = 0.4;
  int max_rounds = 500;
  FaultPlan plan;  ///< must pass validate(plan, n, leader) with a gsr
  /// Optional per-link timing assignment (empty = homogeneous). The
  /// post-gsr schedule then only conforms on reliable links; safety is
  /// enforced regardless, the liveness bound only when
  /// granular_supports() says the reliable plane can carry the
  /// algorithm's native model. All-sync is bit-identical to homogeneous.
  LinkModelMatrix link_models;
  /// Optional: receives the full engine + injection trace of the run,
  /// the same events `ChaosRunResult::summary` summarizes, in order.
  TraceSink* trace = nullptr;
};

struct ChaosRunResult {
  AlgorithmKind kind = AlgorithmKind::kWlm;
  bool safety_ok = true;   ///< agreement + validity + integrity + trace
  bool liveness_ok = true; ///< decided, and by gsr + bound_after_gsr
  /// False when the liveness bound was not owed (the granular matrix's
  /// reliable plane cannot support the algorithm's model); liveness_ok
  /// stays true in that case, it was simply never checked.
  bool liveness_enforced = true;
  Round global_decision_round = -1;
  /// summarize_trial over the run's engine + injection trace (R_M =
  /// {3, 3, 4, 5}), recorded whether or not `cfg.trace` is set.
  TrialSummary summary;
  /// "" when ok; otherwise the full replayable report (config line +
  /// verbatim plan spec).
  std::string violation;

  bool ok() const noexcept { return safety_ok && liveness_ok; }
  bool operator==(const ChaosRunResult&) const = default;
};

/// One algorithm under one plan. Deterministic in (kind, cfg). The run's
/// trace is recorded once, into a buffer the calling thread reuses from
/// one execution to the next, and is validated and summarized in place.
ChaosRunResult run_chaos_algorithm(AlgorithmKind kind,
                                   const ChaosTrialConfig& cfg);

}  // namespace timing::fault
