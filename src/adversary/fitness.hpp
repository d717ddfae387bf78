// Fitness: what makes one adversary worse (better) than another.
//
// A candidate is scored by `samples` deterministic chaos executions
// (fault::run_chaos_algorithm) under a FIXED family of evaluation seeds
// shared by every candidate in a search — plans compete on structure,
// not on lucky pre-gsr schedules. A single integer decision delay under
// a single seed turned out to be a nearly flat, noise-dominated fitness
// landscape: best-of-N uniform sampling wins that race on extreme-value
// luck alone. Averaging the *per-process* decision delays over several
// seeds compresses the luck (the noise shrinks like 1/sqrt(samples))
// while the structural signal — what the schedule does to the protocol
// state carried across gsr — survives and becomes climbable. The score
// is tiered:
//
//   safety violation    kSafetyScore  + delay   (immediate elite: the
//                                                search found a bug)
//   liveness violation  kLivenessScore + delay  (decided past the bound,
//                                                or never while owed)
//   ordinary            delay = mean per-correct-process decision round
//                               minus gsr, averaged over the samples
//   unsupported matrix  kRejectScore  (liveness was never owed — an
//                                      infinite "delay" that means
//                                      nothing; the walker discards it)
//
// Each evaluation also produces a coverage signature: a stable hash of
// the run's failure *shape* drawn from the chaos harness's summary of
// each validated trace (fault kinds actually fired, oracle leader-span
// count, message-fate fractions, per-class csat conformance buckets,
// outcome tier). The search grants novelty credit for unseen signatures
// so it keeps exploring distinct shapes instead of re-finding one; the
// signature deliberately excludes the exact delay, which the score
// already carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/candidate.hpp"
#include "consensus/factory.hpp"
#include "obs/trace_analysis.hpp"

namespace timing::adversary {

inline constexpr double kSafetyScore = 1e6;
inline constexpr double kLivenessScore = 1e3;
inline constexpr double kRejectScore = -1e9;

struct EvalConfig {
  AlgorithmKind algorithm = AlgorithmKind::kPaxos;
  int n = 5;
  ProcessId leader = 0;
  /// Pre-gsr per-link timeliness of the underlying schedule.
  double pre_gsr_p = 0.4;
  /// Root of the seed family every candidate (and the uniform baseline)
  /// runs under; sample 0 uses it verbatim (so a quoted trial seed plus
  /// samples=1 replays that exact trial), sample j > 0 uses
  /// substream_seed(eval_seed, j).
  std::uint64_t eval_seed = 1;
  /// Chaos executions averaged per evaluation. More samples = smoother,
  /// more structural fitness at proportionally higher cost.
  int samples = 5;
  /// Floor for the per-run round cap; the evaluator always extends it
  /// past gsr + bound_after_gsr so undecided is distinguishable.
  int min_rounds = 80;
};

struct Fitness {
  bool supported = true;        ///< reliable plane carries the model
  bool safety_violation = false;   ///< any sample violated safety
  bool liveness_violation = false; ///< any sample violated liveness
  /// Global decision round of the PRIMARY sample (j = 0); -1 = undecided.
  Round decision_round = -1;
  /// Mean decision delay: per correct process, decision round minus gsr
  /// (or the proven floor max_rounds - gsr if it never decided),
  /// averaged over processes and samples. Fractional on purpose — the
  /// dense signal is what makes the landscape climbable.
  double delay = 0.0;
  double score = kRejectScore;
  std::uint64_t signature = 0;  ///< coverage fingerprint over all samples
  /// The chaos harness's replayable report from the first violating
  /// sample, if any.
  std::string violation;

  bool operator==(const Fitness&) const = default;
};

/// `cfg.samples` deterministic chaos executions; pure in (candidate,
/// cfg). `traces`, when given, receives one TrialTrace per sample — the
/// same events the coverage signature is computed from — so `timing_lab
/// replay` can record a JSONL trace for offline re-verification.
Fitness evaluate(const Candidate& candidate, const EvalConfig& cfg,
                 std::vector<TrialTrace>* traces = nullptr);

/// "safety" | "liveness" | "decided" | "undecided" | "unsupported" —
/// stable strings shared by the scenario tables, the archive format and
/// `timing_lab replay`.
const char* verdict_string(const Fitness& f) noexcept;

}  // namespace timing::adversary
