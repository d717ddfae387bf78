// Offline trace analysis: answers the paper's Section 5 questions from a
// recorded JSONL trace instead of the live harness — per-model P_M
// incidence, the first round where R_M consecutive conforming rounds
// complete, leader-stability intervals, per-link late/lost breakdowns —
// plus structural validation (event-ordering invariants) and a diff mode.
//
// The first-window computation deliberately mirrors
// harness/measurement.hpp's rounds_until_conditions(sat, 0, needed): for
// an identical sat series both report the same round, which is what lets
// tests assert exact agreement between online and offline numbers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/jsonl.hpp"

namespace timing {

/// A maximal interval of rounds during which every process that reported
/// an oracle output reported the same leader.
struct LeaderSpan {
  Round first = 0;
  Round last = 0;
  ProcessId leader = kNoProcess;

  bool operator==(const LeaderSpan&) const = default;
};

/// Message-fate counts for one directed link (src -> dst).
struct LinkCounts {
  long long sent = 0;  ///< 0 in traces that record fates only (measure_run)
  long long timely = 0;
  long long late = 0;
  long long lost = 0;

  bool operator==(const LinkCounts&) const = default;
};

struct TrialSummary {
  int trial_id = 0;
  int n = 0;
  Round rounds = 0;  ///< highest round observed

  /// Rounds carrying a PredicateEval event (the sat-series length).
  long long pred_rounds = 0;
  /// Per model: rounds whose matrix satisfied the model.
  std::array<long long, kTraceNumModels> sat_rounds{};
  /// PredicateEval events carrying a granular csat mask (0 for
  /// homogeneous traces).
  long long granular_rounds = 0;
  /// Per link class (sync/psync/async): granular rounds in which every
  /// link of that class was timely.
  std::array<long long, kTraceNumLinkClasses> class_sat_rounds{};
  /// Per model: 1-based round in which the needed[m]-th consecutive
  /// conforming round occurred, counting from round 1 (equals
  /// rounds_until_conditions(sat, 0, needed).rounds); -1 if the run ended
  /// first. The window *begins* at first_window[m] - needed[m] + 1.
  std::array<Round, kTraceNumModels> first_window{};

  LinkCounts totals;
  std::vector<LinkCounts> links;  ///< n*n, index src * n + dst

  std::vector<LeaderSpan> leader_spans;
  std::vector<TraceEvent> decides;       ///< in emission order
  std::vector<TraceEvent> crashes;
  long long fault_events = 0;            ///< FaultInjected events recorded
  /// Bit `rule & 63` per FaultInjected event: the fault kinds fired.
  std::uint64_t fault_kinds = 0;
  long long op_events = 0;               ///< ClientOp events recorded
  long long span_events = 0;             ///< Span events recorded
  long long metrics_events = 0;          ///< MetricsSnapshot events recorded
  Round global_decision_round = -1;      ///< max decide round, -1 if none

  double incidence(int model) const noexcept {
    return pred_rounds
               ? static_cast<double>(
                     sat_rounds[static_cast<std::size_t>(model)]) /
                     static_cast<double>(pred_rounds)
               : 0.0;
  }
  /// Per-class conformance probability over the granular rounds.
  double class_incidence(int cls) const noexcept {
    return granular_rounds
               ? static_cast<double>(
                     class_sat_rounds[static_cast<std::size_t>(cls)]) /
                     static_cast<double>(granular_rounds)
               : 0.0;
  }
  const LinkCounts& link(ProcessId src, ProcessId dst) const {
    return links[static_cast<std::size_t>(src) *
                     static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(dst)];
  }

  bool operator==(const TrialSummary&) const = default;
};

/// Summarizes one trial's events where they lie (a sink's buffer or a
/// parsed trial). `needed[m]` = R_M, the consecutive conforming rounds
/// model m requires for global decision (the paper's defaults are
/// {3, 3, 4, 5}).
TrialSummary summarize_trial(std::span<const TraceEvent> events, int n,
                             const std::array<int, kTraceNumModels>& needed,
                             int trial_id = 0);
inline TrialSummary summarize_trial(
    const TrialTrace& trial, int n,
    const std::array<int, kTraceNumModels>& needed) {
  return summarize_trial(trial.events, n, needed, trial.id);
}

struct TraceSummary {
  int n = 0;
  std::vector<TrialSummary> trials;

  /// Mean P_M over trials with predicate data.
  double mean_incidence(int model) const noexcept;
  /// Mean first-window round over trials where the window completed;
  /// `completed` receives how many did.
  double mean_first_window(int model, int* completed = nullptr) const noexcept;
};

TraceSummary summarize_trace(const ParsedTrace& trace,
                             const std::array<int, kTraceNumModels>& needed);

/// Structural validation beyond what the parser enforces. Checks, per
/// trial: RoundStart rounds strictly increase; every event between a
/// RoundStart(k) and its RoundEnd(k) carries round k; the within-round
/// phase order RoundStart < Crash <= Msg* <= Oracle/Predicate/Decide <
/// RoundEnd; every delivery/loss follows its MsgSent (in trials that
/// record sends); at most one Decide and one Crash per process. Returns
/// "" when valid, else a description of the first violation.
/// FaultInjected events are exempt from the open-round/phase checks
/// (sim-path injection edits round k's matrix before the engine opens
/// round k) but may not reference an already-closed round. ClientOp
/// events are fully exempt ("k" is a logical timestamp, not a round),
/// but their timestamps must strictly increase within each trial.
std::string validate_trace(const ParsedTrace& trace);
/// validate_trace for one trial's events, checked where they lie;
/// `trial_id` only labels the report.
std::string validate_trial(std::span<const TraceEvent> events,
                           int trial_id = 0);

struct TraceDiff {
  bool identical = true;
  std::string report;  ///< human-readable description of the differences
};

/// Structural + summary comparison of two traces (e.g. the same sweep at
/// different thread counts, or before/after a protocol change).
TraceDiff diff_traces(const ParsedTrace& a, const ParsedTrace& b);

}  // namespace timing
