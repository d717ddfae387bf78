// Declarative fault plans: the adversary as data.
//
// The paper's algorithms are indulgent — agreement and validity must hold
// under arbitrary asynchrony, crashes and message loss, with liveness
// owed only once the run's timing model holds (Sections 2-3). A FaultPlan
// is an ordered list of FaultEvents that make that adversary explicit and
// replayable:
//
//   crash(p, r)                p stops being heard from round r on
//   recover(p, r)              ... until round r (exclusive)
//   partition(groups, [a, b))  cross-group messages lost in rounds [a, b)
//   drop(src, dst, [a, b), q)  messages on the link lost with prob q
//   delay(src, dst, ms, [a,b)) messages on the link late by extra ms
//   suppress_leader([a, b))    the leader's outgoing messages lost
//   gsr(r)                     terminal marker: from round r on the plan
//                              is inert and the network must conform to
//                              the scenario's timing model
//
// One plan drives both injection backends (fault/injector.hpp edits the
// sampled per-round LinkMatrix/PackedLinkMatrix; fault/transport.hpp
// drops/delays live datagrams by the round stamped in the frame), so a
// violation found in simulation replays verbatim over real transports.
//
// The text grammar lives in fault/parser.hpp; validate() enforces the
// structural rules (crash/recover pairing, windows, nothing active past
// the gsr marker) with event-accurate error messages.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace timing::fault {

enum class FaultKind : std::uint8_t {
  kCrash = 1,
  kRecover,
  kPartition,
  kDrop,
  kDelay,
  kSuppressLeader,
  kGsr,
};

/// Stable lowercase keyword, identical to the grammar's statement names.
const char* to_string(FaultKind k) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Subject process (crash/recover).
  ProcessId proc = kNoProcess;
  /// Link endpoints (drop/delay); kNoProcess means the '*' wildcard.
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  /// crash/recover/gsr: the event round. Windowed kinds: first round of
  /// the half-open window [from, to).
  Round from = 0;
  Round to = 0;
  /// drop: per-message loss probability.
  double prob = 1.0;
  /// delay: extra latency added to each message on the link.
  double extra_ms = 0.0;
  /// partition: the groups; messages between different groups are lost.
  /// Processes in no group keep all their links.
  std::vector<std::vector<ProcessId>> groups;

  bool operator==(const FaultEvent&) const = default;

  /// One grammar statement ("drop 0->3 @2..6 p=0.5").
  std::string spec() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Terminal stabilization round; -1 when the plan has no gsr marker
  /// (pure-safety plans that never promise liveness).
  Round gsr = -1;
  /// The text the plan was parsed from, kept verbatim (comments and all)
  /// so a violation report can quote what the user wrote. Empty for a
  /// plan built or edited as data; reports then print spec(), so a plan
  /// becomes text only when someone reads it. Whoever edits a parsed
  /// plan's events clears it: it must never describe another plan.
  std::string source;

  bool empty() const noexcept { return events.empty(); }

  /// Canonical one-statement-per-line text; parses back to this plan.
  std::string spec() const;
};

/// spec() on one line, each statement followed by "; ": the form a
/// replay command quotes (`timing_lab replay "crash 1 @2; gsr @5; "`).
std::string inline_spec(const FaultPlan& plan);

/// Structural validation with event-accurate messages; "" when valid.
/// Enforced rules:
///  * rounds >= 1, windows non-empty, probabilities in [0, 1];
///  * process ids in [0, n); partition groups disjoint; src != dst;
///  * crash/recover alternate per process (no double crash, no recover
///    without a crash, recover strictly after its crash);
///  * the gsr marker, when present, is the last event, every window ends
///    by it (to <= gsr), crashes happen before it, and recoveries land at
///    or before it — nothing the plan injects may outlive stabilization.
/// `leader`, when given, must stay correct: a never-recovered crash of
/// the leader would deny the post-gsr rounds their model conformance.
/// Permanent crashes must also leave a correct majority.
std::string validate(const FaultPlan& plan, int n,
                     ProcessId leader = kNoProcess);

/// The plan's crash schedule, one entry per process: the round of its
/// last crash, or 0 when it never crashes or recovers after that crash.
/// A recovered process counts as never crashed, so the entries are what
/// RoundEngine::crash_at and ScheduleConfig::crash_rounds take.
std::vector<Round> crash_rounds(const FaultPlan& plan, int n);

/// Smallest group size the plan's process ids fit in (max id + 1, at
/// least 2); lets callers validate a bare plan file before a scenario
/// binds it to a concrete n.
int min_processes(const FaultPlan& plan) noexcept;

/// True iff the plans inject the same adversary: identical event lists
/// and gsr. `source` is ignored — two plans parsed from differently
/// formatted text (or one parsed, one built) still compare equal.
bool structurally_equal(const FaultPlan& a, const FaultPlan& b) noexcept;

/// Order-sensitive FNV-1a hash over the structural content (events and
/// gsr, not `source`). structurally_equal plans hash identically; the
/// adversary search uses this to dedupe candidates and name archive
/// entries, so the value must be stable across platforms and runs.
std::uint64_t plan_hash(const FaultPlan& plan) noexcept;

/// Human-readable timeline for `timing_lab describe`: one line per
/// event, sorted by activation round (plan order breaks ties), e.g.
///
///   round  2       crash 1 @2
///   rounds 3..6    drop 0->2 @3..7 p=0.5
///   round  9       gsr @9
///
/// Window lines show the inclusive last active round (to - 1).
std::string timeline(const FaultPlan& plan);

}  // namespace timing::fault
