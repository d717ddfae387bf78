// The candidate mutator: one small, validated edit per call.
//
// Every mutation is drawn from a fixed grammar of edits over the
// fault-plan statements plus granular link degradation:
//
//   add      crash / crash+recover / partition / drop / delay /
//            suppress_leader (inserted before the gsr marker)
//   remove   any non-gsr statement (a crash takes its recover along)
//   shift    slide a statement's round/window by a small delta
//   resize   widen or narrow one end of a window
//   gsr      move the stabilization round itself
//   retarget reassign the subject process / link endpoints / partition cut
//   perturb  nudge a drop probability or delay magnitude
//   degrade  one directed link one class down (sync -> psync -> async)
//   upgrade  one directed link one class up (so annealing can back off)
//
// Candidates that fail fault::validate(plan, n, leader) — or whose
// matrix's reliable plane could no longer carry the algorithm's native
// model even with everyone alive (fault::granular_supports) — are
// rejected and the mutator retries; after `attempts` failures it returns
// the parent unchanged. An edited plan's `source` is cleared rather than
// re-formatted (a parsed parent's text no longer describes the child);
// every candidate stays replayable verbatim through plan.spec(), which is
// what a violation report prints for a plan without source text.
//
// Determinism: mutate() is a pure function of (parent, cfg, rng state).
// The search derives one counter-based RNG sub-stream per (generation,
// walker), so mutation sequences are bit-identical for any
// TIMING_THREADS.
#pragma once

#include <cstdint>

#include "adversary/candidate.hpp"
#include "common/rng.hpp"
#include "consensus/factory.hpp"

namespace timing::adversary {

/// A mutated plan's gsr stays in [3, kMaxGsr].
inline constexpr Round kMaxGsr = 24;

struct MutationConfig {
  int n = 5;
  ProcessId leader = 0;
  /// Gates link degradation: the reliable plane must keep supporting this
  /// algorithm's native model (all-alive), or the degenerate "starve every
  /// link, never owe liveness" candidate would dominate the search.
  AlgorithmKind algorithm = AlgorithmKind::kPaxos;
  bool mutate_links = true;///< enable degrade/upgrade link edits
  int attempts = 8;        ///< validation retries before returning parent
  /// Matrix every seed candidate starts from; n() == 0 means all-sync.
  LinkModelMatrix base_links;
};

/// A fresh search seed: random_fault_plan(n, leader, seed) over the
/// configured base matrix.
Candidate seed_candidate(const MutationConfig& cfg, std::uint64_t seed);

/// One validated edit of `parent` (the parent itself when every attempt
/// failed validation). Pure in (parent, cfg, rng state).
Candidate mutate(const Candidate& parent, const MutationConfig& cfg, Rng& rng);

}  // namespace timing::adversary
