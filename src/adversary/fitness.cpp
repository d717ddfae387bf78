#include "adversary/fitness.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "fault/chaos.hpp"
#include "obs/jsonl.hpp"
#include "obs/trace_analysis.hpp"
#include "obs/trace_sink.hpp"

namespace timing::adversary {

namespace {

void sig_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

/// Fraction -> 0..8 bucket (9 shapes), denominator-safe.
std::uint64_t bucket8(long long part, long long whole) noexcept {
  if (whole <= 0) return 15;  // sentinel: no data of this kind
  return static_cast<std::uint64_t>((part * 8) / whole);
}

/// The failure-shape fingerprint, read off the chaos harness's summary
/// of the validated trace: the same TrialSummary `trace_tool summary`
/// builds, so a recorded trace reproduces it offline.
std::uint64_t coverage_signature(const fault::ChaosRunResult& r, Round gsr) {
  const TrialSummary& s = r.summary;
  std::uint64_t h = 0xcbf29ce484222325ull;
  sig_mix(h, static_cast<std::uint64_t>(
                 std::min<long long>(s.fault_events, 255) / 16));
  sig_mix(h, static_cast<std::uint64_t>(
                 std::min<std::size_t>(s.leader_spans.size(), 15)));
  const long long fates = s.totals.timely + s.totals.late + s.totals.lost;
  sig_mix(h, bucket8(s.totals.lost, fates));
  sig_mix(h, bucket8(s.totals.late, fates));
  for (int c = 0; c < kTraceNumLinkClasses; ++c) {
    sig_mix(h, bucket8(s.class_sat_rounds[static_cast<std::size_t>(c)],
                       s.granular_rounds));
  }
  sig_mix(h, static_cast<std::uint64_t>(s.crashes.size()));
  // Outcome tier, not the exact delay.
  std::uint64_t outcome = 0;
  if (!r.safety_ok) {
    outcome = 4;
  } else if (!r.liveness_ok) {
    outcome = 3;
  } else if (r.global_decision_round < 0) {
    outcome = 2;
  } else {
    outcome = r.global_decision_round <= gsr ? 0 : 1;
  }
  sig_mix(h, outcome);
  return h;
}

}  // namespace

Fitness evaluate(const Candidate& candidate, const EvalConfig& cfg,
                 std::vector<TrialTrace>* traces) {
  TM_CHECK(candidate.plan.gsr >= 1, "candidates need a gsr marker");
  TM_CHECK(cfg.samples >= 1, "evaluation needs at least one sample");
  const Round gsr = candidate.plan.gsr;

  // Processes the plan crashes for good are not correct; liveness (and
  // hence decision delay) is not owed to them.
  const std::vector<Round> crashes =
      fault::crash_rounds(candidate.plan, cfg.n);
  const int correct =
      static_cast<int>(std::count(crashes.begin(), crashes.end(), 0));
  TM_CHECK(correct >= 1, "validate() guarantees a correct majority");

  Fitness f;
  f.signature = 0xcbf29ce484222325ull;
  double delay_sum = 0.0;
  for (int j = 0; j < cfg.samples; ++j) {
    fault::ChaosTrialConfig tc;
    tc.n = cfg.n;
    tc.leader = cfg.leader;
    // Sample 0 runs the root seed verbatim: the seed a chaos violation
    // report quotes replays that exact trial via samples=1.
    tc.seed = j == 0 ? cfg.eval_seed
                     : substream_seed(cfg.eval_seed,
                                      static_cast<std::uint64_t>(j));
    tc.pre_gsr_p = cfg.pre_gsr_p;
    tc.plan = candidate.plan;
    tc.link_models = candidate.link_models;
    tc.max_rounds =
        fault::round_cap(cfg.algorithm, candidate.plan.gsr, cfg.min_rounds);
    BufferSink sink;
    if (traces != nullptr) tc.trace = &sink;
    const fault::ChaosRunResult r =
        fault::run_chaos_algorithm(cfg.algorithm, tc);
    sig_mix(f.signature, coverage_signature(r, gsr));
    sig_mix(f.signature, r.summary.fault_kinds);

    f.supported = f.supported && r.liveness_enforced;
    if (!r.safety_ok && !f.safety_violation) {
      f.safety_violation = true;
      f.violation = r.violation;
    }
    if (!r.liveness_ok && !f.liveness_violation) {
      f.liveness_violation = true;
      if (f.violation.empty()) f.violation = r.violation;
    }
    if (j == 0) f.decision_round = r.global_decision_round;

    // Dense delay: every correct process contributes its own decision
    // round (the proven floor max_rounds when it never decided).
    std::vector<Round> decided_at(static_cast<std::size_t>(cfg.n), -1);
    for (const TraceEvent& e : r.summary.decides) {
      if (e.proc < 0 || e.proc >= cfg.n) continue;
      auto& slot = decided_at[static_cast<std::size_t>(e.proc)];
      if (slot < 0) slot = e.round;
    }
    for (ProcessId p = 0; p < cfg.n; ++p) {
      if (crashes[static_cast<std::size_t>(p)] > 0) continue;
      const Round d = decided_at[static_cast<std::size_t>(p)];
      delay_sum += static_cast<double>((d >= 0 ? d : tc.max_rounds) - gsr);
    }
    if (traces != nullptr) {
      traces->push_back(TrialTrace{j, cfg.n, sink.events()});
    }
  }
  f.delay = delay_sum / (static_cast<double>(correct) * cfg.samples);

  if (!f.supported && !f.safety_violation) {
    // Liveness was never owed; "delay" would be unbounded and empty.
    f.delay = 0.0;
    f.score = kRejectScore;
    return f;
  }
  if (f.safety_violation) {
    f.score = kSafetyScore + f.delay;
  } else if (f.liveness_violation) {
    f.score = kLivenessScore + f.delay;
  } else {
    f.score = f.delay;
  }
  return f;
}

const char* verdict_string(const Fitness& f) noexcept {
  if (f.safety_violation) return "safety";
  if (!f.supported) return "unsupported";
  if (f.liveness_violation) return "liveness";
  if (f.decision_round < 0) return "undecided";
  return "decided";
}

}  // namespace timing::adversary
