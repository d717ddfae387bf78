#include "obs/trace_analysis.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/check.hpp"

namespace timing {

namespace {

/// Within-round emission phase; validate_trace requires phases to be
/// non-decreasing between RoundStart and RoundEnd.
int phase_rank(EventKind k) noexcept {
  switch (k) {
    case EventKind::kRoundStart: return 0;
    case EventKind::kCrash: return 1;
    case EventKind::kMsgSent:
    case EventKind::kMsgTimely:
    case EventKind::kMsgLate:
    case EventKind::kMsgLost: return 2;
    case EventKind::kOracleOutput:
    case EventKind::kPredicateEval:
    case EventKind::kDecide: return 3;
    case EventKind::kRoundEnd: return 4;
    case EventKind::kFaultInjected: return -1;  // exempt, see validate_trace
    case EventKind::kClientOp: return -1;       // exempt, see validate_trace
    case EventKind::kSpan: return -1;           // exempt, see validate_trace
    case EventKind::kMetricsSnapshot: return -1;
  }
  return 5;
}

bool is_msg(EventKind k) noexcept {
  return k == EventKind::kMsgSent || k == EventKind::kMsgTimely ||
         k == EventKind::kMsgLate || k == EventKind::kMsgLost;
}

}  // namespace

TrialSummary summarize_trial(std::span<const TraceEvent> events, int n,
                             const std::array<int, kTraceNumModels>& needed,
                             int trial_id) {
  TrialSummary out;
  out.trial_id = trial_id;
  out.n = n;
  out.links.assign(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                   LinkCounts{});
  out.first_window.fill(-1);

  std::array<int, kTraceNumModels> streak{};
  // Leader agreement per round: outputs keyed by process, folded into
  // spans once the round is complete.
  std::map<ProcessId, ProcessId> oracle_out;
  Round oracle_round = 0;
  auto close_oracle_round = [&]() {
    if (oracle_out.empty()) return;
    ProcessId agreed = oracle_out.begin()->second;
    for (const auto& [proc, ld] : oracle_out) {
      if (ld != agreed) {
        agreed = kNoProcess;
        break;
      }
    }
    if (agreed != kNoProcess) {
      if (!out.leader_spans.empty() &&
          out.leader_spans.back().leader == agreed &&
          out.leader_spans.back().last == oracle_round - 1) {
        out.leader_spans.back().last = oracle_round;
      } else {
        out.leader_spans.push_back(LeaderSpan{oracle_round, oracle_round,
                                              agreed});
      }
    }
    oracle_out.clear();
  };

  for (const TraceEvent& e : events) {
    // Op events carry a logical timestamp, not an engine round; span
    // and metrics events annotate rounds rather than defining them.
    // None of those may inflate the trial's round count.
    if (e.kind != EventKind::kClientOp && e.kind != EventKind::kSpan &&
        e.kind != EventKind::kMetricsSnapshot) {
      out.rounds = std::max(out.rounds, e.round);
    }
    switch (e.kind) {
      case EventKind::kMsgSent:
        ++out.totals.sent;
        ++out.links[static_cast<std::size_t>(e.src) * n + e.dst].sent;
        break;
      case EventKind::kMsgTimely:
        ++out.totals.timely;
        ++out.links[static_cast<std::size_t>(e.src) * n + e.dst].timely;
        break;
      case EventKind::kMsgLate:
        ++out.totals.late;
        ++out.links[static_cast<std::size_t>(e.src) * n + e.dst].late;
        break;
      case EventKind::kMsgLost:
        ++out.totals.lost;
        ++out.links[static_cast<std::size_t>(e.src) * n + e.dst].lost;
        break;
      case EventKind::kPredicateEval:
        ++out.pred_rounds;
        if (e.csat != kTraceNoClassSat) {
          ++out.granular_rounds;
          for (int c = 0; c < kTraceNumLinkClasses; ++c) {
            if (e.csat & (1u << c)) {
              ++out.class_sat_rounds[static_cast<std::size_t>(c)];
            }
          }
        }
        for (int m = 0; m < kTraceNumModels; ++m) {
          const auto mi = static_cast<std::size_t>(m);
          if (e.sat & (1u << m)) {
            ++out.sat_rounds[mi];
            ++streak[mi];
            if (out.first_window[mi] < 0 && streak[mi] >= needed[mi]) {
              out.first_window[mi] = e.round;
            }
          } else {
            streak[mi] = 0;
          }
        }
        break;
      case EventKind::kOracleOutput:
        if (e.round != oracle_round) {
          close_oracle_round();
          oracle_round = e.round;
        }
        oracle_out[e.proc] = e.leader;
        break;
      case EventKind::kDecide:
        out.decides.push_back(e);
        out.global_decision_round =
            std::max(out.global_decision_round, e.round);
        break;
      case EventKind::kCrash:
        out.crashes.push_back(e);
        break;
      case EventKind::kFaultInjected:
        ++out.fault_events;
        out.fault_kinds |= 1ull << (e.rule & 63);
        break;
      case EventKind::kClientOp:
        ++out.op_events;
        break;
      case EventKind::kSpan:
        ++out.span_events;
        break;
      case EventKind::kMetricsSnapshot:
        ++out.metrics_events;
        break;
      case EventKind::kRoundStart:
      case EventKind::kRoundEnd:
        break;
    }
  }
  close_oracle_round();
  return out;
}

double TraceSummary::mean_incidence(int model) const noexcept {
  double sum = 0.0;
  int count = 0;
  for (const TrialSummary& t : trials) {
    if (t.pred_rounds == 0) continue;
    sum += t.incidence(model);
    ++count;
  }
  return count ? sum / count : 0.0;
}

double TraceSummary::mean_first_window(int model,
                                       int* completed) const noexcept {
  double sum = 0.0;
  int count = 0;
  for (const TrialSummary& t : trials) {
    const Round w = t.first_window[static_cast<std::size_t>(model)];
    if (w < 0) continue;
    sum += static_cast<double>(w);
    ++count;
  }
  if (completed != nullptr) *completed = count;
  return count ? sum / count : 0.0;
}

TraceSummary summarize_trace(const ParsedTrace& trace,
                             const std::array<int, kTraceNumModels>& needed) {
  TraceSummary out;
  out.n = trace.n;
  out.trials.reserve(trace.trials.size());
  for (const TrialTrace& t : trace.trials) {
    out.trials.push_back(
        summarize_trial(t, t.n > 0 ? t.n : trace.n, needed));
  }
  return out;
}

std::string validate_trace(const ParsedTrace& trace) {
  for (const TrialTrace& trial : trace.trials) {
    std::string err = validate_trial(trial.events, trial.id);
    if (!err.empty()) return err;
  }
  return "";
}

std::string validate_trial(std::span<const TraceEvent> events,
                           int trial_id) {
  Round open_round = -1;   // round between RoundStart and RoundEnd
  Round last_started = 0;
  Round op_ts = -1;        // last ClientOp logical timestamp
  int last_rank = -1;
  const bool trial_has_sends =
      std::any_of(events.begin(), events.end(), [](const TraceEvent& e) {
        return e.kind == EventKind::kMsgSent;
      });
  std::set<std::pair<ProcessId, ProcessId>> sent_this_round;
  std::set<ProcessId> decided, crashed;
  // Span lifecycle (0 = unseen, 1 = begun, 2 = ended); mirrors the
  // parser's checks so programmatically-built traces are held to the
  // same contract.
  std::map<std::uint64_t, int> span_state;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    auto fail = [&](const std::string& why) {
      std::ostringstream err;
      err << "trial " << trial_id << " event " << i << " ("
          << to_string(e.kind) << ", round " << e.round << "): " << why;
      return err.str();
    };

    if (e.kind == EventKind::kClientOp) {
      // Op events carry logical timestamps from the client harness,
      // not engine rounds: exempt from all round/phase checks, but
      // the timestamps must strictly increase within the trial so
      // histories have a total invocation/completion order.
      if (op_ts >= 0 && e.round <= op_ts) {
        return fail("op timestamps must strictly increase");
      }
      op_ts = e.round;
      continue;
    }
    if (e.kind == EventKind::kSpan) {
      // Spans annotate rounds (or are round-free, k = 0) and carry
      // monotonic timestamps, not engine rounds: exempt from the
      // open-round/phase checks. Their lifecycle must still be sound.
      if (e.span_id == 0) return fail("span id must be positive");
      if (span_kind_name(e.span_kind) == nullptr) {
        return fail("invalid span kind");
      }
      int& st = span_state[e.span_id];
      if (e.span_phase == span_phase::kBegin) {
        if (st != 0) return fail("duplicate span begin");
        st = 1;
      } else if (e.span_phase == span_phase::kEnd) {
        if (st == 0) return fail("span end before begin");
        if (st == 2) return fail("duplicate span end");
        st = 2;
      } else if (e.span_phase == span_phase::kCause) {
        if (e.span_parent == 0) return fail("cause edge without a cause");
      } else {
        return fail("invalid span phase");
      }
      continue;
    }
    if (e.kind == EventKind::kMetricsSnapshot) continue;  // exempt
    if (e.kind == EventKind::kFaultInjected) {
      // Sim-path injection happens while round k is being *sampled*,
      // i.e. after RoundEnd(k-1) and before the engine's RoundStart(k),
      // so fault events are exempt from the open-round and phase
      // checks. They still may not reference an already-closed round.
      if (e.round < last_started) {
        return fail("fault event for an already-closed round");
      }
      continue;
    }
    if (e.kind == EventKind::kRoundStart) {
      if (open_round >= 0) return fail("previous round never ended");
      if (e.round <= last_started) {
        return fail("round numbers must strictly increase");
      }
      open_round = e.round;
      last_started = e.round;
      last_rank = 0;
      sent_this_round.clear();
      continue;
    }
    if (open_round < 0) return fail("event outside any round");
    if (e.round != open_round) {
      return fail("round does not match the open round " +
                  std::to_string(open_round));
    }
    const int rank = phase_rank(e.kind);
    if (rank < last_rank) {
      return fail("out-of-order phase (rank " + std::to_string(rank) +
                  " after " + std::to_string(last_rank) + ")");
    }
    last_rank = rank;

    if (e.kind == EventKind::kMsgSent) {
      sent_this_round.insert({e.src, e.dst});
    } else if (trial_has_sends && is_msg(e.kind)) {
      if (sent_this_round.count({e.src, e.dst}) == 0) {
        return fail("delivery/loss without a preceding send on the link");
      }
    }
    if (e.kind == EventKind::kDecide && !decided.insert(e.proc).second) {
      return fail("process decided twice");
    }
    if (e.kind == EventKind::kCrash && !crashed.insert(e.proc).second) {
      return fail("process crashed twice");
    }
    if (e.kind == EventKind::kRoundEnd) open_round = -1;
  }
  if (open_round >= 0) {
    return "trial " + std::to_string(trial_id) + ": round " +
           std::to_string(open_round) + " never ended";
  }
  return "";
}

TraceDiff diff_traces(const ParsedTrace& a, const ParsedTrace& b) {
  TraceDiff out;
  std::ostringstream rep;
  if (a.n != b.n) {
    rep << "group size differs: " << a.n << " vs " << b.n << "\n";
    out.identical = false;
  }
  if (a.trials.size() != b.trials.size()) {
    rep << "trial count differs: " << a.trials.size() << " vs "
        << b.trials.size() << "\n";
    out.identical = false;
  }
  const std::size_t trials = std::min(a.trials.size(), b.trials.size());
  const std::array<int, kTraceNumModels> needed{3, 3, 4, 5};
  for (std::size_t t = 0; t < trials; ++t) {
    const TrialTrace& ta = a.trials[t];
    const TrialTrace& tb = b.trials[t];
    if (ta.events == tb.events) continue;
    out.identical = false;
    // First divergent event.
    const std::size_t len = std::min(ta.events.size(), tb.events.size());
    std::size_t div = len;
    for (std::size_t i = 0; i < len; ++i) {
      if (!(ta.events[i] == tb.events[i])) {
        div = i;
        break;
      }
    }
    rep << "trial " << ta.id << ": ";
    if (div < len) {
      rep << "first divergence at event " << div << ": " << to_jsonl(
          ta.events[div]) << " vs " << to_jsonl(tb.events[div]) << "\n";
    } else {
      rep << "event counts differ: " << ta.events.size() << " vs "
          << tb.events.size() << "\n";
    }
    // Summary-level deltas help explain what the divergence means.
    const int na = ta.n > 0 ? ta.n : a.n;
    const int nb = tb.n > 0 ? tb.n : b.n;
    const int n = std::min(na, nb);
    const TrialSummary sa = summarize_trial(ta, n, needed);
    const TrialSummary sb = summarize_trial(tb, n, needed);
    for (int m = 0; m < kTraceNumModels; ++m) {
      const auto mi = static_cast<std::size_t>(m);
      if (sa.sat_rounds[mi] != sb.sat_rounds[mi]) {
        rep << "  " << kTraceModelNames[m] << " conforming rounds: "
            << sa.sat_rounds[mi] << " vs " << sb.sat_rounds[mi] << "\n";
      }
    }
    if (sa.global_decision_round != sb.global_decision_round) {
      rep << "  global decision round: " << sa.global_decision_round
          << " vs " << sb.global_decision_round << "\n";
    }
    if (!(sa.totals == sb.totals)) {
      rep << "  message fates (timely/late/lost): " << sa.totals.timely
          << "/" << sa.totals.late << "/" << sa.totals.lost << " vs "
          << sb.totals.timely << "/" << sb.totals.late << "/"
          << sb.totals.lost << "\n";
    }
  }
  out.report = rep.str();
  if (out.identical) out.report = "traces are identical\n";
  return out;
}

}  // namespace timing
