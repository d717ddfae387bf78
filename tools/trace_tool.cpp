// trace_tool - offline analysis of timing-trace JSONL files (see
// docs/OBSERVABILITY.md). Answers the paper's Section 5 questions from a
// recorded trace instead of the live harness:
//
//   trace_tool summary  <trace> [--needed 3,3,4,5] [--per-trial]
//       per-model P_M incidence and the first round where R_M
//       consecutive conforming rounds complete
//   trace_tool links    <trace> [--trial K] [--top N]
//       per-link late/lost breakdowns
//   trace_tool leader   <trace> [--trial K]
//       leader-stability intervals from OracleOutput events
//   trace_tool validate <trace>
//       parse + structural event-ordering checks; exit 0 iff valid
//   trace_tool check    <trace> [--trial K]
//       linearizability of the recorded op histories ("e":"op" events,
//       docs/HISTORY.md); prints a minimal witness per failing trial and
//       exits 0 iff every checked history is linearizable
//   trace_tool diff     <a> <b>
//       first divergent event and summary deltas; exit 0 iff identical
//   trace_tool spans    <trace> [--trial K] [--top N]
//       per-op causal span trees ("e":"span" events, TIMING_SPANS)
//   trace_tool critpath <trace> [--trial K] [--top N]
//       per-phase latency table + the longest causal chain of the N
//       slowest ops, rebuilt from the recorded spans alone
//   trace_tool latency  <trace> [--trial K] [--csv]
//       commit/queue latency percentiles rebuilt from spans; cross-checks
//       any recorded "e":"metrics" snapshots and exits 1 on disagreement
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/parse.hpp"
#include "history/history.hpp"
#include "history/linearizability.hpp"
#include "obs/span_analysis.hpp"
#include "obs/trace_analysis.hpp"

namespace {

using namespace timing;

constexpr std::array<int, kTraceNumModels> kDefaultNeeded{3, 3, 4, 5};

int usage() {
  std::fprintf(stderr,
               "usage: trace_tool summary  <trace.jsonl> [--needed a,b,c,d] "
               "[--per-trial] [--json]\n"
               "       trace_tool links    <trace.jsonl> [--trial K] [--top N]\n"
               "       trace_tool leader   <trace.jsonl> [--trial K]\n"
               "       trace_tool validate <trace.jsonl>\n"
               "       trace_tool check    <trace.jsonl> [--trial K]\n"
               "       trace_tool diff     <a.jsonl> <b.jsonl>\n"
               "       trace_tool spans    <trace.jsonl> [--trial K] [--top N]\n"
               "       trace_tool critpath <trace.jsonl> [--trial K] [--top N]\n"
               "       trace_tool latency  <trace.jsonl> [--trial K] [--csv]\n");
  return 2;
}

bool parse_needed(const char* arg, std::array<int, kTraceNumModels>& out) {
  int vals[kTraceNumModels] = {};
  if (std::sscanf(arg, "%d,%d,%d,%d", &vals[0], &vals[1], &vals[2],
                  &vals[3]) != kTraceNumModels) {
    return false;
  }
  for (int i = 0; i < kTraceNumModels; ++i) {
    if (vals[i] < 1) return false;
    out[static_cast<std::size_t>(i)] = vals[i];
  }
  return true;
}

void print_trial_summary(const TrialSummary& t,
                         const std::array<int, kTraceNumModels>& needed) {
  std::printf(
      "trial %d: rounds=%lld pred_rounds=%lld decision_round=%lld "
      "faults=%lld\n",
      t.trial_id, static_cast<long long>(t.rounds), t.pred_rounds,
      static_cast<long long>(t.global_decision_round), t.fault_events);
  for (int m = 0; m < kTraceNumModels; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    std::printf("  %-4s P_M=%.4f  R_M=%d  first_window_end=%lld\n",
                kTraceModelNames[mi], t.incidence(m), needed[mi],
                static_cast<long long>(t.first_window[mi]));
  }
  if (t.granular_rounds > 0) {
    for (int c = 0; c < kTraceNumLinkClasses; ++c) {
      std::printf("  class %-5s P=%.4f\n",
                  kTraceLinkClassNames[static_cast<std::size_t>(c)],
                  t.class_incidence(c));
    }
  }
}

/// Machine-readable mirror of cmd_summary: one JSON object on stdout.
/// Keys are stable (tests pin the exact bytes); doubles print with six
/// decimals so the output is platform-independent.
int cmd_summary_json(const ParsedTrace& trace,
                     const std::array<int, kTraceNumModels>& needed,
                     bool per_trial) {
  const TraceSummary s = summarize_trace(trace, needed);
  std::printf("{\n");
  std::printf("  \"schema\": %d,\n", kTraceSchemaVersion);
  std::printf("  \"n\": %d,\n", s.n);
  std::printf("  \"trials\": %zu,\n", s.trials.size());
  std::printf("  \"models\": [\n");
  for (int m = 0; m < kTraceNumModels; ++m) {
    const auto mi = static_cast<std::size_t>(m);
    int completed = 0;
    const double fw = s.mean_first_window(m, &completed);
    std::printf("    {\"model\": \"%s\", \"needed\": %d, "
                "\"mean_p\": %.6f, \"mean_first_window\": %.2f, "
                "\"completed\": %d}%s\n",
                kTraceModelNames[mi], needed[mi], s.mean_incidence(m),
                completed > 0 ? fw : -1.0, completed,
                m + 1 < kTraceNumModels ? "," : "");
  }
  std::printf("  ],\n");
  long long granular = 0;
  std::array<long long, kTraceNumLinkClasses> class_sat{};
  LinkCounts fates;
  long long faults = 0;
  long long ops = 0;
  long long decides = 0;
  long long crashes = 0;
  for (const TrialSummary& t : s.trials) {
    granular += t.granular_rounds;
    for (int c = 0; c < kTraceNumLinkClasses; ++c) {
      class_sat[static_cast<std::size_t>(c)] +=
          t.class_sat_rounds[static_cast<std::size_t>(c)];
    }
    fates.timely += t.totals.timely;
    fates.late += t.totals.late;
    fates.lost += t.totals.lost;
    faults += t.fault_events;
    ops += t.op_events;
    decides += static_cast<long long>(t.decides.size());
    crashes += static_cast<long long>(t.crashes.size());
  }
  if (granular > 0) {
    std::printf("  \"granular\": {\"rounds\": %lld, \"classes\": [\n",
                granular);
    for (int c = 0; c < kTraceNumLinkClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      std::printf("    {\"class\": \"%s\", \"sat_rounds\": %lld, "
                  "\"conforming\": %.6f}%s\n",
                  kTraceLinkClassNames[ci], class_sat[ci],
                  static_cast<double>(class_sat[ci]) /
                      static_cast<double>(granular),
                  c + 1 < kTraceNumLinkClasses ? "," : "");
    }
    std::printf("  ]},\n");
  } else {
    std::printf("  \"granular\": null,\n");
  }
  std::printf("  \"fates\": {\"timely\": %lld, \"late\": %lld, "
              "\"lost\": %lld},\n",
              fates.timely, fates.late, fates.lost);
  std::printf("  \"fault_events\": %lld,\n", faults);
  std::printf("  \"op_events\": %lld,\n", ops);
  std::printf("  \"decide_events\": %lld,\n", decides);
  std::printf("  \"crash_events\": %lld%s\n", crashes,
              per_trial ? "," : "");
  if (per_trial) {
    std::printf("  \"per_trial\": [\n");
    for (std::size_t i = 0; i < s.trials.size(); ++i) {
      const TrialSummary& t = s.trials[i];
      std::printf("    {\"trial\": %d, \"rounds\": %lld, "
                  "\"pred_rounds\": %lld, \"decision_round\": %lld, "
                  "\"fault_events\": %lld, \"decides\": %zu, "
                  "\"crashes\": %zu, \"models\": [",
                  t.trial_id, static_cast<long long>(t.rounds),
                  t.pred_rounds,
                  static_cast<long long>(t.global_decision_round),
                  t.fault_events, t.decides.size(), t.crashes.size());
      for (int m = 0; m < kTraceNumModels; ++m) {
        const auto mi = static_cast<std::size_t>(m);
        std::printf("{\"model\": \"%s\", \"p\": %.6f, "
                    "\"first_window\": %lld}%s",
                    kTraceModelNames[mi], t.incidence(m),
                    static_cast<long long>(t.first_window[mi]),
                    m + 1 < kTraceNumModels ? ", " : "");
      }
      std::printf("]}%s\n", i + 1 < s.trials.size() ? "," : "");
    }
    std::printf("  ]\n");
  }
  std::printf("}\n");
  return 0;
}

int cmd_summary(const ParsedTrace& trace,
                const std::array<int, kTraceNumModels>& needed,
                bool per_trial) {
  const TraceSummary s = summarize_trace(trace, needed);
  std::printf("n=%d trials=%zu\n", s.n, s.trials.size());
  std::printf("%-4s %10s %4s %18s %10s\n", "M", "mean P_M", "R_M",
              "mean first-window", "completed");
  for (int m = 0; m < kTraceNumModels; ++m) {
    int completed = 0;
    const double fw = s.mean_first_window(m, &completed);
    std::printf("%-4s %10.4f %4d %18.2f %6d/%zu\n",
                kTraceModelNames[static_cast<std::size_t>(m)],
                s.mean_incidence(m), needed[static_cast<std::size_t>(m)], fw,
                completed, s.trials.size());
  }
  // Per-link-class conformance, present only in granular traces (rounds
  // evaluated against a LinkModelMatrix record a csat mask).
  long long granular = 0;
  std::array<long long, kTraceNumLinkClasses> class_sat{};
  for (const TrialSummary& t : s.trials) {
    granular += t.granular_rounds;
    for (int c = 0; c < kTraceNumLinkClasses; ++c) {
      class_sat[static_cast<std::size_t>(c)] +=
          t.class_sat_rounds[static_cast<std::size_t>(c)];
    }
  }
  if (granular > 0) {
    std::printf("granular rounds: %lld\n", granular);
    for (int c = 0; c < kTraceNumLinkClasses; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      std::printf("  class %-5s conforming %10.4f (%lld/%lld)\n",
                  kTraceLinkClassNames[ci],
                  static_cast<double>(class_sat[ci]) /
                      static_cast<double>(granular),
                  class_sat[ci], granular);
    }
  }
  long long faults = 0;
  long long ops = 0;
  for (const TrialSummary& t : s.trials) {
    faults += t.fault_events;
    ops += t.op_events;
  }
  std::printf("fault events: %lld total, %.1f per trial\n", faults,
              s.trials.empty()
                  ? 0.0
                  : static_cast<double>(faults) /
                        static_cast<double>(s.trials.size()));
  std::printf("op events: %lld total, %.1f per trial\n", ops,
              s.trials.empty()
                  ? 0.0
                  : static_cast<double>(ops) /
                        static_cast<double>(s.trials.size()));
  if (per_trial) {
    for (const TrialSummary& t : s.trials) print_trial_summary(t, needed);
  }
  return 0;
}

int cmd_links(const ParsedTrace& trace, int trial, int top) {
  const TraceSummary s = summarize_trace(trace, kDefaultNeeded);
  // Fold link counts over the selected trials.
  std::vector<LinkCounts> links(
      static_cast<std::size_t>(s.n) * static_cast<std::size_t>(s.n));
  LinkCounts totals;
  for (const TrialSummary& t : s.trials) {
    if (trial >= 0 && t.trial_id != trial) continue;
    // The trial's own n may be smaller than the header's (group-size
    // sweeps); remap (src, dst) into the header-n stride.
    for (ProcessId src = 0; src < t.n; ++src) {
      for (ProcessId dst = 0; dst < t.n; ++dst) {
        const LinkCounts& l = t.link(src, dst);
        auto& acc = links[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(s.n) +
                          static_cast<std::size_t>(dst)];
        acc.sent += l.sent;
        acc.timely += l.timely;
        acc.late += l.late;
        acc.lost += l.lost;
      }
    }
    totals.sent += t.totals.sent;
    totals.timely += t.totals.timely;
    totals.late += t.totals.late;
    totals.lost += t.totals.lost;
  }
  // Predicate-harness traces (measure_run) omit MsgSent — the fate event
  // implies the send — so derive sent from the fates when absent.
  const auto sent_of = [](const LinkCounts& l) {
    return std::max(l.sent, l.timely + l.late + l.lost);
  };
  std::printf("totals: sent=%lld timely=%lld late=%lld lost=%lld\n",
              sent_of(totals), totals.timely, totals.late, totals.lost);
  // Rank links by (late + lost): the ones that break timeliness.
  std::vector<int> order;
  for (int i = 0; i < static_cast<int>(links.size()); ++i) {
    const auto& l = links[static_cast<std::size_t>(i)];
    if (l.timely + l.late + l.lost + l.sent > 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& la = links[static_cast<std::size_t>(a)];
    const auto& lb = links[static_cast<std::size_t>(b)];
    return la.late + la.lost > lb.late + lb.lost;
  });
  if (top > 0 && static_cast<int>(order.size()) > top) {
    order.resize(static_cast<std::size_t>(top));
  }
  std::printf("%-9s %8s %8s %8s %8s\n", "link", "sent", "timely", "late",
              "lost");
  for (int i : order) {
    const auto& l = links[static_cast<std::size_t>(i)];
    std::printf("%3d->%-4d %8lld %8lld %8lld %8lld\n", i / s.n, i % s.n,
                sent_of(l), l.timely, l.late, l.lost);
  }
  return 0;
}

int cmd_leader(const ParsedTrace& trace, int trial) {
  const TraceSummary s = summarize_trace(trace, kDefaultNeeded);
  for (const TrialSummary& t : s.trials) {
    if (trial >= 0 && t.trial_id != trial) continue;
    std::printf("trial %d: %zu leader interval(s)\n", t.trial_id,
                t.leader_spans.size());
    for (const LeaderSpan& span : t.leader_spans) {
      std::printf("  rounds %lld..%lld leader=%d (%lld rounds)\n",
                  static_cast<long long>(span.first),
                  static_cast<long long>(span.last), span.leader,
                  static_cast<long long>(span.last - span.first + 1));
    }
  }
  return 0;
}

int cmd_validate(const char* path) {
  const ParsedTrace trace = parse_trace_file(path);  // throws on bad syntax
  const std::string err = validate_trace(trace);
  if (!err.empty()) {
    std::fprintf(stderr, "invalid: %s\n", err.c_str());
    return 1;
  }
  std::printf("ok: schema v%d, n=%d, %zu trial(s)\n", trace.version, trace.n,
              trace.trials.size());
  return 0;
}

int cmd_check(const ParsedTrace& trace, int trial) {
  int checked = 0;
  int failed = 0;
  for (const TrialTrace& t : trace.trials) {
    if (trial >= 0 && t.id != trial) continue;
    std::vector<TraceEvent> ops;
    for (const TraceEvent& e : t.events) {
      if (e.kind == EventKind::kClientOp) ops.push_back(e);
    }
    if (ops.empty()) continue;  // trials without op histories are skipped
    ++checked;
    const History h = build_history(ops);
    const CheckResult r = check_history(h);
    if (r.linearizable) {
      std::printf("trial %d: linearizable (%zu op(s))\n", t.id,
                  h.ops.size());
      continue;
    }
    ++failed;
    std::printf("trial %d: NOT linearizable: %s\n", t.id,
                r.witness.explanation.c_str());
    if (!r.witness.ops.empty()) {
      std::printf("minimal witness (key %d):\n", r.witness.key);
      for (const Operation& op : r.witness.ops) {
        std::printf("%s\n", to_jsonl(op).c_str());
      }
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "check: no op events in the selected trial(s)\n");
    return 2;
  }
  std::printf("%d trial(s) checked, %d non-linearizable\n", checked, failed);
  return failed == 0 ? 0 : 1;
}

int cmd_spans(const ParsedTrace& trace, int trial, int top) {
  int shown = 0;
  for (const TrialTrace& t : trace.trials) {
    if (trial >= 0 && t.id != trial) continue;
    std::printf("trial %d:\n%s", t.id, render_span_trees(t, top).c_str());
    ++shown;
  }
  if (shown == 0) {
    std::fprintf(stderr, "spans: no matching trial\n");
    return 2;
  }
  return 0;
}

int cmd_critpath(const ParsedTrace& trace, int trial, int top) {
  int shown = 0;
  for (const TrialTrace& t : trace.trials) {
    if (trial >= 0 && t.id != trial) continue;
    std::printf("trial %d:\n%s", t.id,
                render_critpath(t, top > 0 ? top : 3).c_str());
    ++shown;
  }
  if (shown == 0) {
    std::fprintf(stderr, "critpath: no matching trial\n");
    return 2;
  }
  return 0;
}

void print_latency_row(const char* metric, int trial_id, const LatencyRow& r,
                       bool csv) {
  if (csv) {
    std::printf("%d,%s,%lld,%lld,%lld,%lld,%lld,%lld\n", trial_id, metric,
                r.count, r.p50, r.p90, r.p99, r.p999, r.max);
  } else {
    std::printf("  %-13s %8lld %10lld %10lld %10lld %10lld %10lld\n",
                metric, r.count, r.p50, r.p90, r.p99, r.p999, r.max);
  }
}

int cmd_latency(const ParsedTrace& trace, int trial, bool csv) {
  if (csv) std::printf("trial,metric,count,p50,p90,p99,p999,max\n");
  int mismatches = 0;
  int with_spans = 0;
  for (const TrialTrace& t : trace.trials) {
    if (trial >= 0 && t.id != trial) continue;
    const SpanLatencies lat = rebuild_latencies(t);
    const std::map<int, LatencyRow> snaps = snapshot_rows(t);
    if (lat.commit.count() == 0 && lat.queue.count() == 0 &&
        snaps.empty()) {
      continue;  // no timed spans in this trial
    }
    ++with_spans;
    if (!csv) {
      std::printf("trial %d:\n  %-13s %8s %10s %10s %10s %10s %10s\n",
                  t.id, "metric", "count", "p50(ns)", "p90(ns)", "p99(ns)",
                  "p999(ns)", "max(ns)");
    }
    for (int m = 0; m < kSpanMetricCount; ++m) {
      const LatencyRow row = latency_row(lat.metric(m));
      if (row.count > 0) {
        print_latency_row(kSpanMetricNames[m], t.id, row, csv);
      }
      // Cross-check: a recorded snapshot must equal the offline rebuild
      // (the online/offline percentile-equality contract).
      const auto snap = snaps.find(m);
      if (snap == snaps.end()) continue;
      if (snap->second == row) continue;
      ++mismatches;
      std::fprintf(stderr,
                   "trial %d: %s snapshot disagrees with the rebuild: "
                   "snapshot n=%lld p50=%lld p90=%lld p99=%lld p999=%lld "
                   "max=%lld, rebuilt n=%lld p50=%lld p90=%lld p99=%lld "
                   "p999=%lld max=%lld\n",
                   t.id, kSpanMetricNames[m], snap->second.count,
                   snap->second.p50, snap->second.p90, snap->second.p99,
                   snap->second.p999, snap->second.max, row.count, row.p50,
                   row.p90, row.p99, row.p999, row.max);
    }
  }
  if (with_spans == 0) {
    std::fprintf(stderr,
                 "latency: no timed spans in the selected trial(s) (record "
                 "with TIMING_SPANS=timed)\n");
    return 2;
  }
  return mismatches == 0 ? 0 : 1;
}

int cmd_diff(const char* a_path, const char* b_path) {
  const ParsedTrace a = parse_trace_file(a_path);
  const ParsedTrace b = parse_trace_file(b_path);
  const TraceDiff d = diff_traces(a, b);
  if (d.identical) {
    std::printf("identical\n");
    return 0;
  }
  std::printf("%s", d.report.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "validate") return cmd_validate(argv[2]);
    if (cmd == "diff") {
      if (argc != 4) return usage();
      return cmd_diff(argv[2], argv[3]);
    }

    std::array<int, kTraceNumModels> needed = kDefaultNeeded;
    bool per_trial = false;
    bool json = false;
    bool csv = false;
    int trial = -1;
    int top = 0;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--per-trial") == 0) {
        per_trial = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        csv = true;
      } else if (std::strcmp(argv[i], "--needed") == 0 && i + 1 < argc) {
        if (!parse_needed(argv[++i], needed)) return usage();
      } else if (std::strcmp(argv[i], "--trial") == 0 && i + 1 < argc) {
        // Checked parses (shared with the scenario override grammar):
        // `--trial 1x` is a usage error, not a silent atoi prefix.
        if (!timing::parse_int(argv[++i], trial)) {
          std::fprintf(stderr, "trace_tool: --trial expects an integer, got "
                               "'%s'\n", argv[i]);
          return usage();
        }
      } else if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
        if (!timing::parse_int(argv[++i], top) || top < 0) {
          std::fprintf(stderr, "trace_tool: --top expects a non-negative "
                               "integer, got '%s'\n", argv[i]);
          return usage();
        }
      } else {
        return usage();
      }
    }

    if (cmd != "summary" && cmd != "links" && cmd != "leader" &&
        cmd != "check" && cmd != "spans" && cmd != "critpath" &&
        cmd != "latency") {
      return usage();
    }
    const ParsedTrace trace = parse_trace_file(argv[2]);
    if (cmd == "summary") {
      return json ? cmd_summary_json(trace, needed, per_trial)
                  : cmd_summary(trace, needed, per_trial);
    }
    if (cmd == "links") return cmd_links(trace, trial, top);
    if (cmd == "leader") return cmd_leader(trace, trial);
    if (cmd == "check") return cmd_check(trace, trial);
    if (cmd == "spans") return cmd_spans(trace, trial, top);
    if (cmd == "critpath") return cmd_critpath(trace, trial, top);
    if (cmd == "latency") return cmd_latency(trace, trial, csv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "trace_tool: %s\n", ex.what());
    return 1;
  }
  return usage();
}
