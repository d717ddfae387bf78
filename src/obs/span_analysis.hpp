// Offline span analysis: rebuilds, from a recorded JSONL trace alone,
// the causal span trees, the per-commit critical path, and the latency
// histograms the online harness reported. The latency rebuild follows
// the client harness's recording rule exactly — op.commit_ns from op
// spans whose (client, rid) has an ok completion among the trial's op
// events, op.queue_ns from every completed queue span — and feeds the
// same recorded timestamps into the same LogHistogram, so the offline
// percentiles are *equal* to the online ones, not estimates
// (asserted in tests/obs_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/jsonl.hpp"
#include "obs/span.hpp"

namespace timing {

/// One span reassembled from its begin/end/cause lines.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint8_t kind = 0;     ///< span_kind:: value
  Round round = 0;
  long long t_begin = -1;
  long long t_end = -1;
  bool begun = false;
  bool ended = false;
  std::vector<std::uint64_t> children;  ///< spans naming this as parent
  std::vector<std::uint64_t> causes;    ///< spans that happened-before this

  bool complete() const noexcept { return begun && ended; }
  /// Duration in ns; -1 when untimed or incomplete.
  long long duration() const noexcept {
    return (t_begin >= 0 && t_end >= t_begin) ? t_end - t_begin : -1;
  }
};

/// All spans of one trial, in first-appearance order.
struct SpanIndex {
  std::map<std::uint64_t, SpanRecord> spans;
  std::vector<std::uint64_t> order;  ///< first-appearance order
  std::vector<std::uint64_t> roots;  ///< parent == 0, first-appearance order
  bool timed = false;                ///< any event carried a timestamp

  const SpanRecord* find(std::uint64_t id) const noexcept;
};

SpanIndex index_spans(const TrialTrace& trial);

/// Decode the coordinates make_span_id packed (obs/span.hpp).
struct SpanIdParts {
  std::uint8_t kind = 0;
  std::uint64_t a = 0, b = 0, c = 0;
};
SpanIdParts split_span_id(std::uint64_t id) noexcept;

/// Human label for a span id, e.g. "op(c=1,rid=2)" or "msg(k=3,0->2)".
std::string span_label(std::uint64_t id);

/// The latency histograms the online harness records, rebuilt from the
/// trial's span and op events.
SpanLatencies rebuild_latencies(const TrialTrace& trial);

/// The (count, p50, p90, p99, p999, max) row a metrics snapshot line
/// carries / a LogHistogram reports; the comparison unit for the
/// online-equals-offline check.
struct LatencyRow {
  long long count = 0;
  long long p50 = 0, p90 = 0, p99 = 0, p999 = 0, max = 0;

  bool operator==(const LatencyRow&) const = default;
};
LatencyRow latency_row(const LogHistogram& h) noexcept;

/// The snapshot rows recorded in the trial (metric -> row); empty when
/// the trace carries no "e":"metrics" lines.
std::map<int, LatencyRow> snapshot_rows(const TrialTrace& trial);

/// Per-op span trees ("trace_tool spans"): each root span rendered with
/// its children indented, durations when timed, cause edges inline.
/// At most `max_roots` roots (0 = all).
std::string render_span_trees(const TrialTrace& trial, int max_roots);

/// Critical-path report ("trace_tool critpath"): per-kind duration
/// table, the longest causal chain of the `top` slowest ops, and the
/// op.commit_ns percentile line that must match the online harness.
std::string render_critpath(const TrialTrace& trial, int top);

}  // namespace timing
