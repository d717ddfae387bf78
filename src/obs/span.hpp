// Causal span tracing: WHERE an operation's latency went. A span is a
// named interval (begin/end) with a parent — op spans own queue, commit
// and apply children; instance spans own round spans; message spans hang
// off the round that sent them — plus explicit cross-tree *cause* edges
// (round <- arriving message, commit <- deciding instance) that carry
// the causality a parent pointer cannot.
//
// Spans ride the existing TraceSink pipeline as schema-v1 "e":"span"
// JSONL lines, so every buffering/serialization/validation facility of
// obs/ applies unchanged. Two properties are load-bearing:
//
//  * Deterministic ids. A span id is a pure bit-pack of (kind, small
//    integer coordinates) — (client, rid) for op-family spans, the
//    instance ordinal for instance spans, (ctx, round) for round spans,
//    (round, src, dst) for message spans. No wall clock, no thread
//    identity: in `ids` mode a trace is a pure function of the seeds
//    and is byte-identical across TIMING_THREADS (pinned in
//    tests/obs_test.cpp).
//  * One-branch disabled path. Every emission site tests one pointer /
//    mode byte; bench_span_overhead enforces <3% overhead when off and
//    <10% in `timed` mode on the live ablation path.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace timing {

/// What span emission records. `ids` keeps the causal structure but
/// suppresses timestamps (t stays -1 / off the wire), preserving the
/// determinism contract; `timed` stamps monotonic nanoseconds and
/// additionally allows metrics snapshots.
enum class SpanMode : std::uint8_t {
  kOff = 0,
  kIds = 1,
  kTimed = 2,
};

const char* to_string(SpanMode m) noexcept;
bool span_mode_from_string(const char* s, SpanMode& out) noexcept;

/// Reads TIMING_SPANS (off|ids|timed; default off) per call; timing_lab
/// calls it once per run, and only when TIMING_TRACE is set. Warns once on
/// stderr for an unknown value and treats it as off.
SpanMode span_mode_from_env();

/// Deterministic span id: kind tag in bits 59..62, then three small
/// integer coordinates (a:27, b:16, c:16 bits). Collisions within one
/// trial are impossible as long as coordinates respect those widths —
/// rounds and slot ordinals below 2^27, process/client ids and rids
/// below 2^16 — which every harness in this repo satisfies by orders of
/// magnitude. Bit 63 stays clear for every kind below span_kind::kCount,
/// so ids stay within the positive range of the JSONL integer encoding.
constexpr std::uint64_t make_span_id(std::uint8_t kind, std::uint64_t a,
                                     std::uint64_t b = 0,
                                     std::uint64_t c = 0) noexcept {
  return ((static_cast<std::uint64_t>(kind) & 0xFULL) << 59) |
         ((a & 0x7FFFFFFULL) << 32) | ((b & 0xFFFFULL) << 16) |
         (c & 0xFFFFULL);
}

/// Emits span events into a TraceSink under a SpanMode. Null sink or
/// kOff disables; begin/end return the timestamp they recorded (0 in
/// ids mode) so callers can feed the *same* clock reading into a
/// LogHistogram — that shared reading is why online percentiles equal
/// the ones trace_tool rebuilds offline.
///
/// Not thread-safe (matches BufferSink's single-writer-per-trial
/// contract): one tracer per trial on the sim path, one per node on the
/// live path, all emission from the driving thread.
class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(TraceSink* sink, SpanMode mode);

  bool enabled() const noexcept { return sink_ != nullptr && mode_ != SpanMode::kOff; }
  bool timed() const noexcept { return enabled() && mode_ == SpanMode::kTimed; }
  TraceSink* sink() const noexcept { return sink_; }

  /// Monotonic nanoseconds since this tracer's construction (its
  /// epoch); 0 when not in timed mode, so ids-mode arithmetic on the
  /// return values is harmlessly degenerate.
  long long now_ns() const noexcept;

  /// Emit a begin event; returns its timestamp.
  long long begin(std::uint64_t id, std::uint64_t parent, std::uint8_t kind,
                  Round k = 0);
  /// Emit an end event; returns its timestamp.
  long long end(std::uint64_t id, std::uint8_t kind, Round k = 0);
  /// Emit a causality edge: `cause_id` happened-before span `id`.
  void cause(std::uint64_t id, std::uint64_t cause_id, std::uint8_t kind,
             Round k = 0);

 private:
  TraceSink* sink_ = nullptr;
  SpanMode mode_ = SpanMode::kOff;
  long long epoch_ns_ = 0;
};

/// The op latencies a client harness records from its span timestamps
/// (kSpanMetricNames order) and trace_tool rebuilds from the trace.
struct SpanLatencies {
  LogHistogram commit;  ///< op.commit_ns
  LogHistogram queue;   ///< op.queue_ns

  /// The histogram of kSpanMetricNames[m].
  const LogHistogram& metric(int m) const noexcept {
    return m == 0 ? commit : queue;
  }
};

/// Emit one "e":"metrics" snapshot line per non-empty latency histogram
/// (kSpanMetricNames order). Timed mode only — snapshot values are wall
/// clock and would break ids-mode byte-identity. `seq` orders multiple
/// snapshots within a trial. Returns the number of lines emitted.
int emit_metrics_snapshot(SpanTracer* t, const SpanLatencies& lat,
                          Round seq = 0);

}  // namespace timing
