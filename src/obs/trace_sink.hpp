// TraceSink: where trace events go.
//
// Design constraints, in order:
//  1. ZERO overhead when tracing is off. Every instrumented component
//     holds a raw `TraceSink*` that is null by default; emission sites
//     (TM_TRACE) compile to one predictable branch (`if (sink) ...`)
//     and build their event only behind it. There is no global
//     registry and no virtual call on the off path.
//  2. Determinism under the parallel trial runner. A sink is owned by
//     exactly one trial and written from whatever pool thread runs that
//     trial — never shared — so BufferSink needs no locks ("lock-free
//     enough"). Cross-trial ordering is imposed afterwards, when the
//     runner hands the buffers to its collector in trial-index order on
//     the calling thread.
//  3. Whole trials or nothing. BufferSink keeps every event its trial
//     records: a trace file is only ever written complete, so
//     trace_tool never summarizes a truncated round. A run too large to
//     trace is traced at a smaller size (fewer runs or rounds_per_run).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "obs/trace_event.hpp"

namespace timing {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& e) = 0;
};

/// Emission site: the canonical null-safe call used by all instrumented
/// code, `TM_TRACE(sink, TraceEvent::msg(...))`. The event expression is
/// evaluated only when a sink is attached, so with tracing off a site is
/// one pointer test that falls through ([[unlikely]] moves the record
/// path out of line): no event is built on the stack and nothing is
/// spilled around a record() call that never happens. (A function taking
/// the event by reference cannot promise this: the event is materialized
/// before the test.)
#define TM_TRACE(sink, ...)                                          \
  do {                                                               \
    if (::timing::TraceSink* tm_trace_sink_ = (sink)) [[unlikely]] { \
      tm_trace_sink_->record(__VA_ARGS__);                           \
    }                                                                \
  } while (0)

/// Per-trial in-memory recorder. Single-writer; appends are amortized
/// O(1) vector pushes.
class BufferSink final : public TraceSink {
 public:
  void record(const TraceEvent& e) override { events_.push_back(e); }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  /// Moves the recorded events out, leaving the sink empty.
  std::vector<TraceEvent> take() noexcept { return std::move(events_); }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Counts events without storing them (overhead benches, smoke checks).
class CountingSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override { ++count_; }
  std::size_t count() const noexcept { return count_; }

 private:
  std::size_t count_ = 0;
};

}  // namespace timing
