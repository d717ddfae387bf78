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
//     harness drains buffers in trial-index order on the calling thread.
//  3. Bounded memory. BufferSink can cap its event count; the overflow
//     counter records what was dropped so truncation is never silent.
#pragma once

#include <cstddef>
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
  /// `max_events` = 0 means unbounded.
  explicit BufferSink(std::size_t max_events = 0) : max_events_(max_events) {}

  void record(const TraceEvent& e) override {
    if (max_events_ != 0 && events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }
  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t max_events_;
  std::size_t dropped_ = 0;
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
