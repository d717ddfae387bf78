// The GIRAF protocol interface (Algorithm 1): a protocol is exactly a pair
// of functions, initialize() and compute(), both fed the oracle output,
// returning the next round's message and its destination set.
#pragma once

#include <memory>
#include <vector>

#include "giraf/message.hpp"
#include "obs/trace_sink.hpp"

namespace timing {

/// What a protocol returns from initialize()/compute(): the message for
/// the next round and the set D_i of destinations (Algorithm 1).
struct SendSpec {
  Message msg;
  /// Destinations; self is allowed in the list (the engine skips the
  /// network for it - a process always receives its own message).
  std::vector<ProcessId> dests;

  /// Convenience: D_i = Pi.
  static std::vector<ProcessId> all(int n) {
    std::vector<ProcessId> d(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = i;
    return d;
  }
};

class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called at the first end-of-round event; returns the round-1 message.
  /// `leader_hint` is the oracle output (Omega's trusted leader for the
  /// leader-based protocols; ignored by ES/AFM protocols).
  virtual SendSpec initialize(ProcessId leader_hint) = 0;

  /// Called at the end of round k with the messages received in round k
  /// (received.size() == n, slot = sender); returns the round-(k+1)
  /// message.
  virtual SendSpec compute(Round k, const RoundMsgs& received,
                           ProcessId leader_hint) = 0;

  /// Consensus outputs.
  virtual bool has_decided() const noexcept = 0;
  virtual Value decision() const noexcept = 0;

  /// Introspection used by tests and the Paxos ablation; protocols expose
  /// their current timestamp/estimate where meaningful.
  virtual Timestamp current_ts() const noexcept { return 0; }
  virtual Value current_est() const noexcept { return kNoValue; }

  /// Deep copy of the protocol state, for state-space search (the
  /// exhaustive model-checking tests). Protocols that do not support it
  /// return nullptr (the default). Clones do not inherit the trace sink
  /// (search states are not observed runs).
  virtual std::unique_ptr<Protocol> clone() const { return nullptr; }

  /// Install a trace sink (null disables, the default). Virtual so
  /// wrappers (OmegaElection, LmOverWlm) can forward it to their inner
  /// protocol.
  virtual void set_trace_sink(TraceSink* sink) noexcept {
    trace_sink_ = sink;
  }

 protected:
  /// Decide-path instrumentation: protocols call this exactly where a
  /// decide rule fires (see obs/trace_event.hpp for the rule tags).
  void trace_decide(Round k, ProcessId self, Value v,
                    std::uint8_t rule) const {
    TM_TRACE(trace_sink_, TraceEvent::decide(k, self, v, rule));
  }

  TraceSink* trace_sink_ = nullptr;
};

}  // namespace timing
